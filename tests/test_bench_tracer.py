"""The benchmark's tracer still fits the package it wraps by name."""

import importlib.util
import pathlib
import sys

import rsrepair
import rsrepair.cli

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing(monkeypatch):
    """Import bench/tracing.py without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("rsrepair_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls(capsys, monkeypatch):
    tracing = _load_tracing(monkeypatch)
    originals = (rsrepair.cli.main, rsrepair.construction2, rsrepair.scheme.repair_matrix)
    tracer = tracing.Tracer("rsrepair")
    try:
        tracer.install()  # fails if a name in SPAN_TARGETS or COUNT_TARGETS is gone
        assert rsrepair.cli.main is not originals[0]
        argv = ["construct", "c2", "--q", "2", "--ell", "4", "--d", "3", "--m", "2", "--r", "2"]
        assert rsrepair.cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert (rsrepair.cli.main, rsrepair.construction2, rsrepair.scheme.repair_matrix) == originals
    assert {"cli.main", "constructions.construction2"} <= set(tracer.names)
    assert tracer.layer_metrics()["constructions.c2_s"] > 0
