"""The randomized suites themselves: shape, seeding, pass on defaults."""

import json
import random

import pytest

from rsrepair import (MetricsReport, bounds, metrics_direct, metrics_weight, r3cond_max_bruteforce,
                      random_normalized_scheme, run_suite)
from rsrepair.cli import main
from rsrepair.errors import RSRepairError
from rsrepair.suites import SUITE_NAMES


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_each_suite_passes(name):
    report = run_suite(name, seed=3, size=10)
    assert report["suite"] == name
    assert report["passed"] and report["failures"] == []
    assert report["cases"] >= 1


def test_all_aggregates():
    report = run_suite("all", seed=1, size=6)
    assert report["passed"]
    assert [r["suite"] for r in report["reports"]] == list(SUITE_NAMES)


def test_seed_determinism():
    a = run_suite("expsum", seed=11, size=5)
    b = run_suite("expsum", seed=11, size=5)
    assert a == b


def test_unknown_suite():
    with pytest.raises(RSRepairError):
        run_suite("primes")


def test_expsum_failure_names_first_node(monkeypatch):
    def shifted(nf):
        rep = metrics_weight(nf)
        (a, nz_a, rk_a), (b, nz_b, rk_b), *rest = rep.per_node
        return MetricsReport(rep.method, ((a, nz_a - 1, rk_a), (b, nz_b + 1, rk_b), *rest))

    monkeypatch.setattr("rsrepair.suites.metrics_weight", shifted)
    report = run_suite("expsum", seed=0, size=2)
    nf, params = random_normalized_scheme(random.Random(0))
    node, nz, rk = metrics_direct(nf.scheme).per_node[0]
    assert not report["passed"] and len(report["failures"]) == 2
    assert report["failures"][0] == (
        f"case 0 {params}: direct gives {(node, nz, rk)} but weight_formula gives {(node, nz - 1, rk)}"
    )


def test_r3cond_failures_are_reported(monkeypatch, capsys):
    # a wrong maximum at (ell=4, d=3), a maximizer with t' != m at (ell=5, d=2)
    def broken(ell, d, *, memo):
        best, argmax = r3cond_max_bruteforce(ell, d, memo=memo)
        if (ell, d) == (4, 3):
            best += 1
        if (ell, d) == (5, 2):
            argmax = argmax + [(1, 2, (1,))]
        return best, argmax

    monkeypatch.setattr("rsrepair.suites.r3cond_max_bruteforce", broken)
    report = run_suite("r3cond")
    assert not report["passed"] and report["cases"] == 21
    assert report["failures"] == [
        "(ell=4, d=3): maximum 13, expected 12",
        "(ell=5, d=2): maximizers outside the predicted shape: [(1, 2, (1,))]",
    ]
    assert main(["verify", "--suite", "r3cond"]) == 1
    assert json.loads(capsys.readouterr().out)["failures"] == report["failures"]


def test_r3cond_memo_lives_for_one_suite_run(monkeypatch):
    # one memo serves the 21 calls of a run, each small (m, t') batch is
    # enumerated once in it, and the next run starts from an empty memo
    sizes, enumerated = [], []
    chunks = bounds._r3cond_chunks

    def counted_chunks(m, tp):
        enumerated.append((m, tp))
        return chunks(m, tp)

    def recorded(ell, d, *, memo):
        sizes.append(len(memo))
        return r3cond_max_bruteforce(ell, d, memo=memo)

    monkeypatch.setattr(bounds, "_r3cond_chunks", counted_chunks)
    monkeypatch.setattr("rsrepair.suites.r3cond_max_bruteforce", recorded)
    for _ in range(2):
        sizes.clear()
        enumerated.clear()
        assert run_suite("r3cond")["passed"]
        assert len(sizes) == 21 and sizes[0] == 0 and all(sizes[1:])
        assert sorted(enumerated) == [(m, tp) for m in range(1, 8) for tp in range(1, m + 1)]
