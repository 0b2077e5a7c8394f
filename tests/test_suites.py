"""The randomized suites themselves: shape, seeding, pass on defaults."""

import random

import pytest

from rsrepair import MetricsReport, metrics_direct, metrics_weight, random_normalized_scheme, run_suite
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
