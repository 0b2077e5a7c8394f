"""Closed-form cost bounds against hand-derived values and brute force."""

import random

import pytest

from rsrepair import (
    bandwidth_lower_bound,
    bmin_bruteforce,
    bmin_literal,
    io_lower_bound,
    metrics_direct,
    r3cond_max_bruteforce,
    random_normalized_scheme,
)
from rsrepair.errors import ParamViolation, UnsupportedRegime


def test_io_values_frozen():
    # (15)*4 - 1*8 = 52, full support recovery, 1 | 4 so a matching scheme exists
    out = io_lower_bound(2, 4, 4, 2)
    assert out["value"] == 52 and out["tight_known"]
    # (15)*6 - 3*8 = 90 - 24 = 66, 3 | 6
    out = io_lower_bound(2, 6, 4, 2)
    assert out["value"] == 66 and out["theorem"] == "thm4" and out["tight_known"]
    # (15)*4 - 2*8 = 44 at d = ell
    out = io_lower_bound(2, 4, 4, 3)
    assert out["value"] == 44 and out["theorem"] == "thm6" and out["tight_known"]
    # 26*3 - 9 - isqrt(4 * 3) = 78 - 9 - 3 = 66
    out = io_lower_bound(3, 3, 3, 3)
    assert out["value"] == 66 and out["theorem"] == "coro11"
    assert not out["tight_known"]
    # ell = 1: coro11's root term is isqrt(c^2 // q); 2*1 - 1 - 0 = 1 at
    # q = 3, r = 2 and 4*1 - 1 - isqrt(16 // 5) = 2 at q = 5, r = 3
    assert [c["value"] for c in io_lower_bound(3, 1, 1, 2)["candidates"]] == [1, 1]
    assert io_lower_bound(5, 1, 1, 3, theorem="coro11")["value"] == 2


def test_io_auto_is_max_of_candidates():
    out = io_lower_bound(2, 4, 4, 2)
    tags = {c["theorem"] for c in out["candidates"]}
    assert tags == {"thm4", "coro11"}
    assert out["value"] == max(c["value"] for c in out["candidates"])
    # both routes give 69 here; the named route must be honored
    assert io_lower_bound(3, 3, 3, 2, theorem="coro11")["value"] == 69
    assert io_lower_bound(3, 3, 3, 2, theorem="thm4")["value"] == 69


def test_io_unsupported():
    with pytest.raises(UnsupportedRegime):
        io_lower_bound(4, 4, 4, 3)  # r = 3 needs q = 2, and 3 > char(4)
    with pytest.raises(UnsupportedRegime):
        io_lower_bound(2, 4, 3, 4)
    with pytest.raises(UnsupportedRegime):
        io_lower_bound(3, 4, 3, 3)
    with pytest.raises(UnsupportedRegime):
        io_lower_bound(2, 4, 4, 2, theorem="thm6")


def test_bandwidth_values_frozen():
    # 8*2 - 3 = 13
    out = bandwidth_lower_bound(3, 2, 2, 2)
    assert (out["value"], out["case"], out["tight_known"]) == (13, "i", True)
    # 15*4 - 3*4 = 48
    out = bandwidth_lower_bound(2, 4, 4, 2)
    assert (out["value"], out["case"], out["tight_known"]) == (48, "ii", True)
    # 15*4 - 2^(8-7) = 58
    out = bandwidth_lower_bound(2, 6, 4, 2)
    assert (out["value"], out["case"], out["tight_known"]) == (58, "iii", False)
    # 15*3 - 2^3 + 2^0 = 38
    out = bandwidth_lower_bound(2, 4, 4, 3)
    assert out["value"] == 38 and out["theorem"] == "thm8"
    assert not out["tight_known"]


def test_bandwidth_fractional_rounding():
    # 3*1 - 1/8 + 0 = 2.875 rounds up to 3
    assert bandwidth_lower_bound(2, 6, 2, 3)["value"] == 3
    # 2*1 - 1/9 = 1.888... rounds up to 2
    assert bandwidth_lower_bound(3, 3, 1, 2)["value"] == 2


def test_bandwidth_unsupported():
    with pytest.raises(UnsupportedRegime):
        bandwidth_lower_bound(3, 4, 3, 3)  # r = 3 needs q = 2
    with pytest.raises(UnsupportedRegime):
        bandwidth_lower_bound(2, 5, 2, 2)  # ell-d+1 = 4 does not divide 5
    with pytest.raises(UnsupportedRegime):
        bandwidth_lower_bound(2, 6, 3, 3)  # ell-d+2 = 5 does not divide 6
    with pytest.raises(UnsupportedRegime):
        bandwidth_lower_bound(2, 4, 4, 2, theorem="thm4")
    with pytest.raises(UnsupportedRegime):
        bandwidth_lower_bound(2, 4, 4, 4)


def test_query_validation():
    # d > ell, r < 2, q = 1, q not a prime power, no code (k = q^d - r < 1):
    # rejected by both bounds
    for bad in ((2, 4, 5, 2), (2, 4, 4, 1), (1, 4, 4, 2), (6, 4, 4, 2),
                (2, 1, 1, 2), (2, 4, 1, 3), (2, 4, 2, 4), (3, 4, 1, 3)):
        for bound in (io_lower_bound, bandwidth_lower_bound):
            with pytest.raises(ParamViolation):
                bound(*bad)
    assert bandwidth_lower_bound(2, 6, 4, 2)["value"] == 58
    assert io_lower_bound(2, 6, 4, 2)["value"] == 66


def test_r3cond_closed_form():
    for ell in range(2, 8):
        for d in range(2, ell + 1):
            best, argmax = r3cond_max_bruteforce(ell, d)
            assert best == (ell - d + 2) * 2 ** (d - 1)
            for tp, m, _ in argmax:
                assert tp == m
                assert m <= 2 * (ell - d + 2)


def test_r3cond_m_cap_and_budget():
    full, _ = r3cond_max_bruteforce(6, 4)
    capped, _ = r3cond_max_bruteforce(6, 4, m_max=2)
    assert capped <= full
    with pytest.raises(ParamViolation, match="sized for ell <= 10"):
        r3cond_max_bruteforce(11, 4)
    with pytest.raises(ParamViolation):
        r3cond_max_bruteforce(6, 0)


def test_bmin_balancing_matches_literal():
    for ell in range(2, 7):
        for d in range(1, min(ell, 4) + 1):
            for m in range(ell + 1):
                for r in (2, 3):
                    assert bmin_bruteforce(2, ell, d, m, r) == bmin_literal(
                        2, ell, d, m, r
                    )
    for ell in range(2, 5):
        for d in (1, 2):
            for m in range(ell + 1):
                assert bmin_bruteforce(3, ell, d, m, 2) == bmin_literal(3, ell, d, m, 2)


def test_bmin_frozen_shifts():
    # m = 2 tail: bandwidth = (n-1)(ell-m) + sum b_i = 30 + 18 = 48
    assert bmin_bruteforce(2, 4, 4, 2, 2) == 18
    assert (16 - 1) * (4 - 2) + 18 == bandwidth_lower_bound(2, 4, 4, 2)["value"]
    # m = ell: the b_i sum is the whole bandwidth bound
    assert bmin_bruteforce(2, 4, 4, 4, 3) == 38
    assert bmin_bruteforce(2, 4, 4, 4, 3) == bandwidth_lower_bound(2, 4, 4, 3)["value"]


def test_bmin_guards():
    with pytest.raises(ParamViolation, match="sized for n <= 16"):
        bmin_literal(2, 6, 5, 3, 2)  # n = 32
    with pytest.raises(UnsupportedRegime):
        bmin_bruteforce(3, 4, 2, 2, 3)
    with pytest.raises(UnsupportedRegime):
        bmin_bruteforce(2, 4, 2, 2, 5)
    with pytest.raises(ParamViolation):
        bmin_bruteforce(2, 4, 2, 5, 2)


def _r3cond_fraction_oracle(ell, d, m_max=None):
    """The r3cond maximization with every value a Fraction, kept as the oracle."""
    from fractions import Fraction
    from itertools import combinations_with_replacement

    hi = ell if m_max is None else min(ell, m_max)
    best, argmax = None, []
    for m in range(1, hi + 1):
        for tp in range(1, m + 1):
            for asc in combinations_with_replacement(range(m), tp):
                desc = asc[::-1]
                if sum(desc[: min(tp, ell - d + 2)]) > (ell - d + 1) * m:
                    continue
                value = Fraction(sum(2**ai for ai in desc) * 2**d, 2**m)
                if best is None or value > best:
                    best, argmax = value, [(tp, m, desc)]
                elif value == best:
                    argmax.append((tp, m, desc))
    if best is not None and best.denominator == 1:
        best = int(best)
    return best, argmax


def test_r3cond_matches_fraction_oracle():
    # per call, and with one memo shared by every input (as the r3cond suite
    # shares one across its grid)
    memo = {}
    for ell in range(1, 9):
        for d in range(1, ell + 1):
            for m_max in (None, 0, 1, ell // 2, ell - 1):
                want = _r3cond_fraction_oracle(ell, d, m_max)
                for got in (r3cond_max_bruteforce(ell, d, m_max),
                            r3cond_max_bruteforce(ell, d, m_max, memo=memo)):
                    assert got == want and type(got[0]) is type(want[0])


def test_bounds_never_beaten_by_random_schemes():
    # soundness: no scheme beats a bound that covers it.  The bandwidth
    # bounds (thm5, thm8) assume a scheme that meets the io bound exactly.
    rng = random.Random(12345)
    covered = meets = bw_checked = 0
    for _ in range(400):
        nf, p = random_normalized_scheme(rng)
        query = (p["q"], p["ell"], p["d"], p["r"])
        rep = metrics_direct(nf.scheme)
        try:
            io = io_lower_bound(*query)["value"]
        except UnsupportedRegime:
            continue
        covered += 1
        assert rep.io_cost >= io, (p, rep.io_cost, io)
        if rep.io_cost != io:
            continue
        meets += 1
        try:
            bw = bandwidth_lower_bound(*query)["value"]
        except UnsupportedRegime:
            continue
        bw_checked += 1
        assert rep.bandwidth >= bw, (p, rep.bandwidth, bw)
    # pinned, so a drift in the generator cannot empty the test
    assert (covered, meets, bw_checked) == (332, 38, 35)
