"""Codes on subspace points: evaluation, duality, distance."""

import itertools
import random

import pytest

from rsrepair import RSCode, Subspace, dual_basis, field_create
from rsrepair.errors import DegreeTooHigh, ParamViolation

from conftest import all_subspaces


def test_points_and_encode(gf16):
    A = Subspace.span(gf16, [1, 2])
    code = RSCode(A, 2)
    assert code.n == 4 and code.r == 2
    assert code.points[0] == 0
    assert code.points.index(0) + 1 == 1
    # f(x) = 3x + 5
    cw = code.encode([5, 3])
    assert cw == [gf16.add(gf16.mul(3, a), 5) for a in code.points]
    with pytest.raises(DegreeTooHigh):
        code.encode([1, 2, 3])
    with pytest.raises(ParamViolation):
        RSCode(A, 4)


def test_eval_poly_matches_powers(gf16):
    code = RSCode(Subspace.full_field(gf16), 10)
    rng = random.Random(2)
    for _ in range(50):
        coeffs = [rng.randrange(16) for _ in range(rng.randint(1, 6))]
        x = rng.randrange(16)
        acc = 0
        for i, c in enumerate(coeffs):
            acc = gf16.add(acc, gf16.mul(c, gf16.pow(x, i)))
        assert code.eval_poly(coeffs, x) == acc


def test_monomial_duality_exhaustive():
    """sum over A of x^(i+j) vanishes whenever i + j <= n - 2.

    Exhaustive over every subspace of GF(16) and GF(9) with n >= 2 and
    every monomial pair, covering all splits into message and dual degree.
    """
    for p, ell in [(2, 4), (3, 2)]:
        t = field_create(p, 1, ell)
        for A in all_subspaces(t):
            n = t.q ** A.dim
            if n < 2:
                continue
            points = A.enumerate()
            for e in range(n - 1):
                acc = 0
                for al in points:
                    acc = t.add(acc, t.pow(al, e))
                assert acc == 0, (p, ell, A.dim, e)


def test_dual_inner_product_random(gf16):
    A = Subspace.span(gf16, [1, 2, 4])
    code = RSCode(A, 5)
    bp = dual_basis([9, 15, 1, 5], gf16)
    res = code.dual_inner_product_check(trials=30, seed=9, basis=bp)
    assert res["passed"] and res["scalar_failures"] == 0 == res["vectorized_failures"]


def test_mds_distance_exhaustive_small(gf4):
    # RS(GF(4), 2): every nonzero codeword has weight >= n - k + 1 = 3
    code = RSCode(Subspace.full_field(gf4), 2)
    for coeffs in itertools.product(range(4), repeat=2):
        cw = code.encode(list(coeffs))
        wt = sum(1 for c in cw if c)
        if any(coeffs):
            assert wt >= code.n - code.k + 1


def test_mds_distance_spot(gf16):
    rng = random.Random(31)
    code = RSCode(Subspace.full_field(gf16), 11)
    for _ in range(40):
        coeffs = [rng.randrange(16) for _ in range(code.k)]
        if not any(coeffs):
            continue
        wt = sum(1 for c in code.encode(coeffs) if c)
        assert wt >= code.n - code.k + 1


def test_random_codeword_seeded(gf16):
    code = RSCode(Subspace.full_field(gf16), 3)
    assert code.random_codeword(7) == code.random_codeword(7)
    assert code.random_codeword(7) != code.random_codeword(8)


def _horner(t, coeffs, x):
    """Test-local oracle: Horner's rule through the tower's mul and add."""
    acc = 0
    for c in reversed(coeffs):
        acc = t.add(t.mul(acc, x), c)
    return acc


# GF(2), GF(3), GF(5) (degree-1 towers), GF(4^3), GF(9^2), GF(2^8)
@pytest.mark.parametrize("params", [(2, 1, 1), (3, 1, 1), (5, 1, 1), (2, 2, 3), (3, 2, 2), (2, 1, 8)])
def test_eval_poly_matches_horner(params):
    t = field_create(*params)
    code = RSCode(Subspace.full_field(t), max(1, t.size - 2))  # degree up to k - 1 = n - 3
    rng = random.Random(sum(params))
    polys = [[], [rng.randrange(1, t.size)]]
    polys += [[rng.randrange(t.size) for _ in range(n)] for n in {2, code.k // 2 + 1, code.k}]
    polys.append([0] * (code.k - 1) + [t.size - 1])  # a lone top coefficient
    for coeffs in polys:
        for x in range(t.size):
            assert code.eval_poly(coeffs, x) == _horner(t, coeffs, x)
            assert code.eval_poly(tuple(coeffs), x) == _horner(t, coeffs, x)
