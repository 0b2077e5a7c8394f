"""Dual bases and the trace vectorizations."""

import functools
import itertools
import random

import pytest

from rsrepair import BasisPair, dual_basis, field_create, linalg
from rsrepair.errors import CrossCheckMismatch, ParamViolation
from rsrepair.suites import _random_independent


def test_gf4_dual_by_hand(gf4):
    # Tr(x) = x + x^2 sends 0,1,w,w^2 to 0,0,1,1; solving the four pairing
    # equations for beta = (1, w) gives gamma = (w^2, 1)
    bp = dual_basis([1, 2], gf4)
    assert bp.beta == (1, 2)
    assert bp.gamma == (3, 1)


@pytest.mark.parametrize("p,a,ell", [(2, 1, 4), (3, 1, 3), (2, 2, 2)])
def test_pairing_identity(p, a, ell):
    rng = random.Random(3)
    t = field_create(p, a, ell)
    basis = []
    from rsrepair.subspace import b_rank

    while len(basis) < ell:
        x = rng.randrange(1, t.size)
        if b_rank(t, basis + [x]) > len(basis):
            basis.append(x)
    bp = dual_basis(basis, t)
    for i in range(ell):
        for j in range(ell):
            tr = t.trace_to_subfield(t.mul(bp.gamma[i], bp.beta[j]))
            assert tr == (1 if i == j else 0)


def test_vectorize_roundtrip_exhaustive(gf16):
    bp = dual_basis([9, 15, 1, 5], gf16)
    for x in range(16):
        v = bp.vectorize(x)
        assert linalg.dot(gf16, v, bp.beta) == x
        w = bp.vectorize_dual(x)
        assert linalg.dot(gf16, w, bp.gamma) == x
        # expansion against the primal basis: x = sum Tr(x gamma_i) beta_i
        acc = 0
        for c, b in zip(v, bp.beta):
            acc = gf16.add(acc, gf16.mul(c, b))
        assert acc == x


def test_swapped(gf16):
    bp = dual_basis([9, 15, 1, 5], gf16)
    sw = bp.swapped()
    assert sw.beta == bp.gamma and sw.gamma == bp.beta
    assert sw.vectorize(7) == bp.vectorize_dual(7)


def test_phi_tables_and_bits(gf16):
    towers = [(gf16, [9, 15, 1, 5])]
    for params in [(3, 1, 3), (2, 2, 2), (3, 2, 2), (2, 1, 6)]:
        t = field_create(*params)
        towers.append((t, _random_independent(random.Random(7), t, t.ell)))
    for t, beta in towers:
        bp = dual_basis(beta, t)
        phi, phi_hat = bp.phi_table(), bp.phi_hat_table()
        assert phi == [bp.vectorize(x) for x in range(t.size)]
        assert phi_hat == [bp.vectorize_dual(x) for x in range(t.size)]
        # base-p digits a s .. a s + a - 1 are coordinate s over the
        # GF(p)-basis gb of B; at prime q base-p digit s is coordinate s
        gb = t.subfield_gfp_basis(t.q)
        digits = {}
        for cs in itertools.product(range(t.p), repeat=t.a):
            b = functools.reduce(t.add, (t.mul(c, g) for c, g in zip(cs, gb)), 0)
            digits[b] = sum(c * t.p**j for j, c in enumerate(cs))
        assert len(digits) == t.q
        fresh = dual_basis(beta, t)
        bits = fresh.phi_hat_bits()
        assert fresh._phi_hat is None  # bits are built without the row table
        assert bits == [sum(digits[c] * t.q**s for s, c in enumerate(row)) for row in phi_hat]
        if t.a == 1:
            assert bits == [sum(c * t.p**s for s, c in enumerate(row)) for row in phi_hat]


def test_phi_tables_are_spot_checked(gf16, request):
    gf16.trace_to_subfield(0)  # build the tower's own tables before the corruption
    request.getfixturevalue("corrupt_first_image")
    for build in ("phi_table", "phi_hat_table", "phi_hat_bits"):
        bp = dual_basis([9, 15, 1, 5], gf16)
        with pytest.raises(CrossCheckMismatch, match="definition"):
            getattr(bp, build)()
        assert (bp._phi, bp._phi_hat, bp._phi_hat_bits) == (None, None, None)


def test_dependent_basis_rejected(gf16):
    with pytest.raises(ParamViolation, match="do not form a basis of F over B"):
        dual_basis([1, 2, 3, 4], gf16)  # 3 = 1 + 2 over GF(2)
    with pytest.raises(ParamViolation, match="claimed dual pair fails"):
        BasisPair(gf16, (9, 15, 1, 5), (5, 4, 14, 7))  # wrong dual


def test_json_roundtrip(gf16):
    bp = dual_basis([9, 15, 1, 5], gf16)
    bp2 = BasisPair.from_json(gf16, bp.to_json())
    assert bp2.beta == bp.beta and bp2.gamma == bp.gamma
