"""Subspace spans, trace kernels, and the intersection dimension identity."""

import itertools
import random

import pytest
from conftest import trace_kernel

from rsrepair import Subspace, field_create, linalg
from rsrepair.errors import CrossCheckMismatch
from rsrepair.subspace import b_rank, rank_over_subfield


def test_span_basics(gf16):
    A = Subspace.span(gf16, [1, 2])
    assert A.dim == 2
    pts = A.enumerate()
    assert len(pts) == 4 and pts[0] == 0
    assert set(pts) == {0, 1, 2, 3}
    assert all(A.contains(x) for x in pts)
    assert not A.contains(4)
    # closing the span leaves it unchanged, order is deterministic
    assert Subspace.span(gf16, [3, 1]).enumerate() == pts


def test_enumerate_matches_combinations():
    # the reference: coefficient vectors over B in lex order, one dot each
    for p, a, ell, gens in ((2, 1, 4, [3, 5, 9]), (3, 1, 2, [1, 3]), (2, 2, 3, [1, 7, 19]), (3, 2, 2, [1, 10])):
        t = field_create(p, a, ell)
        A = Subspace.span(t, gens)
        coeffs = itertools.product(t.subfield_elements(), repeat=A.dim)
        want = [linalg.dot(t, c, A.b_basis()) for c in coeffs]
        assert A.dim >= 2 and A.enumerate() == want
        assert len(set(want)) == t.q**A.dim


def test_enumerate_dependent_basis_raises(gf16, monkeypatch):
    A = Subspace.span(gf16, [1, 2])
    monkeypatch.setattr(Subspace, "b_basis", lambda self: (1, 1))
    with pytest.raises(CrossCheckMismatch, match="repeats"):
        A.enumerate()


def test_full_field_and_zero(gf16):
    assert Subspace.full_field(gf16).dim == 4
    assert len(Subspace.full_field(gf16).enumerate()) == 16
    zero = Subspace.span(gf16, [])
    assert zero.dim == 0 and zero.enumerate() == [0]


@pytest.mark.parametrize("p,a,ell", [(2, 1, 4), (3, 1, 2), (2, 2, 2)])
def test_trace_kernel(p, a, ell):
    t = field_create(p, a, ell)
    K = trace_kernel(t)
    assert K.dim == ell - 1
    for x in range(t.size):
        assert K.contains(x) == (t.trace_to_subfield(x) == 0)


def test_scaled_trace_kernel_membership(gf16):
    for t in (gf16, *(field_create(*ps) for ps in ((3, 1, 3), (2, 2, 2), (2, 2, 3), (3, 2, 2), (5, 1, 2)))):
        K = trace_kernel(t)
        for beta in range(1, t.size):
            S = Subspace.scaled_trace_kernel(beta, t)
            assert S.dim == t.ell - 1
            for x in range(t.size):
                assert S.contains(x) == (t.trace_to_subfield(t.mul(beta, x)) == 0)
            # the same subspace as beta^-1 K, re-spanned
            binv = t.inv(beta)
            assert S == Subspace.span(t, [t.mul(binv, e) for e in K.gfp_basis_elements()])


def test_cross_tower_subspaces_raise():
    # GF(2^4) and GF(4^2) share their GF(2) digits but not their B
    f2, f4 = Subspace.full_field(field_create(2, 1, 4)), Subspace.full_field(field_create(2, 2, 2))
    assert (f2.dim, f4.dim) == (4, 2) and f2 != f4
    for other, this in ((f2, f4), (f4, f2)):
        with pytest.raises(ValueError, match="different towers"):
            this.intersect(other)
        with pytest.raises(ValueError, match="different towers"):
            this.add(other)


def test_dimension_identity_single_beta_exhaustive():
    # dim(beta^-1 K) = ell - 1 for every nonzero beta, all ell up to 8
    for ell in range(2, 9):
        t = field_create(2, 1, ell)
        for beta in range(1, t.size):
            assert Subspace.scaled_trace_kernel(beta, t).dim == ell - 1


def test_dimension_identity_pairs_exhaustive(gf16):
    # exhaustive over all nonzero pairs in GF(16): rank 1 if dependent else 2
    for b1 in range(1, 16):
        for b2 in range(1, 16):
            got = Subspace.scaled_trace_kernel(b1, gf16).intersect(
                Subspace.scaled_trace_kernel(b2, gf16)
            ).dim
            assert got == 4 - b_rank(gf16, [b1, b2])


def test_dimension_identity_random_tuples():
    rng = random.Random(17)
    for _ in range(120):
        p, a, ell = rng.choice([(2, 1, 6), (2, 1, 8), (3, 1, 3), (2, 2, 2)])
        t = field_create(p, a, ell)
        betas = [rng.randrange(1, t.size) for _ in range(rng.randint(1, ell))]
        kernels = [Subspace.scaled_trace_kernel(b, t) for b in betas]
        got = kernels[0].intersect(*kernels[1:]).dim
        assert got == ell - b_rank(t, betas)


def test_intersect_add_dimension_formula(gf16):
    rng = random.Random(23)
    for _ in range(60):
        U = Subspace.span(gf16, [rng.randrange(16) for _ in range(rng.randint(0, 3))])
        V = Subspace.span(gf16, [rng.randrange(16) for _ in range(rng.randint(0, 3))])
        assert U.dim + V.dim == U.add(V).dim + U.intersect(V).dim


def test_b_rank_vs_subfield_rank(gf16):
    rng = random.Random(4)
    for _ in range(50):
        elems = [rng.randrange(16) for _ in range(rng.randint(1, 5))]
        assert b_rank(gf16, elems) == rank_over_subfield(gf16, elems, 2)


def test_b_rank_gf4_subfield():
    # rank over the intermediate field is coarser than over the prime field
    t = field_create(2, 1, 4)
    omega = t.subfield(4)[1]  # generator of GF(4) inside GF(16)
    assert b_rank(t, [1, omega]) == 2
    assert rank_over_subfield(t, [1, omega], 4) == 1


def test_b_basis_deterministic(gf16):
    A = Subspace.span(gf16, [5, 9, 12])
    assert list(A.b_basis()) == list(Subspace.span(gf16, [12, 5, 9]).b_basis())


def test_json_roundtrip(gf16):
    A = Subspace.span(gf16, [5, 9])
    B = Subspace.from_json(gf16, A.to_json())
    assert B == A and B.enumerate() == A.enumerate()


@pytest.mark.parametrize("params", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 2)])
def test_echelon_basis_matches_b_rank(params):
    # linalg.independent against the greedy b_rank oracle
    t = field_create(*params)
    rng = random.Random(11)
    for _ in range(20):
        draws = [rng.randrange(t.size) for _ in range(2 * t.ell)]
        picked = []
        for x in draws:
            if b_rank(t, picked + [x]) > len(picked):
                picked.append(x)
        assert linalg.independent(t, draws, t.ell) == picked


@pytest.mark.parametrize("params", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 2)])
def test_b_basis_matches_b_rank_greedy(params):
    # the b_rank greedy over the GF(p) rows, kept here as the oracle
    t = field_create(*params)
    rng = random.Random(5)
    for _ in range(10):
        A = Subspace.span(t, [rng.randrange(t.size) for _ in range(rng.randint(0, t.ell))])
        picked = []
        for e in A.gfp_basis_elements():
            if len(picked) < A.dim and b_rank(t, picked + [e]) > len(picked):
                picked.append(e)
        assert list(A.b_basis()) == picked


def test_echelon_basis_over_subfield_and_extend(monkeypatch):
    t = field_create(2, 1, 6)
    rng = random.Random(3)
    for size in (4, 8):
        draws = [rng.randrange(t.size) for _ in range(8)]
        for k in range(len(draws) + 1):
            picked = linalg.independent(t, draws[:k], t.ell, size)
            assert len(picked) == rank_over_subfield(t, picked, size) == rank_over_subfield(t, draws[:k], size)
    # no candidate is drawn once dim are picked, none at all for dim 0
    draws = iter(range(1, t.size))
    assert linalg.independent(t, draws, 2, 8) == [1, 2]
    assert next(draws) == 3
    assert linalg.independent(t, draws, 0) == [] and next(draws) == 4
    # a closure that grows by less than the subfield degree is a bug
    echelon = linalg.echelon
    monkeypatch.setattr(linalg, "echelon", lambda rows, *rest: echelon(rows[:1], *rest))
    with pytest.raises(CrossCheckMismatch, match="closure rank growth"):
        linalg.independent(t, [1], 1, 4)
