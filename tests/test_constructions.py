"""The two explicit schemes and the linearized-polynomial solver."""

import itertools

import pytest
from conftest import trace_kernel, w_hat

from rsrepair import (
    QPolynomial,
    RepairScheme,
    Subspace,
    construction1,
    construction2,
    field_create,
    io_lower_bound,
    metrics_direct,
    qpoly_annihilator,
)
from rsrepair.errors import CrossCheckMismatch, ParamViolation
from rsrepair.subspace import b_rank


def test_annihilator_gf4_hand_check():
    # over the 4 element field the map x + x^2 is the trace; it kills 1 and
    # its image is the 2 element prime field
    t = field_create(2, 1, 2)
    L = qpoly_annihilator([1], t)
    assert L.coeffs == (1, 1)
    assert L(1) == 0
    assert list(L.image().enumerate()) == [0, 1]
    assert list(L.kernel().enumerate()) == [0, 1]


def test_annihilator_properties():
    import random

    rng = random.Random(31)
    for ell in (4, 6, 8):
        t = field_create(2, 1, ell)
        for tt in (1, 2, 3):
            while True:
                betas = [rng.randrange(1, t.size) for _ in range(tt)]
                if b_rank(t, betas) == tt:
                    break
            L = qpoly_annihilator(betas, t)
            assert L.t == tt
            assert L.coeffs[-1] == 1
            # every value of L pairs to zero with each beta under the trace
            for x in range(0, t.size, 7):
                for b in betas:
                    assert t.trace_to_subfield(t.mul(b, L(x))) == 0
            expected = Subspace.scaled_trace_kernel(betas[0], t)
            if tt > 1:
                expected = expected.intersect(
                    *[Subspace.scaled_trace_kernel(b, t) for b in betas[1:]]
                )
            assert L.image() == expected
            assert L.kernel().dim == tt
            assert L.image().dim + L.kernel().dim == ell


def test_qpolynomial_linearity():
    import random

    rng = random.Random(8)
    t = field_create(3, 1, 3)
    L = QPolynomial(t, [2, 5, 1])
    M = L.gfp_matrix()
    for _ in range(50):
        x, y = rng.randrange(27), rng.randrange(27)
        assert L(t.add(x, y)) == t.add(L(x), L(y))
        c = rng.randrange(3)  # subfield scalar
        assert L(t.mul(c, x)) == t.mul(c, L(x))
        col = t.coords(x)
        out = [sum(M[i][j] * col[j] for j in range(3)) % 3 for i in range(3)]
        assert t.element(out) == L(x)
    with pytest.raises(ParamViolation):
        QPolynomial(t, [1, 0])
    with pytest.raises(ParamViolation, match="beta_i must be independent over B"):
        qpoly_annihilator([1, 2, 3], field_create(2, 1, 4))
    with pytest.raises(ParamViolation):
        qpoly_annihilator([1, 2], field_create(2, 1, 2))


def test_pinned_scheme_constants(example1):
    bp, scheme = example1
    t = scheme.tower
    assert bp.beta == (9, 15, 1, 5)
    assert bp.gamma == (5, 4, 14, 6)
    assert scheme.polys == ((14, 1, 9), (2, 6, 10), (11, 12, 10), (6, 2, 9))
    # theta = 2 solves x^2 + x + zeta with zeta = 6, and is primitive
    assert t.add(t.add(t.mul(2, 2), 2), 6) == 0
    # the scan strategy lands on the same basis
    bp2, scheme2 = construction1(4, theta_strategy="search")
    assert bp2.beta == bp.beta and scheme2.polys == scheme.polys


def test_pinned_scheme_helper_blocks(example1):
    _, scheme = example1
    t = scheme.tower
    code = scheme.code
    nf = scheme.normal_form
    frozen = {
        t.exp[6]: [[0, 1, 1, 1], [0, 0, 0, 0], [0, 0, 1, 1], [1, 0, 0, 1]],
        t.exp[8]: [[0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 0], [1, 0, 1, 1]],
        t.exp[10]: [[0, 1, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0], [1, 0, 1, 0]],
    }
    for point, rows in frozen.items():
        block = w_hat(nf, code.points.index(point) + 1)
        assert [list(r) for r in block] == rows
    rep = metrics_direct(scheme)
    assert (rep.io_cost, rep.bandwidth) == (44, 41)
    # exactly the three pinned helpers send less than they read
    saving = {node for node, nz, rank in rep.per_node if rank < nz}
    assert saving == {code.points.index(p) + 1 for p in frozen}


def _eta_lambda(scheme):
    etas = [p[1] for p in scheme.polys[:4]]
    lams = [p[2] for p in scheme.polys[:4]]
    return etas, lams


@pytest.mark.parametrize("ell", [4, 6, 8])
def test_quadratic_sum_relations(ell):
    # the four lambda sums that decide which beta scales each coset
    bp, scheme = construction1(ell)
    t = scheme.tower
    etas, lams = _eta_lambda(scheme)

    def combo(vals, idx):
        acc = 0
        for i in idx:
            acc = t.add(acc, vals[i])
        return acc

    for idx, s in [((0, 2, 3), 2), ((1, 3), 2), ((1, 2, 3), 3), ((0, 2), 3)]:
        lhs = combo(lams, idx)
        e = combo(etas, idx)
        assert lhs == t.mul(bp.beta[s], t.mul(e, e))


_U_SPANS = {
    1: ((1, 0, 0, 0), (0, 1, 0, 0)),
    2: ((0, 0, 1, 0), (0, 0, 0, 1)),
    3: ((1, 0, 1, 1), (0, 1, 0, 1)),
    4: ((0, 1, 1, 1), (1, 0, 1, 0)),
}


@pytest.mark.parametrize("ell", [4, 6, 8])
def test_coset_partition(ell):
    # each beta_s picks out a 2-dimensional set of u with lambda_u equal to
    # beta_s eta_u^2; their omega images scale into the trace kernel
    bp, scheme = construction1(ell)
    t = scheme.tower
    etas, lams = _eta_lambda(scheme)
    omegas = [p[0] for p in scheme.polys[:4]]
    kernel = trace_kernel(t)

    def fold(vals, u):
        acc = 0
        for uj, v in zip(u, vals):
            if uj:
                acc = t.add(acc, v)
        return acc

    seen_nonzero = set()
    for s, gens in _U_SPANS.items():
        span = {
            tuple((a * g1 + b * g2) % 2 for g1, g2 in zip(*gens))
            for a in (0, 1)
            for b in (0, 1)
        }
        matched = {
            u
            for u in itertools.product((0, 1), repeat=4)
            if fold(lams, u) == t.mul(bp.beta[s - 1], t.mul(fold(etas, u), fold(etas, u)))
        }
        assert matched == span
        seen_nonzero |= span - {(0, 0, 0, 0)}
        for u in span:
            w = fold(omegas, u)
            assert t.trace_to_subfield(t.mul(bp.beta[s - 1], w)) == 0
            assert kernel.contains(t.mul(bp.beta[s - 1], w))
    # the four nonzero parts tile B^4 minus zero
    assert len(seen_nonzero) == 12


_W_SPAN_IDX = {
    1: ((2,), (1, 3)),
    2: ((0, 2), (3,)),
    3: ((0, 3), (1,)),
    4: ((0, 1, 2), (0,)),
}


@pytest.mark.parametrize("ell", [4, 6])
def test_omega_spans(ell):
    bp, scheme = construction1(ell)
    t = scheme.tower
    omegas = [p[0] for p in scheme.polys[:4]]

    def gsum(idx):
        acc = 0
        for i in idx:
            acc = t.add(acc, bp.gamma[i])
        return acc

    for s, (i1, i2) in _W_SPAN_IDX.items():
        expected = Subspace.span(t, [gsum(i1), gsum(i2)])
        u_gens = _U_SPANS[s]
        got = Subspace.span(
            t,
            [
                _fold_field(t, omegas, u_gens[0]),
                _fold_field(t, omegas, u_gens[1]),
            ],
        )
        assert got == expected


def _fold_field(t, vals, u):
    acc = 0
    for uj, v in zip(u, vals):
        if uj:
            acc = t.add(acc, v)
    return acc


@pytest.mark.parametrize("ell", [4, 6, 8])
def test_full_length_costs(ell):
    _, scheme = construction1(ell)
    n = 2**ell
    rep = metrics_direct(scheme)
    assert rep.io_cost == (n - 1) * ell - 2**ell
    low = (n - 1) * (ell - 1) - 2 ** (ell - 1) + 2 ** (ell - 4)
    assert low <= rep.bandwidth <= rep.io_cost


def test_construction1_validation():
    for bad in (3, 2, 5):
        with pytest.raises(ParamViolation):
            construction1(bad)
    with pytest.raises(ParamViolation):
        construction1(6, theta_strategy="paper_example")
    with pytest.raises(ParamViolation):
        construction1(4, theta_strategy="newton")


@pytest.mark.parametrize(
    "params,cost",
    [
        ((2, 4, 3, 0, 2, 2), 20),
        ((2, 6, 4, 0, 3, 2), 66),
        ((2, 6, 5, 1, 3, 3), 138),
        ((2, 4, 4, 0, 1, 2), 52),
        ((3, 4, 3, 0, 2, 2), 86),
        ((3, 4, 3, 1, 2, 4), 86),
    ],
)
def test_diagonal_scheme_costs(params, cost):
    q, ell, d, s, m, r = params
    bp, A, scheme = construction2(*params)
    assert A.dim == d
    assert scheme.code.n == q**d and scheme.code.r == r
    rep = metrics_direct(scheme)
    assert rep.io_cost == rep.bandwidth == cost
    assert cost == (q**d - 1) * ell - m * q ** (d - 1)


def test_diagonal_blocks():
    _, _, scheme = construction2(2, 6, 4, 0, 3, 2)
    nf = scheme.normal_form
    for i in range(1, scheme.code.n + 1):
        if i == scheme.target:
            continue
        block = w_hat(nf, i)
        for a in range(nf.m):
            for b in range(nf.m):
                if a != b:
                    assert block[a][b] == 0


def test_diagonal_scheme_meets_bound():
    # full support recovery of the read bound in both covered regimes
    for params in [(2, 6, 4, 0, 3, 2), (2, 4, 4, 0, 1, 2), (3, 4, 3, 0, 2, 2)]:
        q, ell, d, s, m, r = params
        _, _, scheme = construction2(*params)
        assert metrics_direct(scheme).io_cost == io_lower_bound(q, ell, d, r)["value"]
    _, _, scheme = construction2(2, 6, 5, 1, 3, 3)
    assert metrics_direct(scheme).io_cost == io_lower_bound(2, 6, 5, 3)["value"]


def test_construction2_validation():
    cases = [
        (2, 6, 4, 0, 4, 2),  # m does not divide ell
        (2, 4, 4, 0, 2, 2),  # m exceeds ell-d+s+1
        (2, 6, 4, 1, 3, 2),  # r below q^s + 1
        (2, 4, 4, 1, 2, 3),  # s > 0 at d = ell
        (6, 4, 3, 0, 2, 2),  # q not a prime power
        (2, 6, 2, 2, 3, 5),  # s >= d
        (2, 2, 1, 0, 1, 2),  # no message symbols left
        (2, 1, 1, 0, 1, 2),  # ell too small
    ]
    for params in cases:
        with pytest.raises(ParamViolation):
            construction2(*params)


@pytest.mark.parametrize("build", [
    lambda: construction1(6),
    lambda: construction2(2, 6, 4, 0, 3, 2),
    lambda: construction2(3, 6, 4, 0, 3, 2),
])
def test_derived_support_must_match_claim(monkeypatch, build):
    # each construction claims support 1..m; adding gamma_1 to the last
    # constant keeps the scheme valid but covers column 1 as well
    def mutated(code, bp, polys, target):
        polys = [*polys[:-1], [code.tower.add(polys[-1][0], bp.gamma[0])]]
        return RepairScheme(code, bp, polys, target)

    nf = build()[-1].normal_form
    assert nf.support_set == tuple(range(1, nf.m + 1))
    monkeypatch.setattr("rsrepair.constructions.RepairScheme", mutated)
    with pytest.raises(CrossCheckMismatch, match="derived support set"):
        build()
