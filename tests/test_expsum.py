"""Exact character sums: orthogonality, subspace dichotomy, analytic bound."""

import itertools
import random

import pytest

from rsrepair import (
    CharSum,
    char_sum,
    construction1,
    construction2,
    field_create,
    io_cost_expsum,
    metrics_direct,
    metrics_expsum,
    random_normalized_scheme,
    weil_check,
)
from rsrepair.errors import CrossCheckMismatch, ParamViolation
from rsrepair.expsum import _normal_form_tally, per_node_zero_columns

from conftest import all_subspaces


def test_charsum_tally():
    cs = CharSum(3)
    cs.tally(0)
    cs.tally(4)  # residue 1
    cs.tally(2, mult=5)
    assert cs.counts == [1, 1, 5]
    assert not cs.is_rational_integer()
    cs.tally(1, mult=4)
    assert cs.is_rational_integer() and cs.as_integer() == 1 - 5


def test_charsum_rejects_non_integer():
    cs = CharSum(3, [1, 2, 0])
    assert not cs.is_rational_integer()
    with pytest.raises(CrossCheckMismatch, match="do not collapse to an integer"):
        cs.as_integer()
    with pytest.raises(ValueError):
        CharSum(3, [1, 2])


def test_charsum_complex_matches_integer():
    for p, counts in [(2, [7, 3]), (3, [4, 2, 2]), (5, [6, 1, 1, 1, 1])]:
        cs = CharSum(p, counts)
        assert abs(cs.complex_value() - cs.as_integer()) < 1e-9


@pytest.mark.parametrize("params", [(2, 1, 4), (3, 1, 2)])
def test_orthogonality_exhaustive(params):
    # sum of chi(beta x) over the whole field: |F| at beta = 0, else 0
    t = field_create(*params)
    for beta in range(t.size):
        s = char_sum((t.mul(beta, x) for x in range(t.size)), t).as_integer()
        assert s == (t.size if beta == 0 else 0)


@pytest.mark.parametrize("params", [(2, 1, 4), (3, 1, 4)])
def test_subspace_dichotomy_exhaustive(params):
    from rsrepair import subspace_char_sum

    t = field_create(*params)
    subs = all_subspaces(t)
    for G in subs:
        for scale in range(t.size):
            got = subspace_char_sum(G, scale, t)
            perp = all(
                t.trace_to_subfield(t.mul(scale, b)) == 0 for b in G.b_basis()
            )
            assert got == (t.q**G.dim if perp else 0)


def test_io_expsum_matches_direct(example1):
    _, scheme = example1
    nf = scheme.normal_form
    rep = metrics_direct(scheme)
    assert io_cost_expsum(nf) == rep.io_cost == 44
    rng = random.Random(29)
    nfs = [construction1(8)[1].normal_form]
    nfs += [construction2(*params)[2].normal_form for params in (
        (2, 6, 4, 0, 3, 2), (3, 6, 4, 0, 3, 2), (4, 6, 4, 0, 3, 2), (9, 4, 3, 0, 2, 2))]
    nfs += [random_normalized_scheme(rng)[0] for _ in range(20)]
    for nf in nfs:
        assert io_cost_expsum(nf) == metrics_direct(nf.scheme).io_cost


def test_per_node_zero_columns(example1):
    _, scheme = example1
    nf = scheme.normal_form
    rep = metrics_direct(scheme)
    zeros = per_node_zero_columns(nf)
    assert scheme.target not in zeros
    by_node = {node: nz for node, nz, _ in rep.per_node}
    ell = scheme.tower.ell
    # every covered column is nonzero, so nz = ell - (zero support columns)
    assert set(zeros) == set(by_node)
    for node, z in zeros.items():
        assert by_node[node] == ell - z
    assert rep.io_cost == sum(by_node.values())


def _tally_oracle(nf, points):
    """Reference counts: the literal (alpha, u, s) loop, every g_u built anew."""
    scheme = nf.scheme
    t = scheme.tower
    betas = [scheme.basis.beta[s - 1] for s in nf.support_set]
    counts = [0] * t.p
    for alpha in points:
        evals = [scheme.code.eval_poly(p, alpha) for p in scheme.polys[: nf.m]]
        for u in itertools.product(t.subfield_elements(), repeat=nf.m):
            gu = 0
            for uj, ej in zip(u, evals):
                if uj and ej:
                    gu = t.add(gu, t.mul(uj, ej))
            for b in betas:
                counts[t.absolute_trace(t.mul(gu, b))] += 1
    return counts


def _oracle_cases():
    rng = random.Random(23)
    for q in (2, 3):
        for _ in range(6):
            yield random_normalized_scheme(rng, q=q)[0]
    yield construction2(4, 6, 4, 0, 3, 2)[2].normal_form


def _value_rows(nf, points):
    """The kernel's input: (g_1(alpha), ..., g_m(alpha)) per alpha, by Horner."""
    code = nf.scheme.code
    return [[code.eval_poly(p, alpha) for p in nf.scheme.polys[: nf.m]] for alpha in points]


def test_normal_form_tally_matches_literal_loop():
    seen_q = set()
    for nf in _oracle_cases():
        points = nf.scheme.code.points
        seen_q.add(nf.scheme.tower.q)
        assert _normal_form_tally(nf, _value_rows(nf, points)).counts == _tally_oracle(nf, points)
        for alpha in points[:3] + points[-2:]:
            got = _normal_form_tally(nf, _value_rows(nf, [alpha])).counts
            assert got == _tally_oracle(nf, [alpha])
    assert seen_q == {2, 3, 4}


def test_weil_cubic_anchor(gf16):
    # x^3 over the 16 element field meets the bound with equality
    out = weil_check([0, 0, 0, 1], gf16)
    assert out["ok"]
    assert out["bound"] == pytest.approx(8.0)
    assert out["magnitude"] == pytest.approx(8.0)


def test_weil_random_polynomials():
    rng = random.Random(17)
    towers = [field_create(2, 1, 4), field_create(3, 1, 2), field_create(2, 1, 6)]
    for _ in range(40):
        t = rng.choice(towers)
        e = rng.choice([d for d in range(1, 6) if d % t.p])
        coeffs = [rng.randrange(t.size) for _ in range(e)] + [rng.randrange(1, t.size)]
        out = weil_check(coeffs, t)
        assert out["ok"]
        assert out["bound"] == pytest.approx((e - 1) * t.size**0.5)


def test_weil_refuses_bad_degree(gf16, gf9):
    with pytest.raises(ParamViolation, match="degree 2 shares a factor with p = 2"):
        weil_check([1, 0, 3], gf16)  # degree 2, p = 2
    with pytest.raises(ParamViolation, match="degree 3 shares a factor with p = 3"):
        weil_check([0, 0, 0, 2], gf9)  # degree 3, p = 3
    with pytest.raises(ParamViolation, match="degree 0 shares a factor with p = 2"):
        weil_check([5], gf16)  # constant
    # trailing zeros stripped before the degree test
    assert weil_check([0, 1, 0, 0], gf16)["ok"]


def test_expsum_tallies_each_node_once(example1, monkeypatch):
    import rsrepair.expsum as ex

    _, scheme = example1
    kernel = ex._normal_form_tally
    rows_per_call = []

    def counting(nf, rows):
        rows = list(rows)
        rows_per_call.append(len(rows))
        return kernel(nf, rows)

    monkeypatch.setattr(ex, "_normal_form_tally", counting)
    rep = metrics_expsum(scheme.normal_form)
    # one call per node, the target included: n * q^m * t terms in all
    assert rows_per_call == [1] * scheme.code.n
    assert rep.io_cost == 44
