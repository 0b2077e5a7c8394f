"""Exact character sums: orthogonality, subspace dichotomy, analytic bound,
and the expsum route built on them: closed forms, affine sets, trace ranks."""

import itertools
import random

import pytest

from rsrepair import (
    BasisPair,
    CharSum,
    char_sum,
    construction1,
    construction2,
    field_create,
    io_cost_expsum,
    linalg,
    metrics_direct,
    metrics_expsum,
    metrics_weight,
    random_normalized_scheme,
    save_scheme,
    weil_check,
)
from rsrepair import expsum as ex
from rsrepair import scheme as scheme_mod
from rsrepair.cli import main
from rsrepair.errors import CrossCheckMismatch, ParamViolation
from rsrepair.expsum import _normal_form_tally, per_node_zero_columns
from rsrepair.scheme import affine_parts, cross_check

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


# (q, ell, d, s, m, r): the table-4 columns, then larger binary ones
C2_POOL = (
    (2, 4, 3, 0, 2, 2), (2, 6, 4, 0, 3, 2), (2, 8, 5, 0, 4, 2),
    (2, 6, 5, 1, 3, 3), (2, 8, 6, 1, 4, 3), (2, 8, 7, 2, 4, 5),
    (2, 12, 8, 0, 4, 2), (2, 16, 12, 0, 4, 2),
    (3, 6, 4, 0, 3, 2), (3, 6, 5, 1, 3, 4), (3, 8, 6, 0, 2, 2), (3, 9, 6, 0, 3, 2),
    (4, 6, 4, 0, 3, 2), (5, 6, 4, 0, 3, 2), (9, 4, 3, 0, 2, 2),
)


def test_io_expsum_matches_direct(example1):
    # closed form = sum of the per-node zero columns = direct, node by node;
    # test_criterion_5_three_way_agreement runs 300 random schemes the same way
    _, scheme = example1
    assert io_cost_expsum(scheme.normal_form) == metrics_direct(scheme).io_cost == 44
    nfs = [construction1(ell)[1].normal_form for ell in (4, 6, 8, 10, 12)]
    nfs += [construction2(*params)[2].normal_form for params in C2_POOL]
    for nf in nfs:
        direct = metrics_direct(nf.scheme)
        assert io_cost_expsum(nf) == cross_check(direct, metrics_expsum(nf)).io_cost


def test_per_node_zero_columns(example1):
    _, scheme = example1
    nf = scheme.normal_form
    rep = metrics_direct(scheme)
    zeros = per_node_zero_columns(nf)
    helpers = [i for i in range(1, scheme.code.n + 1) if i != scheme.target]
    by_node = {node: nz for node, nz, _ in rep.per_node}
    ell = scheme.tower.ell
    # every covered column is nonzero, so nz = ell - (zero support columns)
    assert len(zeros) == len(helpers) and set(helpers) == set(by_node)
    for node, z in zip(helpers, zeros):
        assert by_node[node] == ell - z
    assert rep.io_cost == sum(by_node.values())


def _literal_zero_columns(nf):
    """Each helper's support columns s with Tr_{F/B}(beta_s g_j(alpha_i)) = 0
    for every j <= m, the g_j evaluated by Horner."""
    scheme = nf.scheme
    t, code = scheme.tower, scheme.code
    betas = [scheme.basis.beta[s - 1] for s in nf.support_set]
    counts = []
    for i, alpha in enumerate(code.points, 1):
        if i != scheme.target:
            evals = [code.eval_poly(g, alpha) for g in scheme.polys[: nf.m]]
            counts.append(sum(not any(t.trace_to_subfield(t.mul(b, e)) for e in evals) for b in betas))
    return counts


def test_per_point_zero_columns_match_a_literal_count():
    # seeded B-affine schemes with some zero column, four per q
    rng = random.Random(29)
    cases = [construction2(4, 6, 4, 0, 3, 2)[2].normal_form,
             construction2(9, 4, 3, 0, 2, 2)[2].normal_form]
    for q, ell in ((2, None), (3, None), (4, 4), (9, 3)):
        drawn = (random_normalized_scheme(rng, q=q, ell=ell)[0] for _ in itertools.count())
        cases += itertools.islice((nf for nf in drawn if affine_parts(nf.scheme, nf.scheme.polys[: nf.m])
                                   and any(_literal_zero_columns(nf))), 4)
    assert [nf.scheme.tower.q for nf in cases] == [4, 9] + [2] * 4 + [3] * 4 + [4] * 4 + [9] * 4
    for nf in cases:
        assert affine_parts(nf.scheme, nf.scheme.polys[: nf.m]) is not None
        assert per_node_zero_columns(nf) == _literal_zero_columns(nf)


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


def test_expsum_tallies_target_or_each_node(example1, monkeypatch):
    # B-affine: the sums over A are closed forms, and the literal tally runs
    # at the target only; otherwise one tally per node
    kernel = ex._normal_form_tally
    rows_seen = []

    def recording(nf, rows):
        rows = list(rows)
        rows_seen.append(rows)
        return kernel(nf, rows)

    monkeypatch.setattr(ex, "_normal_form_tally", recording)
    _, scheme = example1
    assert metrics_expsum(scheme.normal_form).io_cost == 44
    assert rows_seen == [[[scheme.code.eval_poly(g, scheme.target_point) for g in scheme.polys[:4]]]]
    rng = random.Random(0)
    nf = next(nf for nf, _ in iter(lambda: random_normalized_scheme(rng), None)
              if affine_parts(nf.scheme, nf.scheme.polys[: nf.m]) is None)
    rows_seen.clear()
    assert metrics_expsum(nf).per_node == metrics_direct(nf.scheme).per_node
    assert [len(rows) for rows in rows_seen] == [1] * nf.scheme.code.n


# -- the expsum route's own checks: each mutation must end in CrossCheckMismatch


def _wrong_beta(monkeypatch, nf):
    system, first = ex._trace_system, nf.scheme.basis.beta[nf.support_set[0] - 1]
    monkeypatch.setattr(ex, "_trace_system", lambda t, beta, *parts: system(
        t, t.mul(beta, t.generator) if beta == first else beta, *parts))


def _dropped_row(monkeypatch, nf):
    solve = linalg.solution_set
    monkeypatch.setattr(linalg, "solution_set", lambda t, rows, rhs: solve(t, rows[:-1], rhs[:-1]))


def _moved_solution(monkeypatch, nf, by_kernel=False):
    solve = linalg.solution_set

    def moved(t, rows, rhs):
        x0, kernel = solve(t, rows, rhs)
        # a unit vector e_k off the kernel: column k of M is nonzero
        k = next(k for k, col in enumerate(zip(*rows)) if any(col))
        step = kernel[0] if by_kernel else [int(j == k) for j in range(len(x0))]
        return list(map(t.add, x0, step)), kernel

    monkeypatch.setattr(linalg, "solution_set", moved)


def _swapped_nodes(monkeypatch, nf):
    solve = linalg.solution_set
    swap = lambda x: [x[1], x[0], *x[2:]]

    def swapped(t, rows, rhs):  # weight x_0 by the basis element of x_1, and x_1 by that of x_0
        x0, kernel = solve(t, rows, rhs)
        return swap(x0), list(map(swap, kernel))

    monkeypatch.setattr(linalg, "solution_set", swapped)


def _theta_outside(monkeypatch, nf):
    functionals, t = ex._residue_functionals, nf.scheme.tower
    const = nf.scheme.polys[-1][0]
    outside = next(x for x in range(1, t.size) if t.trace_to_subfield(t.mul(x, const)))
    monkeypatch.setattr(ex, "_residue_functionals", lambda nf: (outside, *functionals(nf)[1:]))


MUTATIONS = {
    "wrong beta_s": _wrong_beta,
    "dropped V_s row": _dropped_row,
    "moved particular solution": _moved_solution,
    "swapped node order": _swapped_nodes,
    "theta outside C^perp": _theta_outside,
}
_MUTATED_SCHEMES = {"c1 ell 6": lambda: construction1(6)[1],
                    "c2 q 3": lambda: construction2(3, 6, 4, 0, 3, 2)[2]}


@pytest.mark.parametrize("scheme_name", sorted(_MUTATED_SCHEMES))
@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_expsum_mutation_is_caught(monkeypatch, mutation, scheme_name):
    scheme = _MUTATED_SCHEMES[scheme_name]()
    direct = metrics_direct(scheme)
    MUTATIONS[mutation](monkeypatch, scheme.normal_form)
    with pytest.raises(CrossCheckMismatch):
        cross_check(direct, metrics_expsum(scheme.normal_form))


@pytest.mark.parametrize("mutation, match", [
    ("dropped V_s row", "the closed form"),
    ("moved particular solution", "target repair matrix has a zero column"),
])
def test_io_cost_expsum_keeps_the_per_node_checks(monkeypatch, mutation, match):
    nf = construction1(6)[1].normal_form
    MUTATIONS[mutation](monkeypatch, nf)
    with pytest.raises(CrossCheckMismatch, match=match):
        io_cost_expsum(nf)


def test_expsum_takes_any_particular_solution(monkeypatch):
    # moving x0 by a kernel vector leaves V_s as it is
    scheme = construction1(6)[1]
    direct = metrics_direct(scheme)
    _moved_solution(monkeypatch, scheme.normal_form, by_kernel=True)
    assert cross_check(direct, metrics_expsum(scheme.normal_form))


def test_weight_and_expsum_ranks_are_separate(capsys, tmp_path, monkeypatch):
    # at t != m the weight route reads its ranks from its own walk; the
    # expsum route does not, so an off-by-one there splits the two
    rng = random.Random(0)
    nf = next(nf for nf, _ in iter(lambda: random_normalized_scheme(rng), None) if nf.t != nf.m)
    path = str(tmp_path / "scheme.json")
    save_scheme(nf.scheme, path)
    identity = scheme_mod.weight_identity

    def off_by_one(tower, k):
        walk, walked = identity(tower, k), []

        def first_off(rows, *mask):
            nz, rank = walk(rows, *mask)
            walked.append(1)
            return nz, rank - (len(walked) == 1)

        return first_off

    monkeypatch.setattr(scheme_mod, "weight_identity", off_by_one)
    with pytest.raises(CrossCheckMismatch):
        cross_check(metrics_weight(nf), metrics_expsum(nf))
    assert main(["metrics", path]) == 2
    assert capsys.readouterr().err.startswith("cross-check mismatch: direct gives")


def test_expsum_route_reads_no_shared_walk_or_table(monkeypatch):
    def fail(*args, **kwargs):
        pytest.fail("the expsum route reached a shared walk, reduction, weight walk or phi_hat table")

    for scheme in (construction1(6)[1], construction2(3, 6, 4, 0, 3, 2)[2],
                   construction2(4, 6, 4, 0, 3, 2)[2]):
        direct = metrics_direct(scheme)
        with monkeypatch.context() as patched:
            for owner, name in ((scheme_mod, "node_values"), (ex, "node_values"),
                                (linalg, "reduction"), (scheme_mod, "weight_identity"),
                                (BasisPair, "phi_hat_table"), (BasisPair, "phi_hat_bits")):
                patched.setattr(owner, name, fail)
            assert metrics_expsum(scheme.normal_form).per_node == direct.per_node
