"""Repair schemes: matrices, metrics, normal forms, repair, scheme files."""

import random

import pytest
from conftest import nz_via_weight, random_codeword, w_hat

from rsrepair import (
    AccessCounter,
    MetricsReport,
    NormalForm,
    RSCode,
    RepairScheme,
    Subspace,
    construction1,
    construction2,
    dual_basis,
    field_create,
    load_scheme,
    metrics_direct,
    metrics_expsum,
    metrics_weight,
    normalize,
    repair_matrix,
    repair_node,
    save_scheme,
    transform,
)
from rsrepair import linalg
from rsrepair import scheme as scheme_mod
from rsrepair.basis import BasisPair
from rsrepair.errors import CrossCheckMismatch, InvalidScheme, ParamViolation, SingularMatrix
from rsrepair.gf import BLOCK
from rsrepair.scheme import _rank_profile, cross_check, node_values
from rsrepair.suites import _random_independent, random_normalized_scheme


def _nz_scan(rows):
    """Independent oracle: count columns with any nonzero entry."""
    if not rows:
        return 0
    return sum(1 for s in range(len(rows[0])) if any(r[s] for r in rows))


def test_weight_formula_oracle_500():
    rng = random.Random(41)
    towers = [
        field_create(2, 1, 4), field_create(3, 1, 2), field_create(2, 1, 6),
        field_create(2, 2, 3),
    ]
    for _ in range(500):
        t = rng.choice(towers)
        k = rng.randint(0, 4)
        width = rng.randint(0, 6)
        bset = list(t.subfield_elements())
        rows = [tuple(rng.choice(bset) for _ in range(width)) for _ in range(k)]
        assert nz_via_weight(rows, t) == _nz_scan(rows)


def test_metrics_report_totals_from_per_node():
    rep = MetricsReport("direct", ((2, 4, 3), (5, 1, 1)))
    assert (rep.io_cost, rep.bandwidth) == (5, 4)
    with pytest.raises(CrossCheckMismatch, match="bandwidth exceeds io cost"):
        MetricsReport("direct", ((2, 2, 3),))


def test_metrics_report_columns():
    triples = ((2, 4, 3), (5, 1, 1), (7, 2**40, 0))
    rep = MetricsReport("direct", triples)
    lazy = MetricsReport("direct", (t for t in triples))
    for r in (rep, lazy):
        assert (r.nodes.typecode, r.nz.typecode, r.ranks.typecode) == ("q", "q", "q")
        assert (list(r.nodes), list(r.nz), list(r.ranks)) == ([2, 5, 7], [4, 1, 2**40], [3, 1, 0])
        assert r.per_node == triples and type(r.per_node) is tuple
        assert all(type(t) is tuple and all(type(x) is int for x in t) for t in r.per_node)
        assert (r.io_cost, r.bandwidth) == (5 + 2**40, 4)
    assert MetricsReport("empty", iter(())).per_node == ()
    with pytest.raises(CrossCheckMismatch, match="weight: bandwidth exceeds io cost"):
        MetricsReport("weight", (t for t in ((2, 1, 1), (3, 2, 3))))


def test_cross_check_names_the_first_differing_triple():
    ref = MetricsReport("direct", ((2, 4, 3), (3, 4, 4), (4, 1, 1)))
    assert cross_check(ref, MetricsReport("weight", iter(ref.per_node)), ref) is ref
    for triples, first in [
        (((2, 4, 3), (3, 4, 3), (4, 1, 1)), "(3, 4, 4) but weight gives (3, 4, 3)"),
        (((2, 4, 3), (3, 3, 3), (4, 2, 2)), "(3, 4, 4) but weight gives (3, 3, 3)"),
        (((2, 4, 3), (5, 4, 4), (4, 1, 1)), "(3, 4, 4) but weight gives (5, 4, 4)"),
        (((2, 4, 3), (3, 4, 4)), "(4, 1, 1) but weight gives nothing"),
        (((2, 4, 3), (3, 4, 4), (4, 1, 1), (5, 1, 0)), "nothing but weight gives (5, 1, 0)"),
    ]:
        with pytest.raises(CrossCheckMismatch) as ei:
            cross_check(ref, ref, MetricsReport("weight", triples))
        assert str(ei.value) == f"direct gives {first}"


def _rank_from_scratch(scheme, i):
    """rank(W_i) over B from one GF(p) elimination of the packed rows of
    c g(alpha_i), c in subfield_gfp_basis(q), for every g: no basis reused."""
    t = scheme.tower
    table = scheme.basis.phi_hat_bits()
    vals = [scheme.code.eval_poly(g, scheme.code.points[i - 1]) for g in scheme.polys]
    rank, rest = divmod(linalg.rank_bits([table[t.mul(c, v)] for c in t.subfield_gfp_basis(t.q) for v in vals], t),
                        t.a)
    assert rest == 0
    return rank


_DIRECT_C2 = {
    2: [(2, 6, 4, 0, 3, 2), (2, 8, 7, 2, 4, 5)],
    3: [(3, 6, 4, 0, 3, 2), (3, 6, 5, 1, 3, 4)],
    4: [(4, 6, 4, 0, 3, 2), (4, 4, 3, 1, 2, 5)],
    9: [(9, 4, 3, 0, 2, 2)],
}


@pytest.mark.parametrize("q", sorted(_DIRECT_C2))
def test_metrics_direct_rank_matches_from_scratch(q):
    """The direct route reduces the constant rows once per scheme; each
    helper's rank must still be the full ell x ell rank, and every route's
    per_node the tuple reference."""
    rng = random.Random(100 + q)
    forms = [construction2(*params)[2].normal_form for params in _DIRECT_C2[q]]
    forms += [random_normalized_scheme(rng, q=q, ell=rng.randint(2, 4 if q < 9 else 3))[0] for _ in range(8)]
    if q == 2:
        forms.append(construction1(6)[1].normal_form)
    assert any(nf.t != nf.m for nf in forms) and any(nf.t == nf.m for nf in forms)
    assert any(nf.m < nf.scheme.ell for nf in forms)
    for nf in forms:
        rep, want = metrics_direct(nf.scheme), _tuple_reference(nf.scheme)
        assert list(rep.ranks) == [_rank_from_scratch(nf.scheme, i) for i in rep.nodes]
        assert rep.per_node == metrics_weight(nf).per_node == metrics_expsum(nf).per_node == want


def _toy_scheme(seed=0, target=1):
    """GF(16) full length r = 3 scheme with dual basis constants in the tail."""
    t = field_create(2, 1, 4)
    bp = dual_basis([9, 15, 1, 5], t)
    code = RSCode(Subspace.full_field(t), 13)
    rng = random.Random(seed)
    while True:
        polys = [
            [rng.randrange(16), rng.randrange(1, 16), rng.randrange(16)],
            [rng.randrange(16), rng.randrange(16), rng.randrange(1, 16)],
            [bp.gamma[0]],
            [bp.gamma[1]],
        ]
        try:
            return RepairScheme(code, bp, polys, target=target), bp
        except InvalidScheme:
            continue


def test_repair_matrix_entries(gf16):
    scheme, bp = _toy_scheme()
    for i in (1, 5, 12):
        rows = repair_matrix(scheme, i)
        point = scheme.code.points[i - 1]
        for j, poly in enumerate(scheme.polys):
            val = scheme.code.eval_poly(poly, point)
            for s in range(4):
                want = gf16.trace_to_subfield(gf16.mul(val, bp.beta[s]))
                assert rows[j][s] == want


def test_three_metrics_agree_toy():
    scheme, _ = _toy_scheme(3)
    nf = normalize(scheme)
    a, b, c = metrics_direct(scheme), metrics_weight(nf), metrics_expsum(nf)
    assert a.io_cost == b.io_cost == c.io_cost
    assert a.bandwidth == b.bandwidth == c.bandwidth
    assert a.per_node == b.per_node == c.per_node
    assert a.bandwidth <= a.io_cost


def test_normalize_shapes():
    scheme, bp = _toy_scheme(5)
    nf = normalize(scheme)
    assert nf.m == 2
    # tail constants are gamma_1 and gamma_2, so columns 1 and 2 are covered
    assert nf.support_set == (3, 4) and nf.t == 2
    for j in range(nf.m, scheme.ell):
        assert not any(nf.scheme.polys[j][1:])


def test_normalize_all_constants():
    t = field_create(2, 1, 4)
    bp = dual_basis([9, 15, 1, 5], t)
    code = RSCode(Subspace.full_field(t), 13)
    scheme = RepairScheme(code, bp, [[g] for g in bp.gamma])
    nf = normalize(scheme)
    assert nf.m == 0 and nf.t == 0 and nf.support_set == ()
    rep = metrics_direct(nf.scheme)
    # every helper reads and sends everything
    assert rep.io_cost == rep.bandwidth == (code.n - 1) * 4
    assert metrics_weight(nf).io_cost == rep.io_cost
    assert metrics_expsum(nf).io_cost == rep.io_cost


def test_normalize_mixed_constant_combo():
    # g_2 = g_1 + constant: normal form must fold it into the constant tail
    t = field_create(2, 1, 4)
    bp = dual_basis([9, 15, 1, 5], t)
    code = RSCode(Subspace.full_field(t), 13)
    g1 = [3, 7, 9]
    g2 = [t.add(3, bp.gamma[0]), 7, 9]
    scheme = RepairScheme(code, bp, [g1, g2, [bp.gamma[1]], [bp.gamma[2]]])
    nf = normalize(scheme)
    assert nf.m == 1 and nf.t == 1
    direct = metrics_direct(scheme)
    assert metrics_weight(nf).io_cost == direct.io_cost
    assert metrics_expsum(nf).bandwidth == direct.bandwidth


def test_transform_preserves_metrics():
    scheme, _ = _toy_scheme(9)
    t = scheme.tower
    M = [
        [1, 1, 0, 0],
        [0, 1, 0, 0],
        [0, 1, 1, 0],
        [1, 0, 1, 1],
    ]
    moved = transform(scheme, M)
    a, b = metrics_direct(scheme), metrics_direct(moved)
    assert (a.io_cost, a.bandwidth, a.per_node) == (b.io_cost, b.bandwidth, b.per_node)
    with pytest.raises(ParamViolation, match="transform matrix is singular over B"):
        transform(scheme, [[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    with pytest.raises(ParamViolation, match="transform entries must lie in B"):
        transform(scheme, [[4, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def test_repair_roundtrip_counts():
    scheme, _ = _toy_scheme(13)
    code = scheme.code
    rep = metrics_direct(scheme)
    rng = random.Random(99)
    for _ in range(20):
        cw = code.encode([rng.randrange(16) for _ in range(code.k)])
        value, counter = repair_node(scheme, cw, AccessCounter())
        assert value == cw[scheme.target - 1]
        assert counter.total_accessed == rep.io_cost
        assert counter.total_transmitted == rep.bandwidth
        # per helper tallies match the per node report
        for node, nz, rank in rep.per_node:
            positions, sent = counter.per_helper[node]
            assert len(positions) == nz and sent == rank


def test_repair_shifted_target():
    scheme, _ = _toy_scheme(21, target=6)
    assert scheme.target == 6
    code = scheme.code
    cw = random_codeword(code, 5)
    value, counter = repair_node(scheme, cw, AccessCounter())
    assert value == cw[5]
    assert 6 not in counter.per_helper and 1 in counter.per_helper


def test_random_normalized_targets_vary():
    rng = random.Random(2)
    targets = set()
    for _ in range(30):
        nf, params = random_normalized_scheme(rng)
        targets.add(params["target"])
        # NormalForm derives the support set; the oracle reads the constant
        # rows m+1..ell of a helper's repair matrix
        fixed = repair_matrix(nf.scheme, 1 + nf.scheme.target % nf.scheme.code.n)[nf.m:]
        want = tuple(s for s in range(1, nf.scheme.ell + 1) if not any(row[s - 1] for row in fixed))
        assert NormalForm(nf.scheme, nf.m).support_set == nf.support_set == want
        cw = random_codeword(nf.scheme.code, rng.getrandbits(16))
        value, _ = repair_node(nf.scheme, cw, AccessCounter())
        assert value == cw[nf.scheme.target - 1]
    assert len(targets) > 3


def test_invalid_schemes():
    t = field_create(2, 1, 4)
    bp = dual_basis([9, 15, 1, 5], t)
    code = RSCode(Subspace.full_field(t), 13)
    with pytest.raises(InvalidScheme):
        RepairScheme(code, bp, [[1, 0, 0]] * 3)  # wrong count
    with pytest.raises(InvalidScheme):
        RepairScheme(code, bp, [[0, 0, 0, 1]] + [[g] for g in bp.gamma[1:]])  # degree r
    with pytest.raises(InvalidScheme):
        RepairScheme(code, bp, [[1], [1], [2], [4]])  # constants do not span
    g = bp.gamma
    with pytest.raises(InvalidScheme):  # g_1 and g_2 agree at alpha = 0 (node 1)
        RepairScheme(code, bp, [[g[0], 1], [g[0], 2], [g[2]], [g[3]]], target=1)
    with pytest.raises(InvalidScheme):
        RepairScheme(code, bp, [[g] for g in bp.gamma], target=17)


def test_w_hat_block(gf16):
    scheme, _ = _toy_scheme(7)
    nf = normalize(scheme)
    for i in (2, 3, 11):
        rows = repair_matrix(nf.scheme, i)
        block = w_hat(nf, i)
        assert len(block) == nf.m
        for j in range(nf.m):
            assert block[j] == tuple(rows[j][s - 1] for s in nf.support_set)


def test_save_load_roundtrip(tmp_path):
    scheme, _ = _toy_scheme(15)
    nf = normalize(scheme)
    path = tmp_path / "scheme.json"
    save_scheme(nf.scheme, str(path))
    loaded = load_scheme(str(path))
    assert loaded.polys == nf.scheme.polys
    assert loaded.target == nf.scheme.target
    assert loaded.basis.beta == nf.scheme.basis.beta
    assert loaded.code.points == nf.scheme.code.points
    assert loaded.normal_form is not None
    assert loaded.normal_form.m == nf.m and loaded.normal_form.support_set == nf.support_set
    a, b = metrics_direct(scheme), metrics_direct(loaded)
    assert (a.io_cost, a.bandwidth) == (b.io_cost, b.bandwidth)


def test_load_scheme_enumerates_once(tmp_path, monkeypatch):
    scheme, _ = _toy_scheme(15)
    path = tmp_path / "scheme.json"
    save_scheme(scheme, str(path))
    calls = []
    original = Subspace.enumerate
    monkeypatch.setattr(Subspace, "enumerate", lambda self: calls.append(1) or original(self))
    assert load_scheme(str(path)).code.n == scheme.code.n
    assert len(calls) == 1


def test_load_rejects_corrupt_support(tmp_path):
    import json

    scheme, _ = _toy_scheme(15)
    nf = normalize(scheme)
    path = tmp_path / "scheme.json"
    save_scheme(nf.scheme, str(path))
    doc = json.loads(path.read_text())
    doc["normal_form"]["support_set"] = [1, 2]
    path.write_text(json.dumps(doc))
    with pytest.raises(InvalidScheme):
        load_scheme(str(path))


def _horner_rows(scheme, polys):
    code = scheme.code
    return [[code.eval_poly(g, a) for g in polys] for a in code.points]


def _concat(blocks):
    """node_values' blocks of columns, concatenated into one row per node."""
    return [list(row) for columns in blocks for row in zip(*columns)]


def _walk(scheme, polys, monkeypatch):
    """node_values over polys as rows, with the number of points the block
    Horner evaluated."""
    calls = []
    horner = RSCode.eval_block
    monkeypatch.setattr(RSCode, "eval_block", lambda self, c, xs: calls.append(len(xs)) or horner(self, c, xs))
    got = _concat(node_values(scheme, polys))
    monkeypatch.undo()
    return got, sum(calls)


def test_node_values_affine_walk_matches_horner(monkeypatch):
    schemes = [construction1(ell)[1] for ell in (4, 8, 10)]
    for params in ((2, 6, 4, 0, 3, 2), (2, 6, 5, 1, 3, 3), (3, 6, 4, 0, 3, 2),
                   (3, 6, 5, 1, 3, 4), (4, 6, 4, 0, 3, 2), (4, 4, 3, 1, 2, 5)):
        schemes.append(construction2(*params)[2])
    for scheme in schemes:
        got, calls = _walk(scheme, scheme.polys, monkeypatch)
        assert got == _horner_rows(scheme, scheme.polys)
        # the walk evaluates each polynomial once per B-basis element of A
        assert calls == scheme.code.A.dim * len(scheme.polys)
        # g(x) = x walks A itself, in node order
        assert _concat(node_values(scheme, [(0, 1)])) == [[a] for a in scheme.code.points]


def test_node_values_random_schemes_match_horner(monkeypatch):
    rng = random.Random(5)
    fallback = []
    for _ in range(40):
        nf, _ = random_normalized_scheme(rng)
        scheme = nf.scheme
        for polys in (scheme.polys, scheme.polys[: nf.m]):
            got, calls = _walk(scheme, polys, monkeypatch)
            assert got == _horner_rows(scheme, polys)
            fallback.append(calls == scheme.code.n * len(polys))
    assert any(fallback) and not all(fallback)


def test_node_values_blocks_cover_every_node(monkeypatch):
    # 2^12 and 3^7 nodes: several blocks of at most BLOCK nodes, one column
    # per polynomial, in node order, from the affine walk and from the block
    # Horner (x^3 at q = 2 and x^2 at q = 3 are not B-affine)
    for scheme in (construction1(12)[1], construction2(3, 8, 7, 0, 2, 2)[2]):
        rng, t = random.Random(scheme.code.n), scheme.tower
        affine = [g for g in scheme.polys if any(g[1:])]
        other = [[rng.randrange(t.size) for _ in range(4)] for _ in range(2)]
        for polys, points in ((affine, scheme.code.A.dim * len(affine)), (other, scheme.code.n * len(other))):
            sizes = [{len(col) for col in columns} for columns in node_values(scheme, polys)]
            assert len(sizes) > 1 and all(len(s) == 1 and s.pop() <= BLOCK for s in sizes)
            assert _walk(scheme, polys, monkeypatch) == (_horner_rows(scheme, polys), points)
    assert list(node_values(scheme, [])) == []


def test_node_values_q4_square_takes_horner(monkeypatch):
    # x^2 is a power of p = 2 but not of q = 4, so g is not B-affine
    t = field_create(2, 2, 3)
    bp = dual_basis(_random_independent(random.Random(3), t, 3), t)
    code = RSCode(Subspace.full_field(t), t.size - 3)
    scheme = RepairScheme(code, bp, [[bp.gamma[0], 7, 1], [bp.gamma[1]], [bp.gamma[2]]])
    got, calls = _walk(scheme, scheme.polys, monkeypatch)
    assert got == _horner_rows(scheme, scheme.polys)
    assert calls == code.n * len(scheme.polys)
    direct = metrics_direct(scheme)
    nf = normalize(scheme)
    for rep in (metrics_weight(nf), metrics_expsum(nf)):
        assert (rep.io_cost, rep.bandwidth, rep.per_node) == (
            direct.io_cost, direct.bandwidth, direct.per_node)
    # the expsum ranks come from trace functionals here too
    monkeypatch.setattr(scheme_mod, "_rank_profile", lambda s: pytest.fail("expsum used the rank profile"))
    assert metrics_expsum(nf).per_node == direct.per_node


def test_repair_with_a_constant_first():
    _, scheme = construction1(6)
    ell = scheme.ell
    perm = [ell - 1] + list(range(ell - 1))  # move the last (constant) g_j first
    moved = transform(scheme, [[int(j == perm[i]) for j in range(ell)] for i in range(ell)])
    assert not any(moved.polys[0][1:]) and any(moved.polys[1][1:])
    rep = metrics_direct(moved)
    for seed in range(3):
        cw = random_codeword(moved.code, seed)
        value, counter = repair_node(moved, cw, AccessCounter())
        assert value == cw[moved.target - 1]
        assert (counter.total_accessed, counter.total_transmitted) == (rep.io_cost, rep.bandwidth)


def _rank_profile_cases():
    rng = random.Random(17)
    schemes = [random_normalized_scheme(rng, q=q)[0].scheme for q in (2, 3) for _ in range(6)]
    schemes += [construction2(4, 6, 4, 0, 3, 2)[2], construction2(9, 4, 3, 0, 2, 2)[2]]
    t = field_create(2, 1, 4)
    bp = dual_basis([9, 15, 1, 5], t)
    code = RSCode(Subspace.full_field(t), 14)
    # no constant polynomial: m = ell
    schemes.append(RepairScheme(code, bp, [[b, 1 + j] for j, b in enumerate(bp.beta)]))
    # g_1(alpha) = beta_0 + alpha equals the constant beta_2 at alpha = beta_0 + beta_2
    b = bp.beta
    schemes.append(RepairScheme(code, bp, [[b[0], 1], [b[1], 1], [b[2]], [b[3]]]))
    return schemes


def test_rank_profile_matches_full_rank(monkeypatch):
    calls = []
    rref = linalg.rref
    for scheme in _rank_profile_cases():
        t = scheme.tower
        monkeypatch.setattr(linalg, "rref", lambda *a: calls.append(1) or rref(*a))
        ranks = _rank_profile(scheme)
        monkeypatch.undo()
        helpers = [i for i in range(1, scheme.code.n + 1) if i != scheme.target]
        want = [linalg.rank(t, [list(r) for r in repair_matrix(scheme, i)]) for i in helpers]
        assert ranks == want
    assert not calls
    # the last scheme's rank drops where the varying value meets a constant
    b = scheme.basis.beta
    node = scheme.code.points.index(t.add(b[0], b[2])) + 1
    assert dict(zip(helpers, ranks))[node] == 3 and max(ranks) == 4


def test_repair_singular_target_raises(monkeypatch):
    # every scheme spans F at its target, so a singular W_{i*} is an arithmetic bug
    _, scheme = construction1(4)
    calls = []

    def singular(*args):
        calls.append(1)
        raise SingularMatrix("patched")

    monkeypatch.setattr(linalg, "inverse", singular)
    for seed in range(2):
        with pytest.raises(CrossCheckMismatch):
            repair_node(scheme, random_codeword(scheme.code, seed))
    assert len(calls) == 2 and scheme._plan is None  # no plan was cached
    monkeypatch.undo()
    cw = random_codeword(scheme.code, 2)
    assert repair_node(scheme, cw)[0] == cw[scheme.target - 1]


@pytest.mark.parametrize("kind, params", [
    ("c1", (4,)), ("c1", (8,)),
    ("c2", (2, 6, 4, 0, 3, 2)), ("c2", (3, 6, 4, 0, 3, 2)), ("c2", (4, 6, 4, 0, 3, 2)), ("c2", (9, 4, 3, 0, 2, 2)),
])
def test_repair_sends_rank_symbols(kind, params, monkeypatch):
    # one packed path at every q: no repair reads a tuple table, and once
    # planned none takes a dot product over B
    scheme = construction1(*params)[1] if kind == "c1" else construction2(*params)[2]
    rep = metrics_direct(scheme)
    code = scheme.code
    fail = lambda *a: pytest.fail("a repair read a tuple table or took a dot product")
    monkeypatch.setattr(BasisPair, "phi_table", fail)
    monkeypatch.setattr(BasisPair, "phi_hat_table", fail)
    repairs = []
    for seed in range(3):
        cw = random_codeword(code, seed)
        repairs.append((cw, *repair_node(scheme, cw, AccessCounter())))
        monkeypatch.setattr(linalg, "dot", fail)
    monkeypatch.undo()
    assert scheme.basis._phi is None and scheme.basis._phi_hat is None
    for cw, value, counter in repairs:
        assert value == cw[scheme.target - 1]
        assert sorted(counter.per_helper) == [node for node, _, _ in rep.per_node]
        for node, nz, rank in rep.per_node:
            positions, sent = counter.per_helper[node]
            assert (len(positions), sent) == (nz, rank)
            rows = repair_matrix(scheme, node)
            assert positions == tuple(s + 1 for s in range(scheme.ell) if any(r[s] for r in rows))


def test_repair_plan_built_once(monkeypatch):
    schemes = construction1(6)[1], construction2(3, 4, 3, 0, 2, 2)[2]
    walks, rrefs = [], []
    walk, rref = scheme_mod.node_values, linalg.rref
    monkeypatch.setattr(scheme_mod, "node_values", lambda *a: walks.append(1) or walk(*a))
    monkeypatch.setattr(linalg, "rref", lambda *a: rrefs.append(1) or rref(*a))
    monkeypatch.setattr(scheme_mod, "_rank_profile", lambda s: pytest.fail("rank profile recomputed"))
    monkeypatch.setattr(linalg, "split", lambda *a: pytest.fail("the plan split rows"))
    for scheme in schemes:
        walks.clear()
        rrefs.clear()
        for seed in range(5):
            cw = random_codeword(scheme.code, seed)
            assert repair_node(scheme, cw)[0] == cw[scheme.target - 1]
        assert len(walks) == len(rrefs) == 1  # one node walk, one inverse (the target's dual basis)
        # the plan reads packed tables only, at every q
        assert scheme.basis._phi is None and scheme.basis._phi_hat is None


def _corrupt_echelon(monkeypatch, mutate):
    """Corrupt the basis and coefficients of the first helper with a
    nonzero value."""
    b_echelon, done = linalg.b_echelon, []

    def mutated(*args):
        eliminate = b_echelon(*args)

        def reduced(values):
            basis, pairs = eliminate(values)
            if done or not basis:
                return basis, pairs
            done.append(1)
            return mutate(basis, pairs)

        return reduced

    monkeypatch.setattr(linalg, "b_echelon", mutated)


def _flip(p):
    """Add 1 to the first coefficient of the first nonzero value (B = GF(p))."""
    def mutate(basis, pairs):
        j = next(j for j, own in enumerate(pairs) if own)
        (s, c), *rest = pairs[j]
        return basis, [*pairs[:j], [(s, (c + 1) % p), *rest], *pairs[j + 1:]]
    return mutate


def _drop(basis, pairs):
    """Drop the last basis vector and the coefficients on it."""
    s = basis.popitem()[0]
    return basis, [[(r, c) for r, c in own if r != s] for own in pairs]


@pytest.mark.parametrize("q, mutate", [(2, _drop), (2, _flip(2)), (3, _drop), (3, _flip(3))],
                         ids=["bits-dropped-row", "bits-flipped-coefficient", "dropped-row", "flipped-coefficient"])
def test_broken_repair_plan_gives_wrong_value(monkeypatch, q, mutate):
    _corrupt_echelon(monkeypatch, mutate)
    scheme = construction1(4)[1] if q == 2 else construction2(3, 4, 3, 0, 2, 2)[2]
    code = scheme.code
    cws = [random_codeword(code, seed) for seed in range(8)]
    assert any(repair_node(scheme, cw)[0] != cw[scheme.target - 1] for cw in cws)


@pytest.mark.parametrize("kind, params", [
    ("c1", (4,)), ("c2", (3, 4, 3, 0, 2, 2)), ("c2", (4, 4, 3, 0, 2, 2)), ("c2", (9, 4, 3, 0, 2, 2)),
])
def test_cleared_read_digit_gives_wrong_value(kind, params):
    # the first helper reads one digit fewer than its positions claim
    scheme = construction1(*params)[1] if kind == "c1" else construction2(*params)[2]
    code, t = scheme.code, scheme.tower
    cws = [random_codeword(code, seed) for seed in range(8)]
    assert all(repair_node(scheme, cw)[0] == cw[scheme.target - 1] for cw in cws)
    *tables, ((i, positions, _, *rest), *others) = scheme._plan
    cleared = sum(1 << s - 1 for s in positions[1:])
    select = linalg.digit_select(t.q, scheme.ell, cleared)
    scheme._plan = (*tables, [(i, positions, select, *rest), *others])
    assert any(repair_node(scheme, cw)[0] != cw[scheme.target - 1] for cw in cws)


def test_metrics_direct_resolves_constants_once(monkeypatch):
    for scheme in (construction2(3, 6, 4, 0, 3, 2)[2], construction2(9, 4, 3, 0, 2, 2)[2]):
        code, t = scheme.code, scheme.tower
        calls = []
        horner = RSCode.eval_block
        monkeypatch.setattr(RSCode, "eval_block", lambda self, c, xs: calls.append(len(xs)) or horner(self, c, xs))
        rep = metrics_direct(scheme)
        monkeypatch.undo()
        varying = sum(1 for g in scheme.polys if any(g[1:]))
        # each varying polynomial at every node (the target's row is dropped), no constant
        assert sum(calls) == code.n * varying
        want = []
        for i in range(1, code.n + 1):
            if i != scheme.target:
                rows = [list(r) for r in repair_matrix(scheme, i)]
                want.append((i, _nz_scan(rows), linalg.rank(t, rows)))
        assert rep.per_node == tuple(want)


def _tuple_reference(scheme):
    """(node, nz, rank) per helper from phi_hat_table rows, a column scan
    and linalg.rank."""
    code, t = scheme.code, scheme.tower
    table = scheme.basis.phi_hat_table()
    out = []
    for i, alpha in enumerate(code.points, 1):
        if i != scheme.target:
            rows = [list(table[code.eval_poly(g, alpha)]) for g in scheme.polys]
            out.append((i, _nz_scan(rows), linalg.rank(t, rows)))
    return tuple(out)


_PACKED_C2 = {
    3: [(3, 6, 4, 0, 3, 2), (3, 6, 5, 1, 3, 4), (3, 8, 6, 0, 2, 2)],
    5: [(5, 6, 4, 0, 3, 2), (5, 4, 3, 1, 2, 6)],
    7: [(7, 4, 3, 0, 2, 2), (7, 4, 2, 1, 2, 8)],
}


@pytest.mark.parametrize("q", sorted(_PACKED_C2))
def test_packed_routes_match_tuple_reference(q):
    """Digit-packed rows at odd prime q: direct and weight against tuples."""
    rng = random.Random(q)
    forms = [construction2(*params)[2].normal_form for params in _PACKED_C2[q]]
    forms += [random_normalized_scheme(rng, q=q, ell=rng.randint(2, 4))[0] for _ in range(12)]
    assert any(nf.t != nf.m for nf in forms) and any(nf.t == nf.m for nf in forms)
    for nf in forms:
        want = _tuple_reference(nf.scheme)
        assert metrics_direct(nf.scheme).per_node == want
        assert metrics_weight(nf).per_node == want


_PRIME_POWER_C2 = {
    4: [(4, 6, 4, 0, 3, 2), (4, 4, 3, 1, 2, 5), (4, 4, 3, 0, 2, 2)],
    8: [(8, 3, 2, 0, 1, 2), (8, 2, 2, 0, 1, 2)],
    9: [(9, 4, 3, 0, 2, 2), (9, 2, 2, 0, 1, 2)],
}


@pytest.mark.parametrize("q", sorted(_PRIME_POWER_C2))
def test_packed_routes_match_tuple_reference_at_prime_powers(q):
    """Digit-packed rows with their closure under B at q = p^a, a > 1: all
    three routes against tuples."""
    rng = random.Random(q)
    forms = [construction2(*params)[2].normal_form for params in _PRIME_POWER_C2[q]]
    forms += [random_normalized_scheme(rng, q=q, ell=rng.randint(2, 4 if q == 4 else 3))[0]
              for _ in range(8)]
    assert all(nf.scheme.tower.a > 1 for nf in forms)
    assert any(nf.t != nf.m for nf in forms) and any(nf.t == nf.m for nf in forms)
    for nf in forms:
        want = _tuple_reference(nf.scheme)
        assert metrics_direct(nf.scheme).per_node == want
        assert metrics_weight(nf).per_node == want
        assert metrics_expsum(nf).per_node == want


class _ExtraZero:
    """A tower whose spans hold one extra zero vector."""

    def __init__(self, tower):
        self.tower = tower

    def __getattr__(self, name):
        return getattr(self.tower, name)

    def span(self, *args):
        return [0, *self.tower.span(*args)]


@pytest.mark.parametrize("params", [(3, 6, 4, 0, 3, 2), (4, 6, 4, 0, 3, 2)])
def test_weight_route_checks_the_zero_count(monkeypatch, params):
    """One extra zero vector per walk leaves the weight sum divisible, but
    the vanishing count is then no power of q: packed (q = 3) and tuple
    (q = 4) rows alike."""
    nf = construction2(*params)[2].normal_form
    identity = scheme_mod.weight_identity
    monkeypatch.setattr(scheme_mod, "weight_identity", lambda tower, k: identity(_ExtraZero(tower), k))
    with pytest.raises(CrossCheckMismatch, match=f"not a power of q = {params[0]}"):
        metrics_weight(nf)


def _greedy_extension(t, urows):
    """The unit vectors e_idx that raise the B-rank, one rank per candidate."""
    ext = []
    for idx in range(t.ell):
        e = [int(j == idx) for j in range(t.ell)]
        if linalg.rank(t, urows + ext + [e]) > len(urows) + len(ext):
            ext.append(e)
    return ext


def test_normalize_extension_matches_rank_greedy():
    rng = random.Random(23)
    schemes = [random_normalized_scheme(rng, q=q)[0].scheme for q in (2, 3, 2, 3, 2, 3)]
    schemes += [construction2(4, 6, 4, 0, 3, 2)[2], construction2(9, 4, 3, 0, 2, 2)[2]] * 2  # a > 1
    for scheme in schemes:
        t = scheme.tower
        ell = t.ell
        bset = t.subfield_elements()
        while True:  # a random invertible M mixes the constants into every row
            M = [[rng.choice(bset) for _ in range(ell)] for _ in range(ell)]
            if linalg.is_invertible(t, M):
                break
        mixed = transform(scheme, M)
        got = normalize(mixed)
        urows = got.transform[got.m:]
        assert got.transform[: got.m] == _greedy_extension(t, urows)
        # by definition: constant rows, m = B-rank of the nonconstant parts,
        # unit vectors in ascending index order first
        for g in linalg.mat_mul(t, urows, mixed.polys):
            assert not any(g[1:])
        varying = [[c for g_c in g[1:] for c in scheme.basis.vectorize(g_c)] for g in mixed.polys]
        assert got.m == linalg.rank(t, varying) > 0
        units = [row.index(1) for row in got.transform[: got.m]]
        assert units == sorted(set(units))
        assert got.transform[: got.m] == [[int(c == j) for c in range(ell)] for j in units]
