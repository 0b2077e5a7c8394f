"""Linear repair schemes: repair matrices, metrics, normal forms, repair.

A scheme for node i* is a list of ell polynomials g_1..g_ell of degree < r
(dual codewords in disguise) whose values at the target are independent over
B.  Helper i hands over the subsymbols of its coordinate vector selected by
the nonzero columns of

    W_i[j][s] = Tr(g_j(alpha_i) beta_s),

and transmits rank(W_i) combinations of them, so

    io_cost  = sum over helpers of nz(W_i)      (nonzero columns)
    bandwidth = sum over helpers of rank(W_i).

An (m, t)-normalized scheme has g_j constant for j > m, no constant
combination among the first m, and the constants' supports under phi_hat
covering all but t coordinates; NormalForm derives the support_set, the t
uncovered column indices, from (scheme, m).  Metrics can then be read off
the m x t upper blocks W_hat_i.

Each metric route gives (node, nz, rank) per helper, and MetricsReport
keeps them as three columns and sums them; cross_check names the first
node where two reports differ.
The direct and weight routes work on blocks of at most gf.BLOCK nodes, one
column of values per polynomial (node_values, RSCode.eval_block), and read
rows of W_i as digit-packed ints (BasisPair.phi_hat_bits), joined by the
rows that close their GF(p)-span under B (closure_polys), so both work over
GF(p) at every q.  Both rank or walk each distinct key once, through an
exact memo filled per block: the direct route keys a helper by its varying
rows reduced modulo the constant rows' echelon basis (linalg.reduction),
the weight route by its block W_hat_i.
Elimination lives in linalg: the direct route ranks the reduced rows by
linalg.closure_rank, normalize splits by linalg.split, and the repair plan
takes each helper's basis over B from linalg.b_echelon, at every q.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from array import array
from dataclasses import dataclass, field

from . import linalg
from .basis import BasisPair, dual_basis
from .errors import CrossCheckMismatch, InvalidScheme, ParamViolation, SingularMatrix
from .gf import FieldTower, field_create, span_blocks
from .rs import RSCode
from .subspace import Subspace, b_rank


class RepairScheme:
    def __init__(self, code: RSCode, basis: BasisPair, polys, target: int = 1):
        self.code = code
        self.basis = basis
        self.target = int(target)
        self.normal_form = None
        self._plan = None  # built by the first repair_node call
        t = code.tower
        r = code.r
        padded = []
        for p in polys:
            p = list(p)
            if len(p) > r:
                if any(p[r:]):
                    raise InvalidScheme(
                        f"polynomial degree {len(p) - 1} exceeds r - 1 = {r - 1}; "
                        "not a dual codeword"
                    )
                p = p[:r]
            padded.append(tuple(p + [0] * (r - len(p))))
        self.polys = tuple(padded)
        if len(self.polys) != t.ell:
            raise InvalidScheme(f"need ell = {t.ell} polynomials, got {len(self.polys)}")
        if not 1 <= self.target <= code.n:
            raise InvalidScheme(f"target {self.target} outside [1, {code.n}]")
        evals = [code.eval_poly(p, self.target_point) for p in self.polys]
        if b_rank(t, evals) != t.ell:
            raise InvalidScheme(
                "values g_j(alpha_target) do not span F over B; "
                "the scheme cannot determine the lost symbol"
            )

    @property
    def tower(self) -> FieldTower:
        return self.code.tower

    @property
    def ell(self) -> int:
        return self.code.tower.ell

    @property
    def target_point(self) -> int:
        return self.code.points[self.target - 1]


class MetricsReport:
    """One route's (node, nz, rank) per helper, and their sums.

    rows, any iterable of such triples in node order (the routes pass a
    generator), is read once into three array('q') columns: nodes, nz and
    ranks.  io_cost and bandwidth are the sums of the last two; per_node
    builds the tuple of triples from the columns on demand.
    """

    __slots__ = ("method", "nodes", "nz", "ranks", "io_cost", "bandwidth")

    def __init__(self, method: str, rows):
        self.method = method
        self.nodes, self.nz, self.ranks = array("q"), array("q"), array("q")
        add_node, add_nz, add_rank = self.nodes.append, self.nz.append, self.ranks.append
        for node, nz, rank in rows:
            add_node(node)
            add_nz(nz)
            add_rank(rank)
        self._total()

    @classmethod
    def from_columns(cls, method: str, nodes: array, nz: array, ranks: array) -> "MetricsReport":
        """The report of three equally long array('q') columns, kept as they
        are."""
        report = cls.__new__(cls)
        report.method, report.nodes, report.nz, report.ranks = method, nodes, nz, ranks
        if not len(nodes) == len(nz) == len(ranks):
            raise CrossCheckMismatch(f"{method}: columns of unequal length")
        report._total()
        return report

    def _total(self) -> None:
        self.io_cost, self.bandwidth = sum(self.nz), sum(self.ranks)
        if self.bandwidth > self.io_cost:
            raise CrossCheckMismatch(f"{self.method}: bandwidth exceeds io cost")

    @property
    def per_node(self) -> tuple:
        """(node, nz, rank) for each helper, in node order."""
        return tuple(zip(self.nodes, self.nz, self.ranks))


def cross_check(reference: MetricsReport, *others: MetricsReport) -> MetricsReport:
    """reference, if every other report has the same columns; else raise
    CrossCheckMismatch naming the first differing (node, nz, rank) entries,
    "nothing" past the end of a shorter report."""
    for other in others:
        if (other.nodes, other.nz, other.ranks) != (reference.nodes, reference.nz, reference.ranks):
            pairs = itertools.zip_longest(reference.per_node, other.per_node, fillvalue="nothing")
            a, b = next((a, b) for a, b in pairs if a != b)
            raise CrossCheckMismatch(f"{reference.method} gives {a} but {other.method} gives {b}")
    return reference


@dataclass
class NormalForm:
    """(m, t)-normalized scheme together with the transform that produced it."""

    scheme: RepairScheme
    m: int
    transform: list = None  # defaults to the identity
    t: int = field(init=False)
    support_set: tuple[int, ...] = field(init=False)  # 1-based columns missed by every constant

    def __post_init__(self):
        scheme, ell = self.scheme, self.scheme.ell
        if not 0 <= self.m <= ell:
            raise InvalidScheme(f"normal form needs 0 <= m <= ell, got m = {self.m}")
        covered = set()
        for j in range(self.m, ell):
            if any(scheme.polys[j][1:]):
                raise InvalidScheme(f"polynomial {j + 1} must be constant in normal form")
            w = scheme.basis.vectorize_dual(scheme.polys[j][0])
            covered.update(s for s, c in enumerate(w, 1) if c)
        self.support_set = tuple(s for s in range(1, ell + 1) if s not in covered)
        self.t = len(self.support_set)
        if self.t > self.m:
            # ell - m independent constants cover at least ell - m columns
            raise CrossCheckMismatch(f"normal form has t = {self.t} > m = {self.m}")
        self.transform = self.transform or linalg.identity(ell)


@dataclass
class AccessCounter:
    """Per-helper tally of subsymbols read and units transmitted."""

    per_helper: dict = field(default_factory=dict)

    def record(self, node: int, positions, transmitted: int) -> None:
        self.per_helper[node] = (tuple(positions), int(transmitted))

    @property
    def total_accessed(self) -> int:
        return sum(len(p) for p, _ in self.per_helper.values())

    @property
    def total_transmitted(self) -> int:
        return sum(tr for _, tr in self.per_helper.values())

    def report(self, method: str) -> MetricsReport:
        return MetricsReport(method, ((i, len(p), tr) for i, (p, tr) in self.per_helper.items()))


# ---------------------------------------------------------------------------
# matrices and direct metrics


def repair_matrix(scheme: RepairScheme, i: int) -> list[tuple[int, ...]]:
    """W_i: row j is phi_hat(g_j(alpha_i)), an ell x ell matrix over B."""
    code = scheme.code
    alpha = code.points[i - 1]
    table = scheme.basis.phi_hat_table()
    return [table[code.eval_poly(p, alpha)] for p in scheme.polys]


def affine_parts(scheme: RepairScheme, polys):
    """(constants, images) when every g in polys is a constant plus a
    B-linear L, i.e. all nonzero coefficients sit at exponent 0 or a power
    of q: constants = [g[0] for g in polys] and images[k] = [L(b_k) for g in
    polys], b_k = reversed(A.b_basis())[k] weighting digit k of a node
    index.  None for other polynomials."""
    code, t = scheme.code, scheme.tower
    qpows = {t.q**k for k in range(code.r.bit_length())}
    if any(c for g in polys for e, c in enumerate(g) if e and e not in qpows):
        return None
    basis = list(reversed(code.A.b_basis()))
    values = [code.eval_block([0, *g[1:]], basis) for g in polys]
    return [g[0] for g in polys], [[v[k] for v in values] for k in range(len(basis))]


def node_values(scheme: RepairScheme, polys):
    """Yield the values of polys over each block of at most gf.BLOCK nodes,
    in node order: one column [g(alpha_i) for i in the block] per g, and no
    block at all for no polys.

    For B-affine polynomials (affine_parts), each column is span-walked
    over A in Subspace.enumerate order from the multiples of L(b) per basis
    element b (span_blocks), one field addition per node.  Other
    polynomials go through the block Horner (RSCode.eval_block).
    """
    code, t = scheme.code, scheme.tower
    parts = affine_parts(scheme, polys)
    if parts is None:
        for xs in code.point_blocks():
            yield [code.eval_block(g, xs) for g in polys]
        return
    consts, images = parts
    units = t.subfield_elements()[1:]
    walks = [span_blocks([[t.mul(c, lb[j]) for c in units] for lb in images], t.add, c0)  # lowest digit first
             for j, c0 in enumerate(consts)]
    yield from map(list, zip(*walks))


def node_tuples(blocks, n: int):
    """Per block of columns, the list of each node's entries (zip(*columns));
    one list of n empty tuples when there is no block, as node_values gives
    for no polys."""
    empty = True
    for columns in blocks:
        empty = False
        yield list(zip(*columns))
    if empty:
        yield [()] * n


def node_rows(scheme: RepairScheme, polys):
    """The tuple (g(alpha_i) for g in polys) for each node i, in node order:
    node_values read node by node."""
    return itertools.chain.from_iterable(node_tuples(node_values(scheme, polys), scheme.code.n))


def _helpers(scheme: RepairScheme) -> array:
    """Every node but the target, in node order."""
    nodes = array("q", range(1, scheme.code.n + 1))
    del nodes[scheme.target - 1]
    return nodes


def _columns(scheme: RepairScheme, blocks) -> tuple[array, array]:
    """The nz and rank columns of blocks of (nz, ranks) over every node in
    node order, the target's entries dropped."""
    nz, ranks = array("q"), array("q")
    for block_nz, block_ranks in blocks:
        nz.extend(block_nz)
        ranks.extend(block_ranks)
    del nz[scheme.target - 1], ranks[scheme.target - 1]
    return nz, ranks


def closure_polys(scheme: RepairScheme, polys) -> list:
    """c g for c in subfield_gfp_basis(q), 1 first, and g in polys: phi_hat
    is B-linear, so the packed rows of their values span the B-span of the
    rows of polys over GF(p), and the first len(polys) hold every column."""
    t = scheme.tower
    return [[t.mul(c, x) for x in g] for c in t.subfield_gfp_basis(t.q) for g in polys]


def metrics_direct(scheme: RepairScheme) -> MetricsReport:
    """Count nonzero columns and ranks of every W_i, no shortcuts, over
    blocks of nodes: the varying rows from block Horner values
    (RSCode.eval_block), the constant rows resolved once.  Rows are
    digit-packed (BasisPair.phi_hat_bits), v's joined by those of c v, c
    past 1 in subfield_gfp_basis(q): nz is the popcount of the OR of their
    base-q digit supports.  The rank is the constant rows' B-rank plus
    linalg.closure_rank of the varying rows reduced modulo the constants'
    echelon basis (linalg.reduction).  That reduced tuple fixes the rank,
    so it keys an exact memo and each distinct reduced matrix is ranked
    once; it is still the full ell x ell rank."""
    code, t = scheme.code, scheme.tower
    table, mul = scheme.basis.phi_hat_bits(), t.mul
    scales = t.subfield_gfp_basis(t.q)[1:]
    varying = [p for p in scheme.polys if any(p[1:])]
    fixed = [table[p[0]] for p in closure_polys(scheme, scheme.polys) if not any(p[1:])]
    supports = linalg.digit_supports(t.q, t.ell)
    fixed_cols = functools.reduce(operator.or_, supports(fixed), 0)
    fixed_rank, reduce = linalg.closure_rank(fixed, t), linalg.reduction(linalg.echelon(fixed, t), t)
    ranks = {}  # reduced varying rows -> rank

    def per_block(xs):
        vals = [code.eval_block(g, xs) for g in varying]
        rows = [list(map(table.__getitem__, v)) for v in vals]
        cols = [fixed_cols] * len(xs)
        for r in rows:
            cols = list(map(operator.or_, cols, supports(r)))
        rows += [[table[mul(c, x)] for x in v] for c in scales for v in vals]
        keys = list(zip(*map(reduce, rows))) or [()] * len(xs)
        for key in set(keys) - ranks.keys():
            ranks[key] = fixed_rank + linalg.closure_rank(key, t)
        return map(int.bit_count, cols), map(ranks.__getitem__, keys)

    return MetricsReport.from_columns("direct", _helpers(scheme), *_columns(scheme, map(per_block, code.point_blocks())))


def weight_identity(tower: FieldTower, k: int):
    """rows -> (nz(G), rank(G)) for k x w matrices G over B, from one span
    walk of the q^k vectors uG, u in B^k:

        nz(G)   = sum of wt(uG) / (q^(k-1) (q-1))
        rank(G) = k - log_q #{u : uG = 0}.

    G comes as a k packed rows (base-q digit s = column s) that span its
    B-span over GF(p) (closure_polys), walked over GF(p).  An inexact
    division or a zero count that is no power of q is an arithmetic bug.
    """
    q = tower.q
    supports = linalg.digit_supports(q, tower.ell)
    denom = q ** (k - 1) * (q - 1) if k else 1
    log_q = {q**e: e for e in range(k + 1)}

    def walk(rows):
        span = supports(tower.span(rows, tower.p))
        total, zeros = sum(map(int.bit_count, span)), span.count(0)
        if total % denom:
            raise CrossCheckMismatch("weight identity sum not divisible; arithmetic bug")
        if zeros not in log_q:
            raise CrossCheckMismatch(f"{zeros} combinations vanish, not a power of q = {q}; arithmetic bug")
        return total // denom, k - log_q[zeros]

    return walk


def _rank_profile(scheme: RepairScheme) -> list[int]:
    """rank(W_i) for every helper, in node order.  phi_hat is a B-linear
    bijection, so it is the B-rank of the values g_j(alpha_i): the
    constants' values and their closure are reduced once, and each helper
    ranks only the closure of its varying values on top (closure_polys,
    linalg.closure_rank)."""
    t = scheme.tower
    fixed = linalg.echelon([p[0] for p in closure_polys(scheme, scheme.polys) if not any(p[1:])], t)
    varying = closure_polys(scheme, [g for g in scheme.polys if any(g[1:])])
    return [linalg.closure_rank(vals, t, basis=fixed)
            for i, vals in enumerate(node_rows(scheme, varying), 1) if i != scheme.target]


def metrics_weight(nf: NormalForm) -> MetricsReport:
    """Metrics from the weight identity on the m x t blocks W_hat_i.

    One span walk per distinct block gives both: io = (ell - t) +
    nz(W_hat_i), and when t = m, rank = (ell - m) + rank(W_hat_i)
    (weight_identity); else the ranks come from _rank_profile.  A block is
    the packed rows of the closure_polys' values cut to the support columns
    (linalg.digit_select), read column by column over each block of nodes
    of node_values; the walks fill the misses of each block's distinct
    W_hat blocks.
    """
    scheme = nf.scheme
    t = scheme.tower
    ell = scheme.ell
    ranks = array("q", _rank_profile(scheme)) if nf.t != nf.m else None
    row = scheme.basis.phi_hat_bits().__getitem__
    block_of = linalg.digit_select(t.q, ell, sum(1 << s - 1 for s in nf.support_set))
    walk = weight_identity(t, nf.m)
    walked = {}  # block -> (io, rank)

    def per_block(keys):  # the W_hat blocks of a block of nodes
        for block in set(keys) - walked.keys():
            nz, rk = walk(block)
            walked[block] = (ell - nf.t) + nz, (ell - nf.m) + rk
        return zip(*map(walked.__getitem__, keys))

    values = node_values(scheme, closure_polys(scheme, scheme.polys[: nf.m]))
    keys = node_tuples(([block_of(map(row, v)) for v in columns] for columns in values), scheme.code.n)
    nz, walked_ranks = _columns(scheme, map(per_block, keys))
    return MetricsReport.from_columns("weight_formula", _helpers(scheme), nz, walked_ranks if ranks is None else ranks)


def metrics_expsum(nf: NormalForm) -> MetricsReport:
    """Metrics by the paper's exponential sums (expsum.py): zero columns
    from the affine sets V_s, ranks from trace functionals on C^perp.  Both
    come as lists over the helpers in node order; the zero columns are read
    into a column before the ranks are computed."""
    from .expsum import per_node_ranks, per_node_zero_columns

    scheme = nf.scheme
    nz = array("q", map(scheme.ell.__sub__, per_node_zero_columns(nf)))
    return MetricsReport.from_columns("expsum", _helpers(scheme), nz, array("q", per_node_ranks(nf)))


# ---------------------------------------------------------------------------
# transforms and normalization


def transform(scheme: RepairScheme, M) -> RepairScheme:
    """Replace g by M g for an invertible matrix over B; metrics-preserving."""
    t = scheme.tower
    M = [list(r) for r in M]
    bset = set(t.subfield_elements())
    if any(e not in bset for r in M for e in r):
        raise ParamViolation("transform entries must lie in B")
    if not linalg.is_invertible(t, M):
        raise ParamViolation("transform matrix is singular over B")
    new_polys = linalg.mat_mul(t, M, scheme.polys)
    return RepairScheme(scheme.code, scheme.basis, new_polys, scheme.target)


def normalize(scheme: RepairScheme) -> NormalForm:
    """Bring a scheme to (m, t)-normal form.

    linalg.split splits the rows (phi(g_j[1]), ..., phi(g_j[r-1])) over B:
    the tails of the dependent rows span U = {u in B^ell : sum u_j g_j is
    constant}, whose RREF supplies the constant rows, and the independent
    rows j give the unit vectors e_j that extend it to an invertible
    transform (first independent index wins).
    """
    t, vec = scheme.tower, scheme.basis.vectorize
    sent, deps = linalg.split(t, [tuple(c for g_c in g[1:] for c in vec(g_c)) for g in scheme.polys])
    urows, _ = linalg.rref(t, list(deps.values()))
    M = [[int(c == j) for c in range(scheme.ell)] for j in sent] + urows
    new_scheme = transform(scheme, M)
    nf = NormalForm(new_scheme, len(sent), M)
    new_scheme.normal_form = nf
    return nf


# ---------------------------------------------------------------------------
# repair


def _repair_plan(scheme: RepairScheme):
    """The packed phi table, its inverse, the traces of the tower
    generator's powers below 2 (|F| - 1), and per helper (node, positions,
    their digit_select, logs of w_s, folds): w_s its basis over B of the
    values v_j = g_j(alpha_i) = sum c_js w_s (linalg.b_echelon), positions
    the digit supports of their rows, fold s = sum_j c_js h_j.  With gamma
    the trace-dual basis of the values at the target, h_j = -gamma_j and
    c_{i*} = sum_j h_j sum_i Tr(v_j c_i)."""
    t, ell = scheme.tower, scheme.ell
    target = [scheme.code.eval_poly(g, scheme.target_point) for g in scheme.polys]
    try:
        h = [t.neg(g) for g in dual_basis(target, t).gamma]
    except SingularMatrix:
        # every scheme is checked to span F at the target on construction
        raise CrossCheckMismatch("repair matrix at the target is singular") from None
    table, supports = scheme.basis.phi_hat_bits(), linalg.digit_supports(t.q, ell)
    selector = functools.cache(functools.partial(linalg.digit_select, t.q, ell))
    add, mul, eliminate = t.add, t.mul, linalg.b_echelon(t, table)
    helpers = []
    for i, vals in enumerate(node_rows(scheme, scheme.polys), 1):
        if i == scheme.target:
            continue
        basis, pairs = eliminate(vals)
        folds = dict.fromkeys(basis, 0)
        for hj, own in zip(h, pairs):
            for s, c in own:
                folds[s] = add(folds[s], hj if c == 1 else mul(c, hj))
        cols = functools.reduce(operator.or_, supports([table[w] for w in basis.values()]), 0)
        positions = tuple(s + 1 for s in range(ell) if cols >> s & 1)
        helpers.append((i, positions, selector(cols), [t.log[w] for w in basis.values()], list(folds.values())))
    # packed phi is the swapped pair's phi_hat; inverse maps a word back to its element
    phi, inverse = scheme.basis.swapped().phi_hat_bits(), [0] * t.size
    for x, word in enumerate(phi):
        inverse[word] = x
    return phi, inverse, list(map(t.trace_to_subfield, t.exp)) * 2, helpers


def repair_node(scheme: RepairScheme, codeword, counter: AccessCounter | None = None):
    """Recover the target symbol: helper i reads phi(c_i) at its positions,
    the element c' they hold, and sends Tr(w_s c'), which the target adds
    up times their folds.  Returns it and the counter (positions read,
    symbols sent)."""
    counter = counter or AccessCounter()
    if scheme._plan is None:
        scheme._plan = _repair_plan(scheme)
    phi, inverse, traces, helpers = scheme._plan
    t, acc = scheme.tower, 0
    log, mul, add = t.log, t.mul, t.add
    for i, positions, select, logs, folds in helpers:
        read = inverse[select((phi[codeword[i - 1]],))[0]]
        sent = [traces[lv + log[read]] for lv in logs] if read else [0] * len(logs)
        for y, f in zip(sent, folds):
            if y:
                acc = add(acc, f if y == 1 else mul(y, f))
        counter.record(i, positions, len(sent))
    return acc, counter


# ---------------------------------------------------------------------------
# scheme files


def save_scheme(scheme: RepairScheme, path: str) -> None:
    t = scheme.tower
    doc = {
        "field": t.to_json(),
        "basis": scheme.basis.to_json(),
        "evaluation_subspace": scheme.code.A.to_json(),
        "target": scheme.target,
        "polys": [[list(t.coords(c)) for c in p] for p in scheme.polys],
    }
    if scheme.normal_form is not None:
        nf = scheme.normal_form
        doc["normal_form"] = {"m": nf.m, "t": nf.t, "support_set": list(nf.support_set)}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


# entry -> its shape: a dict of shapes, or the list depth of an int array
_SHAPE = {
    "field": {"p": 0, "a": 0, "ell": 0, "modulus": 1},
    "basis": {"beta": 2, "gamma": 2},
    "evaluation_subspace": 2,
    "polys": 3,
    "target": 0,
    "normal_form": {"m": 0, "t": 0, "support_set": 1},
}
_REQUIRED = ("field", "basis", "evaluation_subspace", "polys")


def _fits(value, shape) -> bool:
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(k in value and _fits(value[k], s) for k, s in shape.items())
    if shape == 0:
        return isinstance(value, int) and not isinstance(value, bool)
    return isinstance(value, list) and all(_fits(v, shape - 1) for v in value)


def _check_document(doc) -> None:
    """Reject a scheme document of the wrong shape before reading it."""
    if not isinstance(doc, dict):
        raise InvalidScheme(f"scheme file must hold a JSON object, not {type(doc).__name__}")
    for key in _REQUIRED:
        if key not in doc:
            raise InvalidScheme(f"scheme file lacks the {key!r} entry")
    for key, shape in _SHAPE.items():
        # an empty normal_form entry means none, as load_scheme reads it
        if key in doc and not _fits(doc[key], shape) and (key != "normal_form" or doc[key]):
            raise InvalidScheme(f"scheme file entry {key!r} has the wrong type")


def load_scheme(path: str) -> RepairScheme:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise InvalidScheme("scheme file nests too deeply to read") from None
    _check_document(doc)
    fspec = doc["field"]
    t = field_create(fspec["p"], fspec["a"], fspec["ell"])
    mod = fspec["modulus"]
    vectors = [*doc["basis"]["beta"], *doc["basis"]["gamma"], *doc["evaluation_subspace"],
               *(c for g in doc["polys"] for c in g)]
    if len(mod) != t.degree + 1 or any(len(v) != t.degree for v in vectors) or not all(
            0 <= c < t.p for v in (mod, *vectors) for c in v):
        raise InvalidScheme(f"modulus and coordinate vectors need {t.degree + 1} and {t.degree} digits in [0, {t.p})")
    if list(t.modulus) != mod:
        t = FieldTower.from_json(fspec)
    bp = BasisPair.from_json(t, doc["basis"])
    A = Subspace.from_json(t, doc["evaluation_subspace"])
    polys = [[t.element(c) for c in p] for p in doc["polys"]]
    rr = len(polys[0]) if polys else 0
    if any(len(p) != rr for p in polys):
        raise InvalidScheme("polynomials must share the padded length r")
    if len(polys) != t.ell:  # no polynomial would give r = 0 in RSCode
        raise InvalidScheme(f"need ell = {t.ell} polynomials, got {len(polys)}")
    code = RSCode(A, t.q**A.dim - rr)
    scheme = RepairScheme(code, bp, polys, target=doc.get("target", 1))
    nfspec = doc.get("normal_form")
    if nfspec:
        nf = NormalForm(scheme, nfspec["m"])
        if (nfspec["t"], nfspec["support_set"]) != (nf.t, list(nf.support_set)):
            raise InvalidScheme("stored t or support set does not match the constants")
        scheme.normal_form = nf
    return scheme
