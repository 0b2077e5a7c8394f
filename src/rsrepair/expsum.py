"""Exact additive character sums, and the expsum metric route.

chi(x) = zeta_p ** absolute_trace(x) takes values among the p-th roots of
unity, so any sum of chi values is stored as an integer count per root.
Everything stays in integer arithmetic; floats appear only when a sum is
compared against an analytic bound.

The expsum route sums over the evaluation set A first.  For j <= m,
g_j = c_j + L_j with L_j B-linear (scheme.affine_parts); b_1..b_d =
reversed(A.b_basis()) weight the coordinates of a point of A; per support
column s, M_s[j][k] = Tr_{F/B}(beta_s L_j(b_k)) and a_s[j] =
Tr_{F/B}(beta_s c_j).  Column s of helper alpha = sum x_k b_k is zero iff
M_s x = -a_s, and the sum of chi(beta_s g_u(alpha)) over A is
q^d chi(beta_s c_u) if u M_s = 0, else 0.  So all nodes hold

    q^(d-m) * sum over s, and u in B^m with u M_s = 0, of chi(beta_s c_u)

zero columns (one CharSum).  Per node: each V_s = {x in B^d : M_s x =
-a_s} is a particular solution plus the span of a kernel (one rref),
mapped to its points sum x_k b_k and spanned by FieldTower.span; one
F-sized tally counts the V_s holding each point, read out in code.points
order.  The |V_s| must add up to the closed form, and the target (whose
literal tally is taken too) lies in none; io_cost_expsum is (n - 1) ell
minus the helpers' counts.
Ranks: theta_1..theta_m, a B-basis of C^perp = {theta : Tr(theta c_j) = 0 for j > m}, map
F / span(constants) onto B^m, so rank(W_i) = (ell - m) + rank(T_i),
T_i[j][k] = Tr_{F/B}(theta_k g_j(alpha_i)), affine in alpha and span-walked
over A in node order as digit-packed rows over GF(p), at every q, in blocks
of nodes, and ranked once per distinct T_i.  Polynomials that are not
B-affine take their values from scheme.node_values and are tallied node by
node.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator

from . import linalg
from .errors import CrossCheckMismatch, ParamViolation
from .gf import FieldTower, span_blocks
from .scheme import affine_parts, closure_polys, node_rows, node_tuples, node_values
from .subspace import Subspace


class CharSum:
    """Sum of p-th roots of unity kept as exact counts.

    counts[j] is the number of terms equal to zeta_p^j.  The sum is a
    rational integer exactly when counts[1] = ... = counts[p-1], in which
    case its value is counts[0] - counts[1] (the nonzero roots add to -1).
    """

    __slots__ = ("p", "counts")

    def __init__(self, p: int, counts=None):
        self.p = p
        self.counts = [0] * p if counts is None else list(counts)
        if len(self.counts) != p:
            raise ParamViolation("need one count per residue")

    def tally(self, residue: int, mult: int = 1) -> None:
        self.counts[residue % self.p] += mult

    def is_rational_integer(self) -> bool:
        return len(set(self.counts[1:])) <= 1

    def as_integer(self) -> int:
        """The sum's value; CrossCheckMismatch if it does not collapse, as
        every caller sums over a set where it must."""
        if not self.is_rational_integer():
            raise CrossCheckMismatch(f"counts {self.counts} do not collapse to an integer")
        return self.counts[0] - (self.counts[1] if self.p > 1 else 0)

    def complex_value(self) -> complex:
        return sum(
            c * cmath.exp(2j * math.pi * j / self.p) for j, c in enumerate(self.counts)
        )

    def __repr__(self):
        return f"CharSum(p={self.p}, counts={self.counts})"


def char_sum(values, tower: FieldTower) -> CharSum:
    """Tally chi over an iterable of field elements."""
    cs = CharSum(tower.p)
    tr = tower.absolute_trace
    for v in values:
        cs.tally(tr(v))
    return cs


def subspace_char_sum(G: Subspace, scale: int, tower: FieldTower) -> int:
    """Sum of chi(scale * alpha) over a subspace, two independent ways.

    The direct tally must agree with the dichotomy: |G| when scale * G lies
    in the kernel of the trace to B, and 0 otherwise.  Disagreement means an
    arithmetic bug, reported rather than silently averaged away.
    """
    direct = char_sum((tower.mul(scale, alpha) for alpha in G.enumerate()), tower)
    value = direct.as_integer()
    vanishes = all(
        tower.trace_to_subfield(tower.mul(scale, b)) == 0 for b in G.b_basis()
    )
    expected = tower.q ** G.dim if vanishes else 0
    if value != expected:
        raise CrossCheckMismatch(
            f"character sum over subspace: tally gives {value}, dichotomy {expected}"
        )
    return value


def _normal_form_tally(nf, rows) -> CharSum:
    """Tally chi(g_u(alpha) beta_s) over s in support, u in B^m.

    Each row holds (g_1(alpha), ..., g_m(alpha)) for one alpha; the q^m
    values g_u(alpha) are their span walk.  Every term is then multiplied
    by beta_s through the log/exp tables and traced.
    """
    scheme = nf.scheme
    t = scheme.tower
    exp, log, order = t.exp, t.log, t.order
    tr = t.absolute_trace_table()
    log_betas = [log[scheme.basis.beta[s - 1]] for s in nf.support_set]
    nbetas = len(log_betas)
    counts = [0] * t.p
    for evals in rows:
        for v in t.span(evals):
            if v == 0:
                counts[0] += nbetas
                continue
            lv = log[v]
            for lb in log_betas:
                counts[tr[exp[(lv + lb) % order]]] += 1
    return CharSum(t.p, counts)


def _collapse(cs: CharSum, qm: int) -> int:
    """A normal-form tally divided by q^m; both steps must be exact, so a
    miss is an arithmetic bug (CrossCheckMismatch)."""
    total = cs.as_integer()
    if total % qm:
        raise CrossCheckMismatch("u-sum failed to collapse; arithmetic bug")
    return total // qm


def _trace_system(t: FieldTower, beta: int, consts, images) -> tuple[int, list, list]:
    """(beta_s, M_s, a_s) of the support column with dual basis element beta."""
    tr, mul = t.trace_to_subfield, t.mul
    M = [[tr(mul(beta, lb[j])) for lb in images] for j in range(len(consts))]
    return beta, M, [tr(mul(beta, c)) for c in consts]


def _closed_form_zero_columns(nf, consts, systems) -> int:
    """Zero columns of all n nodes from the sums over A: q^d chi(beta_s c_u)
    per s and u in the left kernel of M_s, one CharSum over q^m."""
    t = nf.scheme.tower
    tr = t.absolute_trace_table()
    qd = t.q**nf.scheme.code.A.dim
    cs = CharSum(t.p)
    for beta, M, _ in systems:
        kernel = linalg.right_kernel(t, [list(col) for col in zip(*M)], nf.m)
        cus = [linalg.dot(t, u, consts) for u in kernel]
        for cu in t.span(cus):
            cs.tally(tr[t.mul(beta, cu)], qd)
    return _collapse(cs, t.q**nf.m)


def io_cost_expsum(nf) -> int:
    """I/O cost of an (m, t)-normalized scheme from exact character sums:
    (n - 1) ell minus the helpers' zero columns."""
    scheme = nf.scheme
    return (scheme.code.n - 1) * scheme.ell - sum(per_node_zero_columns(nf))


def per_node_zero_columns(nf) -> list[int]:
    """Zero-column count of each helper's W_hat block, in node order.

    B-affine polynomials: the number of affine sets V_s holding the node,
    checked against the closed form.  Otherwise one tally per node: the
    (s, u)-tally of chi(g_u(alpha_i) beta_s) collapses per s to q^m or 0.
    Either way the target must have no zero column, since its repair
    matrix spans F.
    """
    scheme = nf.scheme
    t, target = scheme.tower, scheme.target
    qm = t.q**nf.m
    parts = affine_parts(scheme, scheme.polys[: nf.m])
    if parts is None:
        rows = node_rows(scheme, scheme.polys[: nf.m])
        zcols = [_collapse(_normal_form_tally(nf, [vals]), qm) for vals in rows]
    else:
        systems = [_trace_system(t, scheme.basis.beta[s - 1], *parts) for s in nf.support_set]
        total = _closed_form_zero_columns(nf, parts[0], systems)
        digits = list(reversed(scheme.code.A.b_basis()))
        point = lambda x: functools.reduce(t.add, map(t.mul, x, digits), 0)  # sum x_k b_k
        tally = bytearray(t.size)  # a point lies in at most ell < 256 of the V_s
        for _, M, a in systems:
            vs = linalg.solution_set(t, M, [t.neg(c) for c in a])
            for alpha in t.span(map(point, vs[1]), start=point(vs[0])) if vs else ():
                tally[alpha] += 1
        zcols = [tally[alpha] for alpha in scheme.code.points]
        if sum(zcols) != total:
            raise CrossCheckMismatch(
                f"affine sets hold {sum(zcols)} zero columns, the closed form {total}")
        at_target = [scheme.code.eval_poly(g, scheme.target_point) for g in scheme.polys[: nf.m]]
        zcols[target - 1] += _collapse(_normal_form_tally(nf, [at_target]), qm)
    if zcols.pop(target - 1):
        raise CrossCheckMismatch("target repair matrix has a zero column")
    return zcols


def _residue_functionals(nf) -> tuple[int, ...]:
    """A B-basis of C^perp = the intersection of the scaled trace kernels
    of the constants g_j, j > m (F when m = ell)."""
    t = nf.scheme.tower
    kernels = [Subspace.scaled_trace_kernel(g[0], t) for g in nf.scheme.polys[nf.m:]]
    return (kernels[0].intersect(*kernels[1:]) if kernels else Subspace.full_field(t)).b_basis()


def per_node_ranks(nf) -> list[int]:
    """rank(W_i) for each helper, in node order: (ell - m) + rank(T_i),
    T_i[j][k] = Tr_{F/B}(theta_k g_j(alpha_i)), memoized per distinct T_i,
    held as the digit-packed rows of the closure_polys' values (as in
    BasisPair.phi_hat_bits) and ranked by linalg.closure_rank.  Each row
    is affine in alpha and walked over blocks of nodes (span_blocks): at
    q = 2 the m rows of a node are one XOR-walked int, row j at bits
    j m .. j m + m - 1, split into rows only when the memo misses;
    otherwise each row is walked alone.  Each block's misses are ranked
    first, then read off the memo."""
    scheme, m = nf.scheme, nf.m
    t = scheme.tower
    tr, mul, q = t.trace_to_subfield, t.mul, t.q
    thetas = _residue_functionals(nf)
    if len(thetas) != m or any(tr(mul(th, g[0])) for th in thetas for g in scheme.polys[m:]):
        raise CrossCheckMismatch(f"C^perp basis {thetas} is not {m} functionals killing the constants")
    coords = t.subfield_coords()
    pack = lambda v: sum(coords[tr(mul(th, v))] * q**k for k, th in enumerate(thetas))
    polys = closure_polys(scheme, scheme.polys[:m])
    parts = affine_parts(scheme, polys)
    rows_of = list
    if parts is None or not polys:  # (a zip of no walks would stop at once)
        values = node_values(scheme, polys)
        blocks = node_tuples(([list(map(pack, v)) for v in columns] for columns in values), scheme.code.n)
    elif q == 2:
        consts, images = parts
        join = lambda vals: sum(pack(v) << j * m for j, v in enumerate(vals))
        blocks = span_blocks([[join(lb)] for lb in images], operator.xor, join(consts))
        rows_of = lambda T: [T >> j * m & (1 << m) - 1 for j in range(m)]
    else:  # one walk per row
        consts, images = parts
        units = t.subfield_elements()[1:]
        walks = [span_blocks([[pack(mul(c, lb[j])) for c in units] for lb in images], t.add, pack(cj))
                 for j, cj in enumerate(consts)]
        blocks = (list(zip(*columns)) for columns in zip(*walks))
    memo = {}
    ranks = []
    for block in blocks:
        for T in set(block) - memo.keys():
            memo[T] = (scheme.ell - m) + linalg.closure_rank(rows_of(T), t)
        ranks += map(memo.__getitem__, block)
    del ranks[scheme.target - 1]
    return ranks


def weil_check(coeffs, tower: FieldTower) -> dict:
    """Compare a full-field character sum against (e - 1) sqrt(|F|).

    Applies to f of degree e >= 1 with e coprime to the characteristic;
    otherwise the bound is not valid and the call refuses.
    """
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    e = len(coeffs) - 1
    if e < 1 or e % tower.p == 0:
        raise ParamViolation(f"degree {max(e, 0)} shares a factor with p = {tower.p}")
    def values():
        for alpha in range(tower.size):
            acc = 0
            for c in reversed(coeffs):
                acc = tower.add(tower.mul(acc, alpha), c)
            yield acc

    value = char_sum(values(), tower).complex_value()
    bound = (e - 1) * math.sqrt(tower.size)
    return {
        "sum": value,
        "magnitude": abs(value),
        "bound": bound,
        "ok": abs(value) <= bound + 1e-9,
    }
