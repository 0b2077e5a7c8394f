"""Exact additive character sums.

chi(x) = zeta_p ** absolute_trace(x) takes values among the p-th roots of
unity, so any sum of chi values is stored as an integer count per root.
Everything stays in integer arithmetic; floats appear only when a sum is
compared against an analytic bound.

The expsum metric route keeps one tally: per_node_zero_columns collapses one
normal-form character sum per node, and io_cost_expsum is (n - 1) ell minus
the sum of those per-node zero columns.
"""

from __future__ import annotations

import cmath
import math

from .errors import CrossCheckMismatch, ParamViolation
from .gf import FieldTower, span_walk
from .scheme import node_values
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
    units = t.subfield_elements()[1:]
    log_betas = [log[scheme.basis.beta[s - 1]] for s in nf.support_set]
    nbetas = len(log_betas)
    counts = [0] * t.p
    for evals in rows:
        for v in span_walk([[t.mul(c, e) for c in units] for e in evals], t.add):
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


def io_cost_expsum(nf) -> int:
    """I/O cost of an (m, t)-normalized scheme from exact character sums:
    (n - 1) ell minus the helpers' zero columns."""
    scheme = nf.scheme
    return (scheme.code.n - 1) * scheme.ell - sum(per_node_zero_columns(nf).values())


def per_node_zero_columns(nf) -> dict[int, int]:
    """Zero-column count of each helper's W_hat block, via character sums.

    For helper i the (s, u)-tally of chi(g_u(alpha_i) beta_s) collapses per
    s to q^m or 0, so it equals q^m times the number of support columns
    where W_hat_i vanishes.  The target must contribute zero, since its
    repair matrix has no zero column.
    """
    scheme = nf.scheme
    qm = scheme.tower.q**nf.m
    out = {}
    for i, vals in enumerate(node_values(scheme, scheme.polys[: nf.m]), 1):
        z = _collapse(_normal_form_tally(nf, [vals]), qm)
        if i == scheme.target:
            if z:
                raise CrossCheckMismatch("target repair matrix has a zero column")
        else:
            out[i] = z
    return out


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
