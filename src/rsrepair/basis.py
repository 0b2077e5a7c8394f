"""Dual bases of F over B and the vectorization maps they induce.

A BasisPair stores both halves (beta and its trace-dual gamma) so that both
vectorizations are equally cheap:

    phi(alpha)     = (Tr(alpha gamma_1), ..., Tr(alpha gamma_ell))   # beta coords
    phi_hat(theta) = (Tr(theta beta_1), ..., Tr(theta beta_ell))     # gamma coords

They satisfy phi_hat(theta) . phi(alpha) = Tr(theta alpha) for all pairs, and
devectorizing phi(alpha) against beta returns alpha.  The phi_hat rows
also come digit-packed (phi_hat_bits): one int per row, itself a field
element, whose base-q digit s holds coordinate s over GF(p), in one
field table (FieldTower.table: an array('q') above gf.TABLE_CUTOFF).
"""

from __future__ import annotations

from . import linalg
from .errors import ParamViolation
from .gf import FieldTower, spot_check
from .subspace import b_rank


class BasisPair:
    def __init__(self, tower: FieldTower, beta, gamma):
        self.tower = tower
        self.beta = tuple(beta)
        self.gamma = tuple(gamma)
        if len(self.beta) != tower.ell or len(self.gamma) != tower.ell:
            raise ParamViolation("basis length must equal ell")
        idx = range(tower.ell)
        if [self.vectorize_dual(g) for g in self.gamma] != [tuple(int(i == j) for j in idx) for i in idx]:
            raise ParamViolation("claimed dual pair fails Tr(gamma_i beta_j) = delta_ij")
        self._phi = None
        self._phi_hat = None
        self._phi_hat_bits = None

    @property
    def ell(self) -> int:
        return self.tower.ell

    def swapped(self) -> "BasisPair":
        """The pair with the roles of beta and gamma exchanged."""
        return BasisPair(self.tower, self.gamma, self.beta)

    # -- vectorization -----------------------------------------------------

    def vectorize(self, alpha: int) -> tuple[int, ...]:
        """Coordinates of alpha w.r.t. beta, as traces against gamma."""
        t = self.tower
        return tuple(t.trace_to_subfield(t.mul(alpha, g)) for g in self.gamma)

    def vectorize_dual(self, alpha: int) -> tuple[int, ...]:
        """Coordinates of alpha w.r.t. gamma, as traces against beta."""
        t = self.tower
        return tuple(t.trace_to_subfield(t.mul(alpha, b)) for b in self.beta)

    # -- cached full tables (hot paths) -------------------------------------

    def _table(self, vectorize) -> list[tuple[int, ...]]:
        """vectorize on all of F: it is GF(p)-linear, so one span over GF(p)
        per coordinate, zipped into rows."""
        t = self.tower
        rows = [vectorize(t.p**k) for k in range(t.degree)]
        table = list(zip(*[t.span(col, t.p) for col in zip(*rows)]))
        spot_check(table, vectorize, "vectorization")
        return table

    def phi_table(self) -> list[tuple[int, ...]]:
        if self._phi is None:
            self._phi = self._table(self.vectorize)
        return self._phi

    def phi_hat_table(self) -> list[tuple[int, ...]]:
        if self._phi_hat is None:
            self._phi_hat = self._table(self.vectorize_dual)
        return self._phi_hat

    def phi_hat_bits(self):
        """phi_hat rows packed into ints: base-q digit s is coordinate s,
        written by the a base-p digits of tower.subfield_coords (bit s at
        q = 2).  They are field elements, so the tower's add and mul by
        GF(p) scalars act digit by digit; the table is their span over
        GF(p), a field table."""
        t = self.tower
        if self._phi_hat_bits is None:
            coords = t.subfield_coords()

            def packed(x):
                return sum(coords[c] * t.q**s for s, c in enumerate(self.vectorize_dual(x)))
            bits = t.span([packed(t.p**k) for k in range(t.degree)], t.p)
            spot_check(bits, packed, "phi_hat bits")
            self._phi_hat_bits = bits
        return self._phi_hat_bits

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        c = self.tower.coords
        return {
            "beta": [list(c(b)) for b in self.beta],
            "gamma": [list(c(g)) for g in self.gamma],
        }

    @classmethod
    def from_json(cls, tower: FieldTower, spec: dict) -> "BasisPair":
        beta = [tower.element(r) for r in spec["beta"]]
        gamma = [tower.element(r) for r in spec["gamma"]]
        return cls(tower, beta, gamma)

    def __repr__(self):
        return f"BasisPair(ell={self.ell}, beta={self.beta})"


def dual_basis(beta, tower: FieldTower) -> BasisPair:
    """Compute the trace-dual of a basis of F over B.

    The Gram matrix (Tr(beta_i beta_j)) has entries in B and is invertible
    exactly when beta is a basis; gamma_i = sum_j Ginv[i][j] beta_j.
    """
    beta = tuple(beta)
    if len(beta) != tower.ell or b_rank(tower, beta) != tower.ell:
        raise ParamViolation("elements do not form a basis of F over B")
    tr = tower.trace_to_subfield
    gram = [[tr(tower.mul(bi, bj)) for bj in beta] for bi in beta]
    ginv = linalg.inverse(tower, gram)
    gamma = [linalg.dot(tower, row, beta) for row in ginv]
    return BasisPair(tower, beta, gamma)
