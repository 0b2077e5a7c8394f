"""B-linear subspaces of F.

Subspaces of F are represented internally over the prime field: a reduced
GF(p)-coordinate basis of a*dim_B rows, closed under multiplication by the
subfield generator.  One elimination kernel then serves q prime and q = p^a
alike.  A deterministic B-basis is derived from the GF(p) rows and used for
enumeration and serialization; enumeration walks coefficient vectors over B
in lexicographic order, so 0 always comes first.  A scaled trace kernel
{x : Tr(beta x) = 0} is one solve: the kernel of the GF(p) digit map
x -> Tr(beta x).
"""

from __future__ import annotations

from . import linalg
from .errors import CrossCheckMismatch, ParamViolation
from .gf import FieldTower, max_field_size


def _closure_rows(tower: FieldTower, elements, size: int) -> list[list[int]]:
    """GF(p) rows of the elements' closure under the subfield of that size."""
    sb = tower.subfield_gfp_basis(size)
    return [list(tower.coords(tower.mul(s, e))) for e in elements for s in sb]


def b_rank(tower: FieldTower, elements) -> int:
    """Rank over B of field elements."""
    return len(linalg.independent(tower, elements, tower.degree))


def rank_over_subfield(tower: FieldTower, elements, subfield_size: int) -> int:
    """Rank of elements over the intermediate subfield of the given size."""
    return len(linalg.independent(tower, elements, tower.degree, subfield_size))


class Subspace:
    """A B-linear subspace of F."""

    def __init__(self, tower, rows, pivots):
        self.tower = tower
        self._rows = [list(r) for r in rows]
        self._pivots = list(pivots)
        self._b_basis = None
        if len(self._rows) % tower.a:
            raise CrossCheckMismatch("GF(p)-dimension not divisible by a; not B-linear")

    # -- constructors ------------------------------------------------------

    @classmethod
    def span(cls, tower: FieldTower, elements) -> "Subspace":
        """B-span of field elements."""
        return cls(tower, *linalg.rref(tower, _closure_rows(tower, elements, tower.q)))

    @classmethod
    def solutions(cls, tower: FieldTower, rows) -> "Subspace":
        """{x in F : C . digits(x) = 0} for GF(p) rows C (F if there are none)."""
        ker = linalg.right_kernel(tower, rows, tower.degree)
        return cls(tower, *linalg.rref(tower, ker))

    @classmethod
    def full_field(cls, tower: FieldTower) -> "Subspace":
        return cls.solutions(tower, [])

    @classmethod
    def scaled_trace_kernel(cls, beta: int, tower: FieldTower) -> "Subspace":
        """beta^{-1} K = {x : Tr(beta x) = 0}."""
        if beta == 0:
            raise ParamViolation("scaled trace kernel requires beta != 0")
        t = tower
        cols = [t.coords(t.trace_to_subfield(t.mul(beta, t.p**k))) for k in range(t.degree)]
        return cls.solutions(t, [list(row) for row in zip(*cols)])  # digits(x) -> digits(Tr(beta x))

    # -- basic queries -------------------------------------------------------

    @property
    def dim(self) -> int:
        """Dimension over B."""
        return len(self._rows) // self.tower.a

    def gfp_basis_elements(self) -> list[int]:
        """The GF(p)-basis rows as field elements."""
        return [self.tower.element(r) for r in self._rows]

    def b_basis(self):
        """Deterministic B-basis, as field elements."""
        if self._b_basis is not None:
            return self._b_basis
        picked = linalg.independent(self.tower, self.gfp_basis_elements(), self.dim)
        if len(picked) != self.dim:
            raise CrossCheckMismatch("failed to extract a B-basis from GF(p) rows")
        self._b_basis = tuple(picked)
        return self._b_basis

    def contains(self, x) -> bool:
        return not any(self._reduce(list(self.tower.coords(x))))

    __contains__ = contains

    def _reduce(self, digs: list[int]) -> list[int]:
        p = self.tower.p  # GF(p) digits: native arithmetic
        for row, pc in zip(self._rows, self._pivots):
            c = digs[pc]
            if c:
                digs = [(a - c * b) % p for a, b in zip(digs, row)]
        return digs

    def _same_tower(self, other) -> bool:
        s, o = self.tower, other.tower
        return (s.p, s.a, s.ell, s.modulus) == (o.p, o.a, o.ell, o.modulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subspace) and self._same_tower(other) and self._rows == other._rows

    def __hash__(self):
        return hash(tuple(map(tuple, self._rows)))

    # -- enumeration -----------------------------------------------------------

    def enumerate(self):
        """All q^dim members: B-coefficient vectors in lex order over b_basis,
        the last basis element as the lowest digit (FieldTower.span, so a
        field table when the subspace is all of F).

        First element is always 0; CrossCheckMismatch unless there are q^dim
        distinct ones.
        """
        t = self.tower
        if t.q**self.dim > max_field_size():
            raise ParamViolation(f"enumeration of q^{self.dim} elements exceeds budget")
        points = t.span(reversed(self.b_basis()))
        seen = bytearray(t.size)
        for x in points:
            seen[x] = 1
        if points[0] != 0 or seen.count(1) != t.q**self.dim:
            raise CrossCheckMismatch("subspace enumeration repeats an element")
        return points

    # -- lattice operations -----------------------------------------------------

    def constraints(self) -> list[list[int]]:
        """GF(p) rows C with self = {x : C . digits(x) = 0}."""
        return linalg.right_kernel(self.tower, self._rows, self.tower.degree)

    def intersect(self, *others) -> "Subspace":
        """Exact intersection via the kernel of stacked constraint systems."""
        stacked = self.constraints()
        for o in others:
            if not self._same_tower(o):
                raise ParamViolation("intersection of subspaces of different towers")
            stacked.extend(o.constraints())
        return Subspace.solutions(self.tower, stacked)

    def add(self, other: "Subspace") -> "Subspace":
        """Sum of subspaces (used to test dimension identities)."""
        if not self._same_tower(other):
            raise ParamViolation("sum of subspaces of different towers")
        return Subspace(self.tower, *linalg.rref(self.tower, self._rows + other._rows))

    # -- preimages ---------------------------------------------------------------

    def preimage(self, lmap) -> "Subspace":
        """{x in F : L(x) in self} for a B-linear map with a .gfp_matrix().

        Raises ParamViolation if self is not contained in the image of L, so a
        dimension count dim(self) + dim(ker L) is guaranteed for the result.
        """
        t = self.tower
        m = lmap.gfp_matrix()
        # image check: every basis row of self must lie in the column space
        cols = [list(c) for c in zip(*m)]
        img_rank = linalg.rank(t, cols)
        if linalg.rank(t, cols + self._rows) != img_rank:
            raise ParamViolation("subspace is not contained in the image of the map")
        return Subspace.solutions(t, linalg.mat_mul(t, self.constraints(), m))

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> list:
        return [list(self.tower.coords(e)) for e in self.b_basis()]

    @classmethod
    def from_json(cls, tower: FieldTower, rows) -> "Subspace":
        return cls.span(tower, [tower.element(r) for r in rows])

    def __repr__(self):
        return f"Subspace(dim={self.dim})"
