"""Dense exact linear algebra over a FieldTower.

Matrices are lists of row lists; entries are int-encoded field elements.
Because GF(p) and B embed in F as subsets closed under the tower's ops, the
same elimination code serves prime-field coordinate vectors, matrices over B
and matrices over F.  Sizes here are tiny (dimension <= a*ell), so clarity
beats cleverness; the one exception is a bit-packed GF(2) rank used in hot
metric loops.
"""

from __future__ import annotations

from .errors import CrossCheckMismatch, NoSolution, SingularMatrix


def rref(tower, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    width = len(rows[0])
    pivots = []
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = tower.inv(rows[rank][col])
        if inv != 1:
            rows[rank] = [tower.mul(inv, v) for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                c = rows[i][col]
                rows[i] = [
                    tower.sub(a, tower.mul(c, b)) for a, b in zip(rows[i], rows[rank])
                ]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def rank(tower, rows) -> int:
    return len(rref(tower, rows)[0])


def right_kernel(tower, rows: list[list[int]], width: int) -> list[list[int]]:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    red, pivots = rref(tower, rows)
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * width
        v[fc] = 1
        for r, pc in zip(red, pivots):
            v[pc] = tower.neg(r[fc])
        basis.append(v)
    return basis


def mat_mul(tower, A, B):
    cols = list(zip(*B))
    return [[dot(tower, r, c) for c in cols] for r in A]


def dot(tower, r, c):
    acc = 0
    for a, b in zip(r, c):
        if a and b:
            acc = tower.add(acc, tower.mul(a, b))
    return acc


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def is_invertible(tower, rows) -> bool:
    return len(rows) > 0 and len(rows) == len(rows[0]) == rank(tower, rows)


def inverse(tower, rows) -> list[list[int]]:
    n = len(rows)
    aug = [list(r) + [1 if i == j else 0 for j in range(n)] for i, r in enumerate(rows)]
    red, pivots = rref(tower, aug)
    if pivots[:n] != list(range(n)) or len(red) != n:
        raise SingularMatrix("matrix is singular")
    return [r[n:] for r in red]

def solve(tower, rows, b) -> list[int]:
    """One solution of M x = b, or NoSolution."""
    n = len(rows)
    width = len(rows[0])
    aug = [list(r) + [b[i]] for i, r in enumerate(rows)]
    red, pivots = rref(tower, aug)
    if width in pivots:
        raise NoSolution("inconsistent linear system")
    x = [0] * width
    for r, pc in zip(red, pivots):
        x[pc] = r[-1]
    return x


class EchelonBasis:
    """GF(p) echelon basis of the span of the inserted field elements over
    the subfield of the given size (default B).

    Rows are field elements (bit-packed when p = 2) keyed by the place value
    p^k of their lowest nonzero digit, which is 1.  insert(x) adds x's
    subfield closure and reports whether the dimension grew.
    """

    def __init__(self, tower, size=None):
        self.tower = tower
        self._scales = tower.subfield_gfp_basis(size or tower.q)
        self._rows = {}
        self.dim = 0

    def insert(self, x: int) -> bool:
        t, rows, p = self.tower, self._rows, self.tower.p
        before = len(rows)
        for v in (t.mul(s, x) for s in self._scales):
            while v:
                if p == 2:
                    low, c = v & -v, 1
                else:
                    low, c = next((p**k, c) for k, c in enumerate(t.coords(v)) if c)
                if low not in rows:
                    rows[low] = v if c == 1 else t.mul(pow(c, -1, p), v)
                    break
                v = v ^ rows[low] if p == 2 else t.sub(v, t.mul(c, rows[low]))
        grown, k = len(rows) - before, len(self._scales)
        if grown not in (0, k):
            raise CrossCheckMismatch("closure rank growth is not 0 or the subfield degree")
        self.dim += grown // k
        return grown > 0

    def extend(self, candidates, dim: int) -> list[int]:
        """Insert candidates, drawing none once the dimension is dim; the
        ones that grew it, in order."""
        picked = []
        for x in candidates if self.dim < dim else ():
            if self.insert(x):
                picked.append(x)
                if self.dim == dim:
                    break
        return picked


def rank_bits(rows: list[int]) -> int:
    """Rank over GF(2) of rows packed as ints (bit i = column i)."""
    basis: dict[int, int] = {}  # pivot bit -> reduced row
    for row in rows:
        while row:
            low = row & -row
            if low in basis:
                row ^= basis[low]
            else:
                basis[low] = row
                break
    return len(basis)
