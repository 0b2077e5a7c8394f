"""Dense exact linear algebra over a FieldTower.

Matrices are lists of row lists; entries are int-encoded field elements.
Because GF(p) and B embed in F as subsets closed under the tower's ops, the
same elimination code serves prime-field coordinate vectors, matrices over B
and matrices over F.  When every entry is below p the matrix lies in GF(p),
whose elements are encoded as themselves, and rref eliminates on native ints
(XOR for p = 2); otherwise it goes through the tower's add/mul.  split
reads the greedy dependency split of a list of rows off the rref of their
transpose, sharing its kernel step with right_kernel and solution_set (the
affine solution set of M x = b).  independent greedily picks field
elements that grow a span over a subfield (default B), each joined by its
GF(p)-closure in one echelon basis; their count is the rank over it.
For hot loops, rows may come digit-packed into ints (base-p digit i =
column i, bits at p = 2), as elements of a tower that does their
arithmetic: echelon keeps their GF(p) echelon basis, rank_bits is their
GF(p) rank, closure_rank the B-rank of rows given with their
GF(p)-closure (on top of a basis reduced once), reduction maps rows to
their remainders modulo an echelon basis, digit_supports reads all
their nonzero digits (base-q digits for rows over B), digit_select
clears the digits outside a mask, and b_echelon builds an echelon basis
over B of field elements through their packed rows.
"""

from __future__ import annotations

import functools

from .errors import CrossCheckMismatch, SingularMatrix
from .gf import spot_check


def rref(tower, rows: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form; returns (nonzero rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return [], []
    p = tower.p
    if max(map(max, rows)) < p:  # a GF(p) matrix: native arithmetic
        inv = lambda x: pow(x, -1, p)
        scale = lambda c, row: [c * v % p for v in row]
        if p == 2:
            elim = lambda row, c, prow: [a ^ b for a, b in zip(row, prow)]
        else:
            elim = lambda row, c, prow: [(a - c * b) % p for a, b in zip(row, prow)]
    else:
        inv, mul, sub = tower.inv, tower.mul, tower.sub
        scale = lambda c, row: [mul(c, v) for v in row]
        elim = lambda row, c, prow: [sub(a, mul(c, b)) for a, b in zip(row, prow)]
    width = len(rows[0])
    pivots = []
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        if rows[rank][col] != 1:
            rows[rank] = scale(inv(rows[rank][col]), rows[rank])
        prow = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                rows[i] = elim(rows[i], rows[i][col], prow)
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def rank(tower, rows) -> int:
    return len(rref(tower, rows)[0])


def _kernel(tower, red, pivots, width) -> dict[int, list[int]]:
    """{free column c: the kernel vector of the rref red with v_c = 1},
    nonzero only at c and at the pivot columns before it."""
    basis = {}
    for fc in (c for c in range(width) if c not in pivots):
        v = [0] * width
        v[fc] = 1
        for r, pc in zip(red, pivots):
            v[pc] = tower.neg(r[fc])
        basis[fc] = v
    return basis


def right_kernel(tower, rows: list[list[int]], width: int) -> list[list[int]]:
    """Basis of {v : M v = 0} for the matrix with the given rows."""
    return list(_kernel(tower, *rref(tower, rows), width).values())


def split(tower, rows) -> tuple[list[int], dict[int, list[int]]]:
    """B-dependency split of rows, greedy in row order: the indices of the
    rows independent of the earlier ones, and for every other row j its
    tail u, with u_j = 1, sum u_r rows[r] = 0 and u nonzero only at j and
    the independent rows before it.  These are the pivots and the right
    kernel of the transposed rows."""
    red, pivots = rref(tower, list(zip(*rows)))
    return pivots, _kernel(tower, red, pivots, len(rows))


def solution_set(tower, rows, rhs):
    """{x : M x = rhs} as (a particular solution, a basis of the kernel of
    M) from one rref of [M | rhs]; None when the system is inconsistent."""
    width = len(rows[0])
    red, pivots = rref(tower, [list(r) + [b] for r, b in zip(rows, rhs)])
    if width in pivots:
        return None
    x0 = [0] * width
    for r, pc in zip(red, pivots):
        x0[pc] = r[width]
    return x0, list(_kernel(tower, red, pivots, width).values())


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
    """The unique solution of M x = b: SingularMatrix if the columns of M
    are dependent or the system is inconsistent."""
    solutions = solution_set(tower, rows, b)
    if solutions is None:
        raise SingularMatrix("inconsistent linear system")
    x0, kernel = solutions
    if kernel:
        raise SingularMatrix("matrix columns are dependent; no unique solution")
    return x0


def independent(tower, candidates, dim: int, size: int | None = None) -> list[int]:
    """The candidates that grow the span over the subfield of the given
    size (default B) of those picked before, in order; none is drawn once
    dim are picked.  Each goes into one echelon basis with its closure
    under the subfield, which must grow by 0 or the subfield degree."""
    scales = tower.subfield_gfp_basis(size or tower.q)
    rows, picked, k = {}, [], len(scales)
    for x in candidates if dim > 0 else ():
        before = len(rows)
        echelon([x if s == 1 else tower.mul(s, x) for s in scales], tower, rows)
        if (grown := len(rows) - before) not in (0, k):
            raise CrossCheckMismatch("closure rank growth is not 0 or the subfield degree")
        if grown:
            picked.append(x)
            if len(picked) == dim:
                break
    return picked


def rank_bits(rows: list[int], tower) -> int:
    """Rank over GF(p) of elements of the tower read as rows packed as ints,
    base-p digit i = column i."""
    return len(echelon(rows, tower))


def echelon(rows, tower, basis: dict | None = None) -> dict:
    """basis (default a new one), a GF(p) echelon basis {pivot: row} of
    packed rows, extended in place by rows: elements of the tower, whose
    add and mul by GF(p) scalars act on the digits one by one (XOR at
    p = 2).  Pivots are the lowest nonzero digits, kept at 1."""
    basis = {} if basis is None else basis
    if tower.p == 2:
        for row in rows:
            while row:
                low = row & -row
                if low in basis:
                    row ^= basis[low]
                else:
                    basis[low] = row
                    break
        return basis
    p, add, mul = tower.p, tower.add, tower.mul
    h, size, _, low, places, inverse = _digit_tables(p, tower.degree)
    for row in rows:
        while row:
            r = row % size
            k = low[r] if r else h + low[row // size]  # the lowest nonzero digit
            c, pivot = row // places[k] % p, basis.get(k)
            if pivot is None:
                basis[k] = row if c == 1 else mul(inverse[c], row)
                break
            row = add(row, mul(p - c, pivot))
    return basis


def closure_rank(rows: list[int], tower, basis: dict | None = None) -> int:
    """Rank over B of packed rows given with their closure under B, joined
    by the rows of basis (an echelon basis of closed rows, left as it is):
    their GF(p) rank over a.  A remainder is an arithmetic bug."""
    dim = len(echelon(rows, tower, dict(basis))) if basis else rank_bits(rows, tower)
    rank, rest = divmod(dim, tower.a)
    if rest:
        raise CrossCheckMismatch(f"closure rank not divisible by the subfield degree {tower.a}")
    return rank


@functools.cache
def _digit_tables(base: int, width: int):
    """Base-`base` ints of width digits, read as two halves of h =
    ceil(width / 2) digits: h, base^h, for each h-digit number the bitmask
    of its nonzero digits and the index of the lowest one (h at 0), the
    place values base^k for k < width, and for a prime base the inverses
    mod base (0 at 0)."""
    h = (width + 1) // 2
    masks, low = [0], [h]
    for k in range(h):  # digit k on top of the k-digit numbers
        masks = [m | bool(c) << k for c in range(base) for m in masks]
        low = [lw if rest else k if c else h for c in range(base) for rest, lw in enumerate(low)]
    places = tuple(base**k for k in range(width))
    return h, base**h, masks, low, places, (0, *(pow(c, base - 2, base) for c in range(1, base)))


def digit_supports(base: int, width: int):
    """xs -> [the bitmask of the nonzero base-`base` digits of x, for x in
    xs], each x < base^width: the bits themselves at base 2, else two
    lookups per x in the masks of the h-digit halves.  Base q reads rows
    over B = GF(q) packed by their GF(p) coordinates, a base-p digits to
    an entry."""
    if base == 2:
        return list
    h, size, lo = _digit_tables(base, width)[:3]
    hi = [m << h for m in lo]
    return lambda xs: [lo[x % size] | hi[x // size] for x in xs]


def digit_select(base: int, width: int, mask: int):
    """xs -> [x with its base-`base` digits outside mask set to 0, for x in
    xs], each x < base^width: ANDs at base 2, else two half-width lookups."""
    if base == 2:
        return lambda xs: [x & mask for x in xs]
    h = (width + 1) // 2
    size = base**h
    lo, hi = ([sum(v // base**k % base * base**k for k in range(h) if bits >> k & 1) * scale for v in range(size)]
              for bits, scale in ((mask, 1), (mask >> h, size)))
    return lambda xs: [lo[x % size] + hi[x // size] for x in xs]


def reduction(basis: dict, tower):
    """xs -> [x reduced modulo the span of basis, for x in xs]: the
    GF(p)-linear map on packed rows that clears every pivot digit of an
    echelon basis (echelon), row by row in increasing pivot order.  It is
    read as two half tables in digit_select's layout, the spans over GF(p)
    of the reduced unit rows, added (XOR at p = 2); both are spot-checked
    against that row-by-row elimination."""
    p, width = tower.p, tower.degree
    add, mul, pivots = tower.add, tower.mul, sorted(basis)  # at p = 2 the pivots are bits

    def reduce(x):
        for k in pivots:
            if p == 2:
                x ^= basis[k] if x & k else 0
            elif c := x // p**k % p:
                x = add(x, mul(p - c, basis[k]))
        return x

    h = (width + 1) // 2
    size = p**h
    lo, hi = (tower.span([reduce(p**k) for k in range(start, stop)], p) for start, stop in ((0, h), (h, width)))
    spot_check(lo, reduce, "reduction")
    spot_check(hi, lambda x: reduce(x * size), "reduction")
    if p == 2:
        return lambda xs: [lo[x & size - 1] ^ hi[x >> h] for x in xs]
    return lambda xs: [add(lo[x % size], hi[x // size]) for x in xs]


def b_echelon(tower, packed):
    """values -> (basis, pairs): the echelon basis over B of those field
    elements, greedy in order, read through packed (packed[v]: base-q digit
    s = coordinate s of v over B, B-linear in v), as {pivot s: w_s}, w_s
    with digit s equal to 1 and none below, and per value v its (s, c)
    pairs, c in B, with v = sum c w_s.  Each step must raise s."""
    q, element = tower.q, {i: x for x, i in tower.subfield_coords().items()}
    h, size, _, low, places = _digit_tables(q, tower.ell)[:5]
    lo, hi = ([(low[r] + shift, r and element[r // places[low[r]] % q]) for r in range(size)] for shift in (0, h))
    sub, mul, div = tower.sub, tower.mul, tower.div

    def eliminate(values):
        basis, pairs = {}, []
        for v in values:
            own = []
            while v:
                row = packed[v]
                s, c = lo[r] if (r := row % size) else hi[row // size]
                if own and s <= own[-1][0]:
                    raise CrossCheckMismatch(f"echelon step over B kept pivot {s}")
                own.append((s, c))
                if (w := basis.get(s)) is None:
                    basis[s] = v if c == 1 else div(v, c)
                    break
                v = sub(v, w if c == 1 else mul(c, w))
            pairs.append(own)
        return basis, pairs

    return eliminate
