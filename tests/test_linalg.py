"""Elimination over GF(p) and over the tower, echelon bases, linear solves."""

import functools
import random

import pytest

from rsrepair import dual_basis, field_create, linalg
from rsrepair.errors import SingularMatrix
from rsrepair.subspace import b_rank


def _tower_rref(tower, rows):
    """rref through the tower's add/mul only, kept here as the oracle."""
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
                rows[i] = [tower.sub(a, tower.mul(c, b)) for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == len(rows):
            break
    return rows[:rank], pivots


def _matrices(rng, entries):
    """Tall, wide, square, rank-deficient and zero-row matrices."""
    out = []
    for height, width in ((7, 3), (3, 7), (5, 5), (1, 4), (4, 1)):
        out.append([[rng.choice(entries) for _ in range(width)] for _ in range(height)])
    for height, width in ((6, 5), (4, 6)):
        base = [[rng.choice(entries) for _ in range(width)] for _ in range(2)]
        # copies of two rows and a zero row: rank <= 2
        out.append([list(rng.choice(base)) for _ in range(height)])
        out[-1][1] = [0] * width
    out.append([[0] * 4 for _ in range(3)])
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rref_gfp_matches_tower_rref(p):
    rng = random.Random(p)
    for ell in (1, 3):
        t = field_create(p, 1, ell)
        for _ in range(15):
            for rows in _matrices(rng, range(p)):
                assert linalg.rref(t, rows) == _tower_rref(t, rows)


@pytest.mark.parametrize("params", [(2, 2, 3), (3, 2, 2), (2, 1, 5)])
def test_rref_tower_path_matches(params):
    # entries from p up: B-valued with a > 1, or F-valued, take the tower path
    t = field_create(*params)
    rng = random.Random(7)
    pools = [t.subfield_elements(), range(t.size), range(t.p + 1)]
    for _ in range(15):
        for pool in pools:
            for rows in _matrices(rng, pool):
                assert linalg.rref(t, rows) == _tower_rref(t, rows)
    assert linalg.rref(t, []) == ([], []) and linalg.rref(t, [[], []]) == ([], [])


def _greedy_split(tower, rows):
    """The dependency split row by row, each row reduced by the pivots of the
    earlier independent ones and carrying its tail: the oracle."""
    width, pivots, sent, deps = len(rows[0]), {}, [], {}
    for j, row in enumerate(rows):
        v = [*row, *(int(r == j) for r in range(len(rows)))]
        while (col := next((s for s in range(width) if v[s]), None)) in pivots:
            v = [tower.sub(a, tower.mul(v[col], b)) for a, b in zip(v, pivots[col])]
        if col is None:
            deps[j] = v[width:]
        else:
            pivots[col] = [tower.mul(tower.inv(v[col]), a) for a in v]
            sent.append(j)
    return sent, deps


@pytest.mark.parametrize("params", [(2, 1, 3), (3, 1, 2), (2, 2, 2), (5, 1, 2), (3, 2, 2)])
def test_split_matches_greedy(params):
    # B-valued rows at q = 2, 3, 4, 5, 9, plus zero-width rows
    t = field_create(*params)
    rng = random.Random(t.q)
    for _ in range(15):
        for rows in _matrices(rng, t.subfield_elements()) + [[[] for _ in range(3)]]:
            sent, deps = linalg.split(t, rows)
            assert (sent, deps) == _greedy_split(t, rows)
            for j, tail in deps.items():
                assert tail[j] == 1 and not any(tail[r] for r in range(j + 1, len(rows)))
                assert linalg.mat_mul(t, [tail], rows) in ([[0] * len(rows[0])], [[]])


def test_solve_unique_singular_inconsistent():
    t = field_create(3, 1, 2)
    assert linalg.solve(t, [[1, 2], [0, 1]], [1, 2]) == [0, 2]
    with pytest.raises(SingularMatrix):
        linalg.solve(t, [[1, 2], [2, 1]], [1, 2])  # row 2 = 2 * row 1
    with pytest.raises(SingularMatrix):
        linalg.solve(t, [[1, 2], [2, 1]], [1, 1])  # singular and inconsistent
    with pytest.raises(SingularMatrix, match="inconsistent linear system"):
        linalg.solve(t, [[1, 0], [0, 1], [1, 1]], [1, 1, 0])


@pytest.mark.parametrize("params", [(2, 1, 6), (3, 1, 5), (5, 1, 3), (7, 1, 3), (3, 1, 1)])
def test_rank_bits_and_digit_supports_match_coordinates(params):
    """Digit-packed rows at prime q: rank and nonzero digits against the
    coordinate vectors, on random rows with dependent ones mixed in."""
    t = field_create(*params)
    rng = random.Random(11)
    for _ in range(300):
        rows = [rng.randrange(t.size) for _ in range(rng.randint(0, t.ell + 1))]
        for _ in range(rng.randint(0, 3)):
            if rows:  # a GF(p) combination of two rows
                a, b = rng.choice(rows), rng.choice(rows)
                rows.insert(rng.randint(0, len(rows)), t.add(t.mul(rng.randrange(t.p), a), b))
        coords = [list(t.coords(x)) for x in rows]
        assert linalg.rank_bits(rows, t) == linalg.rank(t, coords)
        want = [sum(1 << s for s, d in enumerate(c) if d) for c in coords]
        assert linalg.digit_supports(t.p, t.ell)(rows) == want


@pytest.mark.parametrize("p,a", [(2, 2), (2, 3), (3, 2)])
def test_digit_supports_reads_groups_at_prime_powers(p, a):
    """Base-q digits of rows over B = GF(p^a) packed a base-p digits to an
    entry: a group is flagged iff one of its base-p digits is nonzero."""
    t = field_create(p, a, 3)
    rng = random.Random(p * 10 + a)
    for _ in range(200):
        rows = [rng.randrange(t.size) for _ in range(rng.randint(0, 5))]
        rows += [0, t.size - 1, rng.randrange(t.q) * t.q**2]
        want = [sum(1 << s for s in range(t.ell) if any(t.coords(x)[a * s: a * s + a])) for x in rows]
        assert linalg.digit_supports(t.q, t.ell)(rows) == want
        mask = rng.randrange(1 << t.ell)
        # clearing the groups outside mask, against the coordinates
        cut = [t.element(c if mask >> i // a & 1 else 0 for i, c in enumerate(t.coords(x))) for x in rows]
        size, lo, hi = linalg.select_halves(t.q, t.ell, mask)
        assert [lo[x % size] + hi[x // size] for x in rows] == cut


@pytest.mark.parametrize("params", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (3, 2, 2)])
def test_reduction_clears_the_pivots_within_the_coset(params):
    """A row reduced modulo an echelon basis differs from it by an element
    of the span and has 0 at every pivot digit; through a packed table the
    reduction of a value is that of its row."""
    t = field_create(*params)
    rng = random.Random(sum(params))
    table = dual_basis(linalg.independent(t, range(1, t.size), t.ell), t).phi_hat_bits()
    for k in range(t.degree + 1):
        basis = linalg.echelon([rng.randrange(t.size) for _ in range(k)], t)
        digits = [b.bit_length() - 1 for b in basis] if t.p == 2 else list(basis)
        xs = [rng.randrange(t.size) for _ in range(30)] + [0, t.size - 1]
        reduced = linalg.reduction(basis, t)(xs)
        for x, r in zip(xs, reduced):
            assert all(r // t.p**d % t.p == 0 for d in digits)
            assert linalg.rank_bits([*basis.values(), t.sub(x, r)], t) == len(basis)
        assert linalg.reduction(basis, t, table)(xs) == linalg.reduction(basis, t)([table[x] for x in xs])


@pytest.mark.parametrize("params", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (3, 2, 2)])
def test_b_echelon_rebuilds_values(params):
    """The echelon basis over B at q = 2, 3, 4, 9, on seeded values with
    repeats and 0: sum c w_s gives back every value, one basis vector per
    unit of B-rank, each w_s with digit s equal to 1 and none below."""
    t = field_create(*params)
    table = dual_basis(linalg.independent(t, range(1, t.size), t.ell), t).phi_hat_bits()
    one, bset = t.subfield_coords()[1], set(t.subfield_elements())
    eliminate = linalg.b_echelon(t, table)
    rng = random.Random(t.q)
    for _ in range(40):
        values = [rng.randrange(t.size) for _ in range(rng.randint(0, t.ell + 1))]
        values += [0, *rng.sample(values, min(2, len(values)))]  # 0 and repeats
        rng.shuffle(values)
        basis, pairs = eliminate(values)
        assert len(basis) == b_rank(t, values) and len(pairs) == len(values)
        for s, w in basis.items():
            digits = [table[w] // t.q**k % t.q for k in range(t.ell)]
            assert digits[:s + 1] == [0] * s + [one]
        for v, own in zip(values, pairs):
            pivots = [s for s, _ in own]
            assert pivots == sorted(set(pivots)) and all(c in bset and c for _, c in own)
            assert functools.reduce(t.add, (t.mul(c, basis[s]) for s, c in own), 0) == v
