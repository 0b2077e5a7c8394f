"""Elimination over GF(p) and over the tower, echelon bases, linear solves."""

import random

import pytest

from rsrepair import field_create, linalg
from rsrepair.errors import NoSolution, SingularMatrix
from rsrepair.linalg import EchelonBasis


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


def test_solve_unique_singular_inconsistent():
    t = field_create(3, 1, 2)
    assert linalg.solve(t, [[1, 2], [0, 1]], [1, 2]) == [0, 2]
    with pytest.raises(SingularMatrix):
        linalg.solve(t, [[1, 2], [2, 1]], [1, 2])  # row 2 = 2 * row 1
    with pytest.raises(SingularMatrix):
        linalg.solve(t, [[1, 2], [2, 1]], [1, 1])  # singular and inconsistent
    with pytest.raises(NoSolution):
        linalg.solve(t, [[1, 0], [0, 1], [1, 1]], [1, 1, 0])


@pytest.mark.parametrize("params", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (5, 1, 2)])
def test_echelon_basis_copy_is_independent(params):
    t = field_create(*params)
    rng = random.Random(3)
    eb = EchelonBasis(t)
    eb.extend(iter(lambda: rng.randrange(1, t.size), None), t.ell // 2)
    dim, rows = eb.dim, dict(eb._rows)
    other = eb.copy()
    other.extend(range(1, t.size), t.ell)
    assert other.dim == t.ell > dim
    assert eb.dim == dim and eb._rows == rows
