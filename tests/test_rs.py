"""Codes on subspace points: evaluation, duality, distance."""

import itertools
import json
import os
import random
import subprocess
import sys

import pytest

import rsrepair
from rsrepair import RSCode, Subspace, dual_basis, field_create
from rsrepair.cli import main
from rsrepair.errors import CrossCheckMismatch, ParamViolation

from conftest import all_subspaces, random_codeword


def test_points_and_encode(gf16):
    A = Subspace.span(gf16, [1, 2])
    code = RSCode(A, 2)
    assert code.n == 4 and code.r == 2
    assert code.points[0] == 0
    assert code.points.index(0) + 1 == 1
    # f(x) = 3x + 5
    cw = code.encode([5, 3])
    assert cw == [gf16.add(gf16.mul(3, a), 5) for a in code.points]
    with pytest.raises(ParamViolation, match="message degree 2 >= k = 2"):
        code.encode([1, 2, 3])
    with pytest.raises(ParamViolation):
        RSCode(A, 4)


def test_eval_poly_matches_powers(gf16):
    code = RSCode(Subspace.full_field(gf16), 10)
    rng = random.Random(2)
    for _ in range(50):
        coeffs = [rng.randrange(16) for _ in range(rng.randint(1, 6))]
        x = rng.randrange(16)
        acc = 0
        for i, c in enumerate(coeffs):
            acc = gf16.add(acc, gf16.mul(c, gf16.pow(x, i)))
        assert code.eval_poly(coeffs, x) == acc


def test_monomial_duality_exhaustive():
    """sum over A of x^(i+j) vanishes whenever i + j <= n - 2.

    Exhaustive over every subspace of GF(16) and GF(9) with n >= 2 and
    every monomial pair, covering all splits into message and dual degree.
    """
    for p, ell in [(2, 4), (3, 2)]:
        t = field_create(p, 1, ell)
        for A in all_subspaces(t):
            n = t.q ** A.dim
            if n < 2:
                continue
            points = A.enumerate()
            for e in range(n - 1):
                acc = 0
                for al in points:
                    acc = t.add(acc, t.pow(al, e))
                assert acc == 0, (p, ell, A.dim, e)


def test_dual_inner_product_random(gf16):
    A = Subspace.span(gf16, [1, 2, 4])
    code = RSCode(A, 5)
    bp = dual_basis([9, 15, 1, 5], gf16)
    res = code.dual_inner_product_check(trials=30, seed=9, basis=bp)
    assert res["passed"] and res["scalar_failures"] == 0 == res["vectorized_failures"]


def test_mds_distance_exhaustive_small(gf4):
    # RS(GF(4), 2): every nonzero codeword has weight >= n - k + 1 = 3
    code = RSCode(Subspace.full_field(gf4), 2)
    for coeffs in itertools.product(range(4), repeat=2):
        cw = code.encode(list(coeffs))
        wt = sum(1 for c in cw if c)
        if any(coeffs):
            assert wt >= code.n - code.k + 1


def test_mds_distance_spot(gf16):
    rng = random.Random(31)
    code = RSCode(Subspace.full_field(gf16), 11)
    for _ in range(40):
        coeffs = [rng.randrange(16) for _ in range(code.k)]
        if not any(coeffs):
            continue
        wt = sum(1 for c in code.encode(coeffs) if c)
        assert wt >= code.n - code.k + 1


def test_random_codeword_seeded(gf16):
    code = RSCode(Subspace.full_field(gf16), 3)
    assert random_codeword(code, 7) == random_codeword(code, 7)
    assert random_codeword(code, 7) != random_codeword(code, 8)


def _horner(t, coeffs, x):
    """Test-local oracle: Horner's rule through the tower's mul and add."""
    acc = 0
    for c in reversed(coeffs):
        acc = t.add(t.mul(acc, x), c)
    return acc


# GF(2), GF(3), GF(5) (degree-1 towers), GF(4^3), GF(9^2), GF(2^8)
@pytest.mark.parametrize("params", [(2, 1, 1), (3, 1, 1), (5, 1, 1), (2, 2, 3), (3, 2, 2), (2, 1, 8)])
def test_eval_poly_matches_horner(params):
    t = field_create(*params)
    code = RSCode(Subspace.full_field(t), max(1, t.size - 2))  # degree up to k - 1 = n - 3
    rng = random.Random(sum(params))
    polys = [[], [rng.randrange(1, t.size)]]
    polys += [[rng.randrange(t.size) for _ in range(n)] for n in {2, code.k // 2 + 1, code.k}]
    polys.append([0] * (code.k - 1) + [t.size - 1])  # a lone top coefficient
    for coeffs in polys:
        for x in range(t.size):
            assert code.eval_poly(coeffs, x) == _horner(t, coeffs, x)
            assert code.eval_poly(tuple(coeffs), x) == _horner(t, coeffs, x)


# q = 2, 3, 4 and 9, at every point (so at 0, and where a x + c vanishes)
@pytest.mark.parametrize("params", [(2, 1, 6), (3, 1, 4), (2, 2, 3), (3, 2, 2)])
def test_eval_block_matches_eval_poly(params):
    t = field_create(*params)
    code = RSCode(Subspace.full_field(t), t.size - 6)
    rng = random.Random(sum(params))
    c = lambda: rng.randrange(1, t.size)
    polys = [[], [0], [0, 0, 0], [c()], [0, 1], [c(), 0, c()], [c(), c(), 0, 0],  # zero, constant, trailing zeros
             [rng.randrange(t.size) for _ in range(6)], [0, 0, 0, 0, c()]]
    xs = [*range(t.size), 0, *rng.sample(range(t.size), 10)]
    for coeffs in polys:
        assert code.eval_block(coeffs, xs) == [code.eval_poly(coeffs, x) for x in xs]
        assert code.eval_block(tuple(coeffs), xs[:1]) == [code.eval_poly(coeffs, xs[0])]
        assert code.eval_block(coeffs, []) == []


# every tower with p in {2, 3, 5, 7}, a in {1, 2} and |F| <= 729
SMALL_TOWERS = [(p, a, ell) for p in (2, 3, 5, 7) for a in (1, 2) for ell in range(1, 10) if p ** (a * ell) <= 729]


def _random_subspace(t, dim, rng):
    while True:
        A = Subspace.span(t, [rng.randrange(t.size) for _ in range(dim)])
        if A.dim == dim:
            return A


@pytest.mark.parametrize("params", SMALL_TOWERS, ids=lambda params: "-".join(map(str, params)))
def test_evaluate_and_encode_match_horner(params):
    """The remainder tree against per-point Horner at every point, over the
    full field and a seeded random subspace of every dimension."""
    t = field_create(*params)
    rng = random.Random(str(params))
    spaces = [Subspace.full_field(t)] + [_random_subspace(t, dim, rng) for dim in range(1, t.ell)]
    for A in spaces:
        n = t.q**A.dim
        code = RSCode(A, rng.randrange(1, n))
        points = code.points
        lengths = sorted(m for m in {0, 1, t.q, t.q + 1, code.k, n} if m <= n)
        polys = [[]]
        for m in lengths[1:]:  # zero top coefficients at lengths q + 1 and k
            top = 0 if m in (t.q + 1, code.k) else rng.randrange(1, t.size)
            polys.append([rng.randrange(t.size) for _ in range(m - 1)] + [top])
        for coeffs in polys:
            want = [_horner(t, coeffs, a) for a in points]
            assert code.evaluate(coeffs) == want, (params, A.dim, len(coeffs))
            if len(coeffs) <= code.k:
                assert code.encode(coeffs) == want, (params, A.dim, len(coeffs))
        assert code.points == points == tuple(A.enumerate())
        with pytest.raises(ParamViolation, match=f"degree {n} >= n = {n}"):
            code.evaluate([1] * (n + 1))


def test_level_tables_built_lazily_once(monkeypatch, tmp_path, capsys):
    builds = []
    build = RSCode._build_levels
    monkeypatch.setattr(RSCode, "_build_levels", lambda self: builds.append(self) or build(self))
    path = str(tmp_path / "c1.json")
    assert main(["construct", "c1", "--ell", "6", "--out", path]) == 0
    assert main(["metrics", path]) == 0
    code = RSCode(Subspace.full_field(field_create(3, 1, 3)), 20)
    assert builds == []
    first = code.encode(range(20))
    assert code.encode(range(20)) == first and code.evaluate([1]) == [1] * 27
    assert builds == [code]


def _swap_last_points(build):
    """A leaf level whose last two coset constants are swapped: the right
    values in the wrong point order at the last two points."""
    def swapped(self):
        levels = build(self)
        D, low, kap = levels[-1]
        levels[-1] = (D, low, [*kap[:-2], kap[-1], kap[-2]])
        return levels
    return swapped


def test_encode_catches_a_corrupted_level(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(RSCode, "_build_levels", _swap_last_points(RSCode._build_levels))
    code = RSCode(Subspace.full_field(field_create(2, 1, 4)), 13)
    with pytest.raises(CrossCheckMismatch, match="definition at 15"):
        code.encode([1, 2, 3])
    path = str(tmp_path / "c1.json")
    assert main(["construct", "c1", "--ell", "4", "--out", path]) == 0
    capsys.readouterr()
    assert main(["simulate", path, "--trials", "7", "--seed", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("cross-check mismatch") and len(err.splitlines()) == 1
    paths = [os.path.dirname(os.path.dirname(rsrepair.__file__)), os.path.dirname(__file__)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    script = (
        "import sys\n"
        "from rsrepair.rs import RSCode\n"
        "from rsrepair.cli import main\n"
        "from test_rs import _swap_last_points\n"
        "RSCode._build_levels = _swap_last_points(RSCode._build_levels)\n"
        "sys.exit(main(['simulate', sys.argv[1], '--trials', '7', '--seed', '3']))\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", script, path],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert "cross-check mismatch" in proc.stderr and "Traceback" not in proc.stderr


def test_duality_suite_catches_the_wrong_point_order(monkeypatch, capsys):
    # with the spot check gone too, the Horner-side dual codeword still sees it
    monkeypatch.setattr(RSCode, "_build_levels", _swap_last_points(RSCode._build_levels))
    monkeypatch.setattr("rsrepair.rs.spot_check", lambda *args: None)
    assert main(["verify", "--suite", "duality"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False
