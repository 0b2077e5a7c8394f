"""Command line behavior, including the three documented exit codes."""

import functools
import hashlib
import json
import operator
import os
import random
import subprocess
import sys

import pytest
from conftest import large

import rsrepair
from rsrepair.cli import main
from rsrepair.errors import InvalidScheme, ParamViolation, SingularMatrix
from rsrepair.expsum import CharSum
from rsrepair.gf import max_field_size
from rsrepair.scheme import (
    MetricsReport,
    NormalForm,
    load_scheme,
    metrics_direct,
    save_scheme,
    transform,
)
from rsrepair.suites import random_normalized_scheme


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_field(capsys):
    code, out, _ = _run(capsys, ["field", "--q", "2", "--ell", "4"])
    doc = json.loads(out)
    assert code == 0
    assert doc["size"] == 16 and doc["q"] == 2 and doc["generator"] == 2
    assert doc["modulus"] == [1, 1, 0, 0, 1]


def test_field_prime_power_subfield(capsys):
    code, out, _ = _run(capsys, ["field", "--q", "4", "--ell", "2"])
    doc = json.loads(out)
    assert code == 0 and doc["size"] == 16 and doc["q"] == 4


# (q, ell) -> (generator, subfield generator, modulus): degree-1 towers
# (modulus x), towers whose x is not primitive (GF(2^12) aside, GF(3^8) at
# q = 9, ell = 4) and a > 1
FIELD_PINS = {
    (2, 1): (1, None, [0, 1]), (2, 3): (2, None, [1, 1, 0, 1]), (2, 4): (2, None, [1, 1, 0, 0, 1]),
    (3, 1): (2, None, [0, 1]), (3, 3): (3, None, [1, 2, 0, 1]), (3, 4): (3, None, [2, 1, 0, 0, 1]),
    (4, 1): (2, 2, [1, 1, 1]), (4, 3): (2, 59, [1, 1, 0, 0, 0, 0, 1]),
    (4, 4): (3, 189, [1, 1, 0, 1, 1, 0, 0, 0, 1]),
    (5, 1): (2, None, [0, 1]), (5, 3): (9, None, [1, 1, 0, 1]), (5, 4): (6, None, [2, 0, 0, 0, 1]),
    (9, 1): (4, 4, [1, 0, 1]), (9, 3): (3, 233, [2, 1, 0, 0, 0, 0, 1]),
    (9, 4): (38, 1631, [2, 0, 1, 0, 0, 0, 0, 0, 1]),
}


@pytest.mark.parametrize("q,ell", sorted(FIELD_PINS))
def test_field_pinned_stdout(capsys, q, ell):
    gen, sub_gen, modulus = FIELD_PINS[q, ell]
    p, a = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 9: (3, 2)}[q]
    doc = {"a": a, "ell": ell, "generator": gen,
           "modulus": modulus, "p": p, "q": q, "size": q**ell, "subfield_generator": sub_gen}
    code, out, err = _run(capsys, ["field", "--q", str(q), "--ell", str(ell)])
    assert (code, err) == (0, "")
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


_CORRUPT_IMAGE = (
    "from rsrepair.gf import FieldTower\n"
    "span = FieldTower.span\n"
    "def corrupt(self, gens, size=None, start=0):\n"
    "    if size == self.p:\n"
    "        gens = [self.add(gens[0], 1), *gens[1:]]\n"
    "    return span(self, gens, size, start)\n"
    "FieldTower.span = corrupt\n"
)


def test_corrupted_table_image_exits_2(capsys, corrupt_first_image):
    code, out, err = _run(capsys, ["construct", "c1", "--ell", "4"])
    assert code == 2 and out == ""
    assert "cross-check mismatch" in err and "definition" in err


def test_corrupted_table_image_exits_2_under_O():
    script = _CORRUPT_IMAGE + "import sys\nfrom rsrepair.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script] + _C2_ARGS,
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "definition" in proc.stderr and "Traceback" not in proc.stderr


def test_construct_c1(capsys, tmp_path):
    path = tmp_path / "c1.json"
    code, out, _ = _run(
        capsys, ["construct", "c1", "--ell", "4", "--out", str(path)]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["io_cost"] == 44 and doc["bandwidth"] == 41
    assert doc["n"] == 16 and doc["r"] == 3 and doc["m"] == 4
    assert path.exists()


def test_construct_c1_theta_flag(capsys):
    code, out, _ = _run(capsys, ["construct", "c1", "--ell", "4", "--theta", "paper"])
    assert code == 0 and json.loads(out)["io_cost"] == 44
    code, out, _ = _run(capsys, ["construct", "c1", "--ell", "6", "--theta", "search"])
    assert code == 0 and json.loads(out)["io_cost"] == 314
    code, _, err = _run(capsys, ["construct", "c1", "--ell", "6", "--theta", "paper"])
    assert code == 1 and "ell = 4" in err


def test_construct_c2(capsys):
    code, out, _ = _run(
        capsys,
        ["construct", "c2", "--ell", "6", "--q", "2", "--d", "4", "--m", "3", "--r", "2"],
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["io_cost"] == doc["bandwidth"] == 66
    assert doc["d"] == 4 and doc["k"] == 14


def test_construct_c2_missing_flag(capsys):
    code, _, err = _run(capsys, ["construct", "c2", "--ell", "6", "--q", "2"])
    assert code == 1 and "requires --d" in err


def _saved_scheme(tmp_path, capsys):
    path = tmp_path / "scheme.json"
    code, _, _ = _run(capsys, ["construct", "c1", "--ell", "4", "--out", str(path)])
    assert code == 0
    return str(path)


def test_metrics_cross_checked(capsys, tmp_path):
    path = _saved_scheme(tmp_path, capsys)
    code, out, _ = _run(capsys, ["metrics", path])
    doc = json.loads(out)
    assert code == 0
    assert doc["method"] == "direct+weight+expsum"
    assert doc["io_cost"] == 44 and doc["bandwidth"] == 41
    assert len(doc["per_node"]) == 15
    assert all(rank <= nz for _, nz, rank in doc["per_node"])


@pytest.mark.parametrize("method", ["direct", "weight", "expsum"])
def test_metrics_single_method(capsys, tmp_path, method):
    path = _saved_scheme(tmp_path, capsys)
    code, out, _ = _run(capsys, ["metrics", path, "--method", method])
    doc = json.loads(out)
    assert code == 0
    assert doc["method"] == method
    assert doc["io_cost"] == 44 and doc["bandwidth"] == 41


def test_metrics_mismatch_exits_2(capsys, tmp_path, monkeypatch):
    from rsrepair.scheme import metrics_weight

    path = _saved_scheme(tmp_path, capsys)

    def skewed(nf):
        rep = metrics_weight(nf)
        node, nz, rank = rep.per_node[0]
        per_node = ((node, nz + 1, rank),) + rep.per_node[1:]
        return MetricsReport("weight", per_node)

    monkeypatch.setattr("rsrepair.cli.metrics_weight", skewed)
    code, _, err = _run(capsys, ["metrics", path])
    assert code == 2
    assert "cross-check mismatch" in err


def test_metrics_mismatch_names_first_node(capsys, tmp_path, monkeypatch):
    # the routes agree in total but not per helper: one unit of nz moves
    # from the first helper to the next
    from rsrepair.scheme import metrics_direct, metrics_weight

    path = _saved_scheme(tmp_path, capsys)

    def shifted(nf):
        rep = metrics_weight(nf)
        (a, nz_a, rk_a), (b, nz_b, rk_b), *rest = rep.per_node
        return MetricsReport(rep.method, ((a, nz_a - 1, rk_a), (b, nz_b + 1, rk_b), *rest))

    monkeypatch.setattr("rsrepair.cli.metrics_weight", shifted)
    node, nz, rk = metrics_direct(load_scheme(path)).per_node[0]
    code, out, err = _run(capsys, ["metrics", path])
    assert code == 2 and out == ""
    assert err == (f"cross-check mismatch: direct gives {(node, nz, rk)} "
                   f"but weight_formula gives {(node, nz - 1, rk)}\n")


def test_metrics_uncollapsed_tally_exits_2(capsys, tmp_path, monkeypatch):
    # a character sum that is no rational integer is an arithmetic bug inside
    # the expsum route, not a validation failure
    path = _saved_scheme(tmp_path, capsys)
    monkeypatch.setattr(
        "rsrepair.expsum._normal_form_tally", lambda nf, points: CharSum(3, [1, 2, 0])
    )
    code, _, err = _run(capsys, ["metrics", path])
    assert code == 2
    assert "cross-check mismatch" in err


def test_metrics_uncollapsed_tally_exits_2_under_O(capsys, tmp_path):
    # the route invariants are checks, not asserts, so -O keeps them
    path = _saved_scheme(tmp_path, capsys)
    script = (
        "import sys\n"
        "import rsrepair.expsum as ex\n"
        "from rsrepair.cli import main\n"
        "ex._normal_form_tally = lambda nf, points: ex.CharSum(3, [1, 2, 0])\n"
        "sys.exit(main(['metrics', sys.argv[1]]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "cross-check mismatch" in proc.stderr and "Traceback" not in proc.stderr


# breaks of the digit-packed routes at odd q, each a script prefix: node 2's
# first row zeroed in the packed phi_hat table (argv[2] is its field
# element), or one extra zero vector in every weight-identity span walk, so
# the count of vanishing combinations is no power of q
_PACKED_BREAKS = {
    "packed_entry": (
        "import rsrepair.basis as b\n"
        "build = b.BasisPair.phi_hat_bits\n"
        "def corrupt(self):\n"
        "    table = build(self)\n"
        "    table[int(sys.argv[2])] = 0\n"
        "    return table\n"
        "b.BasisPair.phi_hat_bits = corrupt\n",
        "direct gives (2, "),
    "zero_count": (
        "import rsrepair.scheme as s\n"
        "identity = s.weight_identity\n"
        "class Extra:\n"
        "    def __init__(self, t): self.t = t\n"
        "    def __getattr__(self, name): return getattr(self.t, name)\n"
        "    def span(self, *args): return [0, *self.t.span(*args)]\n"
        "s.weight_identity = lambda tower, k: identity(Extra(tower), k)\n",
        "combinations vanish, not a power of q = 3"),
}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("kind", sorted(_PACKED_BREAKS))
def test_metrics_packed_break_exits_2(capsys, tmp_path, kind, flags):
    # the packed routes' invariants are checks, not asserts, so -O keeps them
    path = str(tmp_path / "scheme.json")
    assert _run(capsys, [*_c2("3", "6", "4", "0", "3", "2"), "--out", path])[0] == 0
    scheme = load_scheme(path)
    victim = scheme.code.eval_poly(scheme.polys[0], scheme.code.points[1])
    prefix, message = _PACKED_BREAKS[kind]
    script = ("import sys\n" + prefix + "from rsrepair.cli import main\n"
              "sys.exit(main(['metrics', sys.argv[1]]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script, path, str(victim)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("cross-check mismatch: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr


# breaks at q = 9, where each value's packed row comes with its closure
# under B: node 2's first row zeroed in the packed table (argv[2] is its
# field element), alone or with its B-multiples, or a GF(p) rank one too
# high, so it is no multiple of a = 2
_ZERO_ROWS = (
    "import rsrepair.basis as b\n"
    "build = b.BasisPair.phi_hat_bits\n"
    "def corrupt(self):\n"
    "    table, t = build(self), self.tower\n"
    "    for c in t.subfield_elements()[1:{}]:\n"
    "        table[t.mul(c, int(sys.argv[2]))] = 0\n"
    "    return table\n"
    "b.BasisPair.phi_hat_bits = corrupt\n"
)
_PRIME_POWER_BREAKS = {
    "packed_entry": (_ZERO_ROWS.format(2), "closure rank not divisible by the subfield degree 2"),
    "packed_span": (_ZERO_ROWS.format(""), "direct gives (2, "),
    "rank_remainder": (
        "import rsrepair.linalg as la\n"
        "rank_bits = la.rank_bits\n"
        "la.rank_bits = lambda rows, tower: rank_bits(rows, tower) + 1\n",
        "closure rank not divisible by the subfield degree 2"),
}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("kind", sorted(_PRIME_POWER_BREAKS))
def test_metrics_prime_power_break_exits_2(capsys, tmp_path, kind, flags):
    path = str(tmp_path / "scheme.json")
    assert _run(capsys, [*_c2("9", "4", "3", "0", "2", "2"), "--out", path])[0] == 0
    scheme = load_scheme(path)
    victim = scheme.code.eval_poly(scheme.polys[0], scheme.code.points[1])
    prefix, message = _PRIME_POWER_BREAKS[kind]
    script = ("import sys\n" + prefix + "from rsrepair.cli import main\n"
              "sys.exit(main(['metrics', sys.argv[1]]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script, path, str(victim)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("cross-check mismatch: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr


# the direct and weight routes reduce the constant rows once per scheme: a
# constant's packed row zeroed (argv[2] is its field element, its
# B-multiples kept) leaves the weight route's ranks above its io at q = 3,
# and the constants' GF(p) closure one short of a multiple of a = 2 at q = 9
_CONSTANT_BREAKS = {
    "q3": (["--q", "3", "--ell", "6", "--d", "4", "--m", "3"], "weight_formula: bandwidth exceeds io cost"),
    "q9": (["--q", "9", "--ell", "4", "--d", "3", "--m", "2"],
           "closure rank not divisible by the subfield degree 2"),
}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("kind", sorted(_CONSTANT_BREAKS))
def test_metrics_constant_row_break_exits_2(capsys, tmp_path, kind, flags):
    params, message = _CONSTANT_BREAKS[kind]
    path = str(tmp_path / "scheme.json")
    assert _run(capsys, ["construct", "c2", *params, "--r", "2", "--out", path])[0] == 0
    scheme = load_scheme(path)
    assert scheme.normal_form.m < scheme.ell and not any(scheme.polys[-1][1:])
    script = ("import sys\n" + _ZERO_ROWS.format(2) + "from rsrepair.cli import main\n"
              "sys.exit(main(['metrics', sys.argv[1]]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script, path, str(scheme.polys[-1][0])],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("cross-check mismatch: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr


# the direct and weight routes reduce each varying row modulo the constants'
# echelon basis through two half tables (linalg.reduction): every table's
# last entry moved by 1 is read by its spot check; every entry the spot
# check skips moved by 1 gives reports that the two routes contradict
_CORRUPT_REDUCTION = (
    "import rsrepair.linalg as la\n"
    "reduction = la.reduction\n"
    "class Corrupt:\n"
    "    def __init__(self, tower):\n"
    "        self.tower = tower\n"
    "    def __getattr__(self, name):\n"
    "        return getattr(self.tower, name)\n"
    "    def span(self, gens, size=None, start=0):\n"
    "        table = self.tower.span(gens, size, start)\n"
    "        n = len(table)\n"
    "        for i in {}:\n"
    "            table[i] = self.tower.add(table[i], 1)\n"
    "        return table\n"
    "la.reduction = lambda basis, tower, *packed: reduction(basis, Corrupt(tower), *packed)\n"
)
_C1_6 = ["construct", "c1", "--ell", "6"]
_C2_Q3 = ["construct", "c2", "--q", "3", "--ell", "6", "--d", "4", "--m", "3", "--r", "2"]
_REDUCTION_BREAKS = {
    "checked-c1": ("[n - 1]", _C1_6, "reduction table disagrees with its definition at 7"),
    "checked-q3": ("[n - 1]", _C2_Q3, "reduction table disagrees with its definition at 26"),
    "skipped-c1": ("[i for i in range(1, n) if (n - 1 - i) % (n // 8 + 1)]", _C1_6,
                   "direct gives (2, 5, 5) but weight_formula gives (2, 4, 4)"),
    "skipped-q3": ("[i for i in range(1, n) if (n - 1 - i) % (n // 8 + 1)]", _C2_Q3,
                   "direct gives (3, 6, 6) but weight_formula gives (3, 6, 5)"),
}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("kind", sorted(_REDUCTION_BREAKS))
def test_metrics_reduction_break_exits_2(capsys, tmp_path, kind, flags):
    entries, argv, message = _REDUCTION_BREAKS[kind]
    path = str(tmp_path / "scheme.json")
    assert _run(capsys, [*argv, "--out", path])[0] == 0
    script = ("import sys\n" + _CORRUPT_REDUCTION.format(entries) + "from rsrepair.cli import main\n"
              "sys.exit(main(['metrics', sys.argv[1]]))\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run([sys.executable, *flags, "-c", script, path], capture_output=True, text=True, env=env,
                          timeout=120)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == f"cross-check mismatch: {message}\n"


# construct checks the expsum route's totals against the construction's
# claim: c1's against a tampered thm6 value, c2's against a route whose
# last helper reads one column more
_CLAIM_BREAKS = {
    "c1": (
        "import rsrepair.cli as c\n"
        "io_lower_bound = c.io_lower_bound\n"
        "c.io_lower_bound = lambda *a, **k: dict(io_lower_bound(*a, **k), value=0)\n",
        ["construct", "c1", "--ell", "4"],
        "construction c1 claims io_cost 0, the expsum route gives 44"),
    "c2": (
        "import rsrepair.cli as c\n"
        "from rsrepair.scheme import MetricsReport\n"
        "route = c.metrics_expsum\n"
        "def tampered(nf):\n"
        "    (*rest, (i, nz, rk)) = route(nf).per_node\n"
        "    return MetricsReport('expsum', (*rest, (i, nz + 1, rk)))\n"
        "c.metrics_expsum = tampered\n",
        ["construct", "c2", "--q", "4", "--ell", "6", "--d", "4", "--m", "3", "--r", "2"],
        "construction c2 claims io_cost 1338, the expsum route gives 1339"),
}


@pytest.mark.parametrize("flags", [(), ("-O",)], ids=["plain", "O"])
@pytest.mark.parametrize("kind", sorted(_CLAIM_BREAKS))
def test_construct_claim_mismatch_exits_2(kind, flags):
    prefix, argv, message = _CLAIM_BREAKS[kind]
    script = "import sys\n" + prefix + "sys.exit(c.main(sys.argv[1:]))\n"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script, *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == f"cross-check mismatch: {message}\n"


# two scaled trace kernels, so a broken intersect leaves W at the wrong dimension
_C2_ARGS = ["construct", "c2", "--q", "2", "--ell", "6", "--d", "4", "--m", "3", "--r", "2"]


@pytest.mark.parametrize("argv", [
    *(["c1", "--ell", "4", option, value] for option, value in
      (("--q", "3"), ("--d", "3"), ("--s", "0"), ("--m", "2"), ("--r", "2"))),
    [*_C2_ARGS[1:], "--theta", "paper"],
    [*_C2_ARGS[1:], "--theta", "auto"],
])
def test_construct_rejects_the_other_kinds_options(capsys, argv):
    code, out, err = _run(capsys, ["construct", *argv])
    assert (code, out, err) == (1, "", f"error: construct {argv[0]} does not take {argv[-2]}\n")


def test_construct_dimension_check_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("rsrepair.subspace.Subspace.intersect", lambda self, *others: self)
    code, _, err = _run(capsys, _C2_ARGS)
    assert code == 2
    assert "cross-check mismatch" in err and "dimension" in err


def test_construct_dimension_check_exits_2_under_O(tmp_path):
    # construction 2's dimension checks are checks, not asserts, so -O keeps them
    script = (
        "import sys\n"
        "from rsrepair.subspace import Subspace\n"
        "from rsrepair.cli import main\n"
        "Subspace.intersect = lambda self, *others: self\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script] + _C2_ARGS,
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "cross-check mismatch" in proc.stderr and "Traceback" not in proc.stderr


def test_construct_dependent_basis_exits_2_under_O():
    # the points of A are checked for being q^dim distinct by a check, not an assert
    script = (
        "import sys\n"
        "from rsrepair.subspace import Subspace\n"
        "from rsrepair.cli import main\n"
        "Subspace.b_basis = lambda self: (1, 1)\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script] + _C2_ARGS,
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "repeats an element" in proc.stderr and "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "doc", [{}, [], "scheme", {"field": {"p": 2, "a": 1, "ell": 4, "modulus": [1, 1, 0, 0, 1]}}]
)
def test_metrics_rejects_malformed_document(capsys, tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["metrics", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1


# c1 at ell = 4 has 4-digit coordinate vectors over GF(2)
@pytest.mark.parametrize("keys,value", [
    (("evaluation_subspace", 0), [0, 0, 0, 0, 1]),
    (("polys", 0, 0), [0, 0, 0, 0, 1]),
    (("basis", "beta", 0), [0, 0, 0, 0, 1]),
    (("evaluation_subspace", 0), [5, 5, 5, 5]),
    (("evaluation_subspace", 0), [1, 1, 1, 2]),
    (("polys", 0, 0), [-1, 0, 0, 0]),
    # the 5-digit modulus: read mod 2, the first two were [1, 1, 0, 0, 1] again
    (("field", "modulus"), [3, 3, 0, 0, 3]),
    (("field", "modulus"), [1, -1, 0, 0, 1]),
    (("field", "modulus"), [1, 1, 0, 0, 1, 0]),
])
def test_metrics_rejects_malformed_coordinates(capsys, tmp_path, keys, value):
    path = tmp_path / "scheme.json"
    _run(capsys, ["construct", "c1", "--ell", "4", "--out", str(path)])
    doc = json.loads(path.read_text())
    *outer, last = keys
    functools.reduce(operator.getitem, outer, doc)[last] = value
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["metrics", str(path)])
    assert code == 1 and out == "" and "Traceback" not in err
    assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
    with pytest.raises(InvalidScheme):
        load_scheme(str(path))


def test_metrics_rejects_document_missing_polys(capsys, tmp_path):
    path = tmp_path / "scheme.json"
    _run(capsys, ["construct", "c1", "--ell", "4", "--out", str(path)])
    doc = json.loads(path.read_text())
    del doc["polys"]
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["metrics", str(path)])
    assert code == 1 and "'polys'" in err
    doc = json.loads(path.read_text())
    doc["polys"] = [[["x"]]]
    path.write_text(json.dumps(doc))
    code, _, err = _run(capsys, ["metrics", str(path)])
    assert code == 1 and "wrong type" in err


def test_metrics_rejects_empty_polys(capsys, tmp_path):
    # no polynomial gives no r to read: the count is reported, not k = n
    path = tmp_path / "scheme.json"
    _run(capsys, ["construct", "c1", "--ell", "4", "--out", str(path)])
    doc = json.loads(path.read_text())
    doc["polys"] = []
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["metrics", str(path)])
    assert (code, out, err) == (1, "", "error: need ell = 4 polynomials, got 0\n")
    with pytest.raises(InvalidScheme, match="got 0"):
        load_scheme(str(path))


def test_metrics_rejects_edited_t(capsys, tmp_path):
    # t follows from the constants, so a file whose t alone was edited is invalid
    path = tmp_path / "scheme.json"
    assert _run(capsys, ["construct", "c1", "--ell", "6", "--out", str(path)])[0] == 0
    doc = json.loads(path.read_text())
    assert doc["normal_form"]["t"] == 4
    doc["normal_form"]["t"] = 3
    path.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["metrics", str(path)])
    assert code == 1 and out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("q", [2, 3])
def test_metrics_constant_among_the_first_m(capsys, tmp_path, q):
    # a scheme file's normal form may hold a constant among g_1..g_m: the
    # weight route reduces modulo g_(m+1)..g_ell alone, at t = m and t < m
    rng, seen = random.Random(q), set()
    while len(seen) < 2:
        nf = random_normalized_scheme(rng, q=q)[0]
        m, ell = nf.m, nf.scheme.ell
        if m == ell:
            continue
        order = [m, *(j for j in range(ell) if j != m)]  # the constant g_(m+1) first
        scheme = transform(nf.scheme, [[int(c == j) for c in range(ell)] for j in order])
        scheme.normal_form = NormalForm(scheme, m + 1)
        if (kind := scheme.normal_form.t == m + 1) in seen:
            continue
        seen.add(kind)
        direct = metrics_direct(scheme)
        path = str(tmp_path / "scheme.json")
        save_scheme(scheme, path)
        code, out, err = _run(capsys, ["metrics", path])
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert (doc["m"], doc["t"]) == (m + 1, scheme.normal_form.t)
        assert (doc["io_cost"], doc["bandwidth"], doc["per_node"]) == (
            direct.io_cost, direct.bandwidth, [list(row) for row in direct.per_node])


def test_metrics_missing_file(capsys, tmp_path):
    code, _, err = _run(capsys, ["metrics", str(tmp_path / "nope.json")])
    assert code == 1 and "error" in err


def test_metrics_malformed_file(capsys, tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = _run(capsys, ["metrics", str(path)])
    assert code == 1


@pytest.mark.parametrize("command", ["metrics", "simulate"])
def test_deeply_nested_file_exits_1(capsys, tmp_path, command):
    # json.load recurses once per "[": too deep a file is invalid input
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000)
    code, out, err = _run(capsys, [command, str(path)])
    assert (code, out) == (1, "") and err.startswith("error: ") and len(err.splitlines()) == 1
    with pytest.raises(InvalidScheme, match="nests too deeply"):
        load_scheme(str(path))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-m", "rsrepair.cli", command, str(path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", err)


def test_simulate(capsys, tmp_path):
    path = _saved_scheme(tmp_path, capsys)
    code, out, _ = _run(capsys, ["simulate", path, "--trials", "7", "--seed", "3"])
    doc = json.loads(out)
    assert code == 0
    assert doc["trials"] == doc["successes"] == 7
    assert doc["io_cost"] == 44 and doc["bandwidth"] == 41


def _pinned_doc(**kw):
    return json.dumps(dict(kw, successes=7, target=1, trials=7), indent=2, sort_keys=True) + "\n"


SIMULATE_PINS = {
    ("c1", "--ell", "4"): _pinned_doc(bandwidth=41, d=4, ell=4, io_cost=44, k=13, m=4, n=16, q=2, r=3, t=4),
    ("c2", "--q", "3", "--ell", "4", "--d", "3", "--s", "0", "--m", "2", "--r", "2"): _pinned_doc(
        bandwidth=86, d=3, ell=4, io_cost=86, k=25, m=2, n=27, q=3, r=2, t=2),
}


@pytest.mark.parametrize("construct", sorted(SIMULATE_PINS))
def test_simulate_pinned_stdout(capsys, tmp_path, construct):
    path = str(tmp_path / "scheme.json")
    assert _run(capsys, ["construct", *construct, "--out", path])[0] == 0
    code, out, err = _run(capsys, ["simulate", path, "--trials", "7", "--seed", "3"])
    assert (code, err) == (0, "")
    assert out == SIMULATE_PINS[construct]


# A broken repair plan: linalg.b_echelon (a helper's basis over B and each
# value's coefficients in it) is corrupted at the first helper with a nonzero
# value: its last basis vector is dropped, or the first coefficient gets 1
# added.  The repaired value or the count of symbols sent goes wrong: a
# cross-check mismatch.
_MUTATIONS = {
    "dropped row": (
        "def mutate(basis, pairs):\n"
        "    s = basis.popitem()[0]\n"
        "    return basis, [[(r, c) for r, c in own if r != s] for own in pairs]\n"
    ),
    "flipped coefficient": (
        "def mutate(basis, pairs):\n"
        "    j = next(j for j, own in enumerate(pairs) if own)\n"
        "    (s, c), *rest = pairs[j]\n"
        "    return basis, [*pairs[:j], [(s, c ^ 1), *rest], *pairs[j + 1:]]\n"
    ),
}
_MUTATE = (
    "import rsrepair.linalg as L\n"
    "b_echelon, done = L.b_echelon, []\n"
    "def mutated(*args):\n"
    "    eliminate = b_echelon(*args)\n"
    "    def reduced(values):\n"
    "        basis, pairs = eliminate(values)\n"
    "        if done or not basis:\n"
    "            return basis, pairs\n"
    "        done.append(1)\n"
    "        return mutate(basis, pairs)\n"
    "    return reduced\n"
)


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_simulate_broken_plan_exits_2(capsys, tmp_path, monkeypatch, mutation):
    path = _saved_scheme(tmp_path, capsys)
    namespace = {}
    exec(_MUTATIONS[mutation] + _MUTATE, namespace)
    monkeypatch.setattr("rsrepair.linalg.b_echelon", namespace["mutated"])
    code, out, err = _run(capsys, ["simulate", path, "--trials", "7", "--seed", "3"])
    assert code == 2 and out == ""
    assert "cross-check mismatch" in err


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_simulate_broken_plan_exits_2_under_O(capsys, tmp_path, mutation):
    path = _saved_scheme(tmp_path, capsys)
    script = _MUTATIONS[mutation] + _MUTATE + "L.b_echelon = mutated\n" + (
        "import sys\nfrom rsrepair.cli import main\n"
        "sys.exit(main(['simulate', sys.argv[1], '--trials', '7', '--seed', '3']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "cross-check mismatch" in proc.stderr and "Traceback" not in proc.stderr


# A repair plan that credits the first helper's first read position to the
# second helper: the value and the totals stay right, the per-helper counts
# do not.
_MISATTRIBUTE = (
    "import rsrepair.scheme as S\n"
    "plan = S._repair_plan\n"
    "from array import array\n"
    "def misattributed(scheme):\n"
    "    p = plan(scheme)\n"
    "    i, j, k = p.support[0], p.support[1], len(p.positions)\n"
    "    support = array('q', p.support)\n"
    "    support[0], support[1] = k, k + 1\n"
    "    return p._replace(support=support, selects=(*p.selects, p.selects[i], p.selects[j]),\n"
    "                      positions=(*p.positions, p.positions[i][1:], p.positions[j] + p.positions[i][:1]))\n"
)


def _misattributed_message(path):
    from rsrepair.scheme import metrics_direct

    node, nz, rk = metrics_direct(load_scheme(path)).per_node[0]
    return f"cross-check mismatch: direct gives {(node, nz, rk)} but repair trial 0 gives {(node, nz - 1, rk)}\n"


def test_simulate_misattributed_read_exits_2(capsys, tmp_path, monkeypatch):
    path = _saved_scheme(tmp_path, capsys)
    namespace = {}
    exec(_MISATTRIBUTE, namespace)
    monkeypatch.setattr("rsrepair.scheme._repair_plan", namespace["misattributed"])
    code, out, err = _run(capsys, ["simulate", path, "--trials", "7", "--seed", "3"])
    assert code == 2 and out == ""
    assert err == _misattributed_message(path)


def test_simulate_misattributed_read_exits_2_under_O(capsys, tmp_path):
    path = _saved_scheme(tmp_path, capsys)
    script = _MISATTRIBUTE + "S._repair_plan = misattributed\n" + (
        "import sys\nfrom rsrepair.cli import main\n"
        "sys.exit(main(['simulate', sys.argv[1], '--trials', '7', '--seed', '3']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == _misattributed_message(path)


# One entry of the repair plan's columns corrupted: the first fold, the
# last log of a w_s (the first w_s times g sends the same traces on the
# first helper's two read positions), or the first helper's end offset
# (its last entry credited to the second helper).
_CORRUPT_PLAN = (
    "import rsrepair.scheme as S\n"
    "plan = S._repair_plan\n"
    "def corrupted(scheme):\n"
    "    p = plan(scheme)\n"
    "    {}\n"
    "    return p\n"
)
_PLAN_CORRUPTIONS = {
    "fold": "p.folds[0] ^= 1",
    "log": "p.logs[-1] = (p.logs[-1] + 1) % scheme.tower.order",
    "offset": "p.offsets[1] -= 1",
}


@pytest.mark.parametrize("column", sorted(_PLAN_CORRUPTIONS))
def test_simulate_corrupted_plan_column_exits_2(capsys, tmp_path, monkeypatch, column):
    path = _saved_scheme(tmp_path, capsys)
    namespace = {}
    exec(_CORRUPT_PLAN.format(_PLAN_CORRUPTIONS[column]), namespace)
    monkeypatch.setattr("rsrepair.scheme._repair_plan", namespace["corrupted"])
    code, out, err = _run(capsys, ["simulate", path, "--trials", "7", "--seed", "3"])
    assert code == 2 and out == ""
    assert err.startswith("cross-check mismatch: ") and err.count("\n") == 1


@pytest.mark.parametrize("column", sorted(_PLAN_CORRUPTIONS))
def test_simulate_corrupted_plan_column_exits_2_under_O(capsys, tmp_path, column):
    path = _saved_scheme(tmp_path, capsys)
    script = _CORRUPT_PLAN.format(_PLAN_CORRUPTIONS[column]) + "S._repair_plan = corrupted\n" + (
        "import sys\nfrom rsrepair.cli import main\n"
        "sys.exit(main(['simulate', sys.argv[1], '--trials', '7', '--seed', '3']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script, path],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "cross-check mismatch" in proc.stderr and "Traceback" not in proc.stderr


def _child(flags, script, *args):
    """Run script in a fresh interpreter with these flags; a hang fails."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    return subprocess.run([sys.executable, *flags, "-c", script, *args],
                          capture_output=True, text=True, env=env, timeout=60)


# linalg.b_echelon storing each pivot value unscaled (basis[s] = v, no
# division by c): at q = 3, taking c w_s off a value with digit s equal to c
# leaves c - c^2 there, so the step does not raise the pivot digit, and
# without its check the loop never ends.
_UNSCALED_PIVOT = (
    "import inspect, sys\n"
    "import rsrepair.linalg as L\n"
    "from rsrepair.cli import main\n"
    "source = inspect.getsource(L.b_echelon)\n"
    "assert 'v if c == 1 else div(v, c)' in source\n"
    "exec(source.replace('v if c == 1 else div(v, c)', 'v'), L.__dict__)\n"
    "sys.exit(main(['simulate', sys.argv[1], '--trials', '3', '--seed', '1']))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_simulate_unscaled_pivot_exits_2(capsys, tmp_path, flags):
    path = str(tmp_path / "q3.json")
    argv = ["construct", "c2", "--q", "3", "--ell", "4", "--d", "3", "--m", "2", "--r", "2", "--out", path]
    assert _run(capsys, argv)[0] == 0
    proc = _child(flags, _UNSCALED_PIVOT, path)
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr.startswith("cross-check mismatch: echelon step over B kept pivot")


# A multiply-by-x walk whose last step repeats the one before it gives an
# exp table that is not a permutation, and the tower build exits 2: x is
# primitive in GF(16) and GF(27), so exp is that walk of <x>; in GF(2^8)
# it is not, and exp doubles from walks of powers of g, and in GF(3^8)
# exp walks the cosets of <x>.
_CORRUPT_WALK = (
    "import sys\n"
    "from rsrepair.cli import main\n"
    "from rsrepair.gf import FieldTower\n"
    "walk = FieldTower._x_walk\n"
    "def corrupted(self, v, n):\n"
    "    out = walk(self, v, n)\n"
    "    return out[:-1] + out[-2:-1] if len(out) > 2 else out\n"
    "FieldTower._x_walk = corrupted\n"
    "sys.exit(main(['field', '--q', sys.argv[1], '--ell', sys.argv[2]]))\n"
)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
@pytest.mark.parametrize("q,ell", [(2, 4), (3, 3), (2, 8), (3, 8)])
def test_field_corrupted_walk_exits_2(flags, q, ell):
    proc = _child(flags, _CORRUPT_WALK, str(q), str(ell))
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert proc.stderr == "cross-check mismatch: exp is not a permutation of F*\n"


def test_simulate_singular_target_exits_2(capsys, tmp_path, monkeypatch):
    path = _saved_scheme(tmp_path, capsys)

    def singular(*args):
        raise SingularMatrix("patched")

    monkeypatch.setattr("rsrepair.linalg.inverse", singular)
    code, out, err = _run(capsys, ["simulate", path, "--trials", "2"])
    assert code == 2 and out == ""
    assert err.startswith("cross-check mismatch") and len(err.strip().splitlines()) == 1


def test_simulate_rejects_negative_trials(capsys, tmp_path):
    path = _saved_scheme(tmp_path, capsys)
    code, out, err = _run(capsys, ["simulate", path, "--trials", "-3"])
    assert code == 1 and out == ""
    assert "--trials" in err and len(err.strip().splitlines()) == 1


def test_bounds_io(capsys):
    code, out, _ = _run(
        capsys, ["bounds", "--q", "2", "--ell", "6", "--d", "4", "--r", "2"]
    )
    doc = json.loads(out)
    assert code == 0
    assert doc["value"] == 66 and doc["theorem"] == "thm4"
    assert doc["tight_known"] is True and doc["quantity"] == "io"


def test_bounds_bandwidth_named_route(capsys):
    code, out, _ = _run(
        capsys,
        ["bounds", "--q", "2", "--ell", "6", "--d", "4", "--r", "2",
         "--quantity", "bandwidth", "--theorem", "thm5"],
    )
    doc = json.loads(out)
    assert code == 0 and doc["value"] == 58 and doc["case"] == "iii"


# a prime of 61 bits and a degree of 10^9, far past the field budget: each
# command answers at once instead of trial-dividing p or raising p to the degree
_BIG_PRIME = "2305843009213693951"


@pytest.mark.parametrize("argv, code, err", [
    (["field", "--q", _BIG_PRIME, "--ell", "1"], 1, f"{_BIG_PRIME}^1"),
    (["bounds", "--q", _BIG_PRIME, "--ell", "2", "--d", "1", "--r", "2"], 0, None),
    (["metrics", {"p": int(_BIG_PRIME), "a": 1}], 1, f"{_BIG_PRIME}^1"),
    (["metrics", {"p": 3, "a": 10**9}], 1, "3^1000000000"),
], ids=["field", "bounds", "metrics", "metrics-degree"])
def test_huge_field_answers_at_once(tmp_path, argv, code, err):
    if argv[0] == "metrics":
        path = tmp_path / "scheme.json"
        path.write_text(json.dumps({
            "field": {**argv[1], "ell": 1, "modulus": [1, 1]},
            "basis": {"beta": [[1]], "gamma": [[1]]}, "evaluation_subspace": [[1]], "polys": [[[1]]]}))
        argv = ["metrics", str(path)]
    script = "import sys\nfrom rsrepair.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)))
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=2)
    assert proc.returncode == code, proc.stderr
    if code:
        assert proc.stderr == f"error: field size {err} exceeds budget (raise RSREPAIR_MAX_FIELD_BITS to override)\n"
    else:
        assert json.loads(proc.stdout)["value"] == (int(_BIG_PRIME) - 1) * 2 - 2


def test_bounds_unsupported(capsys):
    code, _, err = _run(
        capsys, ["bounds", "--q", "3", "--ell", "4", "--d", "3", "--r", "3"]
    )
    assert code == 1 and "error" in err


def test_bounds_rejects_the_other_quantitys_route(capsys):
    query = ["bounds", "--q", "2", "--ell", "4", "--d", "4", "--r", "2"]
    for extra, message in ((["--theorem", "thm5"], "unknown I/O route 'thm5'"),
                           (["--quantity", "bandwidth", "--theorem", "thm4"],
                            "unknown bandwidth route 'thm4'")):
        code, out, err = _run(capsys, query + extra)
        assert (code, out, err) == (1, "", f"error: {message}\n")


def test_tables_csv(capsys):
    code, out, _ = _run(capsys, ["tables", "--which", "3a", "--format", "csv"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()]
    assert rows[0][:2] == ["n", "2^4"]
    live = rows[-1]
    assert live[1:] == ["41", "300", "1733", "9002", "44228", "209714"]
    code, out, _ = _run(capsys, ["tables", "--which", "3b", "--format", "csv"])
    assert code == 0
    assert out.strip().splitlines()[-1].split(",")[1:] == [
        "44", "314", "1784", "9206", "45044", "212978",
    ]


def test_tables_markdown(capsys):
    code, out, _ = _run(capsys, ["tables", "--which", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("|")
    assert "83.3%" in out and "77.2%" in out


def test_verify_suite(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "lemma5", "--seed", "5"])
    doc = json.loads(out)
    assert code == 0
    assert doc["passed"] and doc["failures"] == []


def test_verify_all(capsys):
    code, out, _ = _run(capsys, ["verify", "--size", "6"])
    doc = json.loads(out)
    assert code == 0
    assert doc["suite"] == "all" and doc["passed"]
    assert {r["suite"] for r in doc["reports"]} >= {"char", "expsum", "weil"}


def _c2(q, ell, d, s, m, r):
    return ("construct", "c2", "--q", q, "--ell", ell, "--d", d, "--s", s, "--m", m, "--r", r)


# SHA-256 of outputs that must stay byte-identical: the stdout of verify (its
# expsum suite runs normalize), saved c2 scheme files, which cover trace
# kernels with s > 0 and towers with a > 1, and the stdout of commands that
# read a scheme file.  There a construct argv stands for the file it saves,
# stripped of its normal form when it ends in _STRIPPED (metrics then runs
# normalize); simulate at q = 3 and 4 runs the repair plan off GF(2).
_STRIPPED = "strip normal form"
OUTPUT_DIGESTS = {
    ("verify", "--suite", "all", "--seed", "0"):
        "ac9ed81fcc28b15f2585b854333a2972f001d364f0b0d8e4bac3d49b5acac017",
    _c2("3", "6", "5", "1", "3", "4"): "1f48a1c257ec6f35604e9fdd1a75aaa65ecd47dbc0003c1bfd2d5c6f2573a559",
    _c2("2", "8", "7", "2", "4", "5"): "dd610896f9405b95512f8cc850f4545dea1142ab42d437379a5024ffddac5ac2",
    _c2("9", "4", "3", "0", "2", "2"): "5c7b28a5dbb756bbfa66c70b6ddac36caa47dd30b79ec2e5ca848797e369f2d4",
    _c2("4", "6", "4", "0", "3", "2"): "8817e95c67721ae7a93732058cbd9e2ad2769ac60354e8de936f1ae0a2c7435f",
    ("metrics", ("construct", "c1", "--ell", "8")):
        "dc5f9b05c6c422057c03eee127d7d33f1697aa8cb289005e467248b425bc3d2d",
    ("metrics", (*_c2("9", "4", "3", "0", "2", "2"), _STRIPPED)):
        "0db1c8ef36bd8cce10c141b7b7f696726d4b0814d67ff980055d99022f622f8d",
    ("metrics", _c2("3", "6", "5", "1", "3", "4")):
        "d7de97290e50ef084d463929ebdc14226b58815b168ead89c3ee08b1606cb102",
    ("metrics", _c2("5", "6", "4", "0", "3", "2")):
        "9619359ec9a053c96b83e8f66860722a066bfc7962046612b3f94c5ab40deb9c",
    ("metrics", (*_c2("3", "6", "4", "0", "3", "2"), _STRIPPED)):
        "7284fbdf14a441bf0cf5fdff90ceb9cc5502ddc5a4b09ae8ef4101894cf3344e",
    ("simulate", _c2("3", "6", "4", "0", "3", "2"), "--trials", "3"):
        "36d86d7f9d1363c73328c5abccebb6d34ee9421b101d79c47dca8cc369e63b7a",
    ("simulate", _c2("4", "6", "4", "0", "3", "2"), "--trials", "3"):
        "442401e36ebf5b9125d2f0bf63bb4655abec21f10c5eba151b26b533db4fbbc8",
    ("metrics", _c2("4", "6", "4", "0", "3", "2")):
        "e1c61d2c8d3a0fff7fd566fb9872fe8cfd82240f4d048e5c126b6baeadb09998",
    ("metrics", ("construct", "c1", "--ell", "12")):
        "d0636ddfc6f751430e3df8b59d3f51da2249a5182e84cb3953bd9a6a1a2f42d7",
}


@pytest.mark.parametrize("argv", list(OUTPUT_DIGESTS))
def test_output_digests_pinned(capsys, tmp_path, argv):
    path = tmp_path / "scheme.json"
    cmd = list(argv)
    if argv[0] == "construct":
        cmd += ["--out", str(path)]
    elif isinstance(argv[1], tuple):
        construct = [a for a in argv[1] if a != _STRIPPED]
        assert _run(capsys, [*construct, "--out", str(path)])[0] == 0
        if _STRIPPED in argv[1]:
            doc = json.loads(path.read_text())
            del doc["normal_form"]
            path.write_text(json.dumps(doc))
        cmd[1] = str(path)
    code, out, err = _run(capsys, cmd)
    assert (code, err) == (0, "")
    data = path.read_bytes() if argv[0] == "construct" else out.encode()
    assert hashlib.sha256(data).hexdigest() == OUTPUT_DIGESTS[argv]


# SHA-256 of construct's own stdout (no --out): the summary with io_cost and
# bandwidth, at q = 2, 3, 4 and 9
CONSTRUCT_STDOUT_DIGESTS = {
    ("construct", "c1", "--ell", "8"): "15d9e99d4f7011bcc7b647d6cbd54228744547947cd5c8b615f622b0a7345ec9",
    _c2("9", "4", "3", "0", "2", "2"): "31e63526aad3f9547e29583fda74d411e856162248c1fa8495cc1f341cc15606",
    _c2("4", "6", "4", "0", "3", "2"): "b39303548cdea0c818ab8777b92d60857781b9d7d5cee6a5572c46d29837c98c",
    _c2("3", "6", "5", "1", "3", "4"): "09335b4a004e908d8339b243fe651d284464b6e3571b43808c096e511de48d24",
}


@pytest.mark.parametrize("argv", list(CONSTRUCT_STDOUT_DIGESTS))
def test_construct_stdout_pinned(capsys, argv):
    code, out, err = _run(capsys, list(argv))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CONSTRUCT_STDOUT_DIGESTS[argv]


@large
def test_metrics_c1_ell16_digest_pinned(capsys, tmp_path):
    # 65,535 per-node rows: the streamed writer at scale
    path = str(tmp_path / "c1.json")
    assert _run(capsys, ["construct", "c1", "--ell", "16", "--out", path])[0] == 0
    code, out, err = _run(capsys, ["metrics", path])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "48adaf34222c41090ea3021a7d2dba166bb9ed477aa3c2c665e12bd2080c0564")


# every command's document; the scheme file of metrics and simulate is the
# one that construct c1 --ell 4 (or c2 at q = 3 for "c2") saves
_EMIT_ARGV = (
    ("field", "--q", "9", "--ell", "2"),
    ("construct", "c1", "--ell", "6"),
    _c2("3", "6", "5", "1", "3", "4"),
    ("metrics", "c1"),
    ("metrics", "c2"),
    *(("metrics", "c1", "--method", method) for method in ("direct", "weight", "expsum")),
    ("simulate", "c2", "--trials", "2"),
    ("bounds", "--q", "2", "--ell", "6", "--d", "6", "--r", "3"),
    ("bounds", "--q", "4", "--ell", "4", "--d", "3", "--r", "2", "--quantity", "bandwidth"),
    ("verify", "--suite", "all", "--size", "4"),
)


def _same_text(got, want):
    """Fail unless got == want, naming both lengths, the first differing
    offset and 80 characters around it: pytest's own diff of multi-MB
    strings takes minutes."""
    if got != want:
        at = next((k for k, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        window = slice(max(at - 40, 0), at + 40)
        pytest.fail(f"emitted {len(got)} characters, json.dumps {len(want)}; first difference at {at}: "
                    f"{got[window]!r} != {want[window]!r}")


@pytest.mark.parametrize("argv", _EMIT_ARGV, ids=" ".join)
def test_emit_writes_json_dumps_bytes(capsys, tmp_path, monkeypatch, argv):
    import rsrepair.cli as cli

    files = {}
    for name, construct in (("c1", ["construct", "c1", "--ell", "4"]), ("c2", list(_c2("3", "4", "3", "0", "2", "2")))):
        files[name] = str(tmp_path / f"{name}.json")
        assert _run(capsys, [*construct, "--out", files[name]])[0] == 0
    docs = []
    emit = cli._emit
    monkeypatch.setattr(cli, "_emit", lambda doc: (docs.append(doc), emit(doc)))
    if argv[0] in ("metrics", "simulate"):
        argv = (argv[0], files[argv[1]], *argv[2:])
    code, out, err = _run(capsys, list(argv))
    assert (code, err, len(docs)) == (0, "", 1)
    # a metrics report in the document stands for its per_node triples
    _same_text(out, json.dumps(docs[0], indent=2, sort_keys=True, default=lambda rep: rep.per_node) + "\n")


_EDGE_DOCS = (
    {}, [], (), 0, -7, 2**70, 1.5, -0.0, 1e300, float("inf"), float("nan"), True, None, "x",
    {"a": {}, "b": [], "c": [[]], "d": [{}], "e": [[], {}, [1]]},
    {"z": 1, "a": [1, 2, -3], "m": (4, 5), "k": [True, False, None], "f": [1.0, 2], "n": [1, "1"]},
    {"nested": [[1, [2, [3, {"deep": [4]}]]], {"x": {"y": {"z": None}}}]},
    {"esc": "quote \" backslash \\ newline \n tab \t nul \x00 bell \x07", "\u00e9t\u00e9": "na\u00efve \u2713 \U0001d11e"},
    {"big": [2**64, -(2**63)], "bool_ints": [1, True, 0, False]},
)


@pytest.mark.parametrize("doc", _EDGE_DOCS, ids=repr)
def test_emit_edge_documents(capsys, doc):
    from rsrepair.cli import _emit

    _emit(doc)
    assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# reports written from their columns: empty, nested at another depth, and
# across the 4,096-row chunks
_REPORT_DOCS = {
    "empty": lambda: {"per_node": MetricsReport("direct", ())},
    "nested": lambda: [{"a": [MetricsReport("direct", ((2, 1, 1), (3, 2, 0)))]}, 1],
    "chunks": lambda: {"n": 1, "per_node": MetricsReport("direct", ((i, i % 7 + 1, i % 3) for i in range(2, 9000)))},
}


@pytest.mark.parametrize("kind", sorted(_REPORT_DOCS))
def test_emit_report_documents(capsys, kind):
    from rsrepair.cli import _emit

    doc = _REPORT_DOCS[kind]()
    _emit(doc)
    _same_text(capsys.readouterr().out, json.dumps(doc, indent=2, sort_keys=True, default=lambda rep: rep.per_node) + "\n")


def test_emit_keeps_no_report(capsys):
    # json.dumps's encoder is a cycle of closures: a report it saw must not
    # outlive _emit until the next garbage collection
    from rsrepair.cli import _emit

    report = MetricsReport("direct", ((2, 1, 1), (3, 2, 0)))
    before = sys.getrefcount(report)
    _emit({"per_node": report})
    assert sys.getrefcount(report) == before


def test_usage_errors_exit_1(capsys):
    for argv in (
        ["bounds", "--q", "2"],
        ["tables", "--which", "9"],
        ["metrics"],
        ["nonsense"],
    ):
        with pytest.raises(SystemExit) as ei:
            main(argv)
        assert ei.value.code == 1
    capsys.readouterr()


def test_validation_errors_exit_1(capsys):
    code, _, err = _run(capsys, ["field", "--q", "6", "--ell", "2"])
    assert code == 1 and "prime power" in err
    code, _, err = _run(capsys, ["construct", "c1", "--ell", "5"])
    assert code == 1 and "even" in err
    code, out, err = _run(capsys, ["verify", "--size", "-1"])
    assert code == 1 and out == ""
    assert "non-negative" in err and len(err.strip().splitlines()) == 1
    for quantity in ("io", "bandwidth"):
        argv = ["bounds", "--q", "6", "--ell", "4", "--d", "4", "--r", "2", "--quantity", quantity]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err == "error: q = 6 is not a prime power\n"
        # no RS code has k = q^d - r < 1
        argv = ["bounds", "--q", "2", "--ell", "1", "--d", "1", "--r", "2", "--quantity", quantity]
        code, out, err = _run(capsys, argv)
        assert code == 1 and out == ""
        assert err == "error: need k = q^d - r >= 1, got q^d = 2, r = 2\n"
    # ell = 1 is valid when k >= 1: coro11 takes an exact integer square root
    code, out, err = _run(capsys, ["bounds", "--q", "3", "--ell", "1", "--d", "1", "--r", "2"])
    assert (code, err, json.loads(out)["value"]) == (0, "", 1)


def _garbage_file(tmp_path, capsys, monkeypatch):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    return main(["metrics", str(path)])


def _broken_plan(tmp_path, capsys, monkeypatch):
    path = _saved_scheme(tmp_path, capsys)
    namespace = {}
    exec(_MUTATIONS["dropped row"] + _MUTATE, namespace)
    monkeypatch.setattr("rsrepair.linalg.b_echelon", namespace["mutated"])
    return main(["simulate", path, "--trials", "7", "--seed", "3"])


def _emit_set(tmp_path, capsys, monkeypatch):
    from rsrepair.cli import _emit

    with pytest.raises(TypeError, match="set is not JSON serializable"):
        _emit({"a": [1, 2], "b": {3}})


# each case returns its exit code (None for _emit, which raises)
_FAILING = {
    "field": (1, lambda *_: main(["field", "--q", "6", "--ell", "2"])),
    "construct": (1, lambda *_: main(["construct", "c1", "--ell", "5"])),
    # a 6,025-digit value: the document is built, json.dumps hits the
    # int-to-str digit limit
    "bounds": (1, lambda *_: main(["bounds", "--q", "2", "--ell", "20000", "--d", "20000", "--r", "2"])),
    "metrics": (1, _garbage_file),
    "simulate": (2, _broken_plan),
    "emit": (None, _emit_set),
}


@pytest.mark.parametrize("case", sorted(_FAILING))
def test_failing_command_writes_nothing(capsys, tmp_path, monkeypatch, case):
    want, run = _FAILING[case]
    code = run(tmp_path, capsys, monkeypatch)
    out, err = capsys.readouterr()
    assert (code, out) == (want, "")
    assert len(err.splitlines()) == (want is not None)


def _field_cli(ell, bits):
    # a fresh interpreter: field_create caches towers built under another budget
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(rsrepair.__file__)),
               RSREPAIR_MAX_FIELD_BITS=bits)
    return subprocess.run([sys.executable, "-m", "rsrepair.cli", "field", "--q", "2", "--ell", str(ell)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_max_field_bits_honoured():
    assert _field_cli(10, "10").returncode == 0
    proc = _field_cli(11, "10")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: field size 2^11 exceeds budget (raise RSREPAIR_MAX_FIELD_BITS to override)\n"


@pytest.mark.parametrize("value", ["abc", "-1", "1.5", ""])
def test_max_field_bits_malformed(monkeypatch, value):
    monkeypatch.setenv("RSREPAIR_MAX_FIELD_BITS", value)
    message = f"RSREPAIR_MAX_FIELD_BITS must be a non-negative integer, got {value!r}"
    with pytest.raises(ParamViolation) as ei:
        max_field_size()
    assert str(ei.value) == message
    proc = _field_cli(3, value)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", f"error: {message}\n")
