"""The error classes and the exit-code contract: every library error is an
RSRepairError, invalid input exits 1 and a broken internal invariant exits 2."""

import inspect
import pathlib
import re

import pytest

import rsrepair
from rsrepair import errors, gf, linalg
from rsrepair.cli import main
from rsrepair.constructions import qpoly_annihilator
from rsrepair.errors import CrossCheckMismatch, ParamViolation, RSRepairError
from rsrepair.expsum import CharSum
from rsrepair.gf import FieldTower, field_create
from rsrepair.subspace import Subspace

SRC = pathlib.Path(rsrepair.__file__).parent
CLASSES = [c for _, c in inspect.getmembers(errors, inspect.isclass) if c.__module__ == errors.__name__]


def _source():
    return "\n".join(p.read_text() for p in sorted(SRC.glob("*.py")))


def test_six_classes_under_one_base():
    assert sorted(c.__name__ for c in CLASSES) == [
        "CrossCheckMismatch", "InvalidScheme", "ParamViolation",
        "RSRepairError", "SingularMatrix", "UnsupportedRegime"]
    assert all(issubclass(c, RSRepairError) for c in CLASSES)


def test_every_subclass_is_raised_and_the_base_never_bare():
    raised = set(re.findall(r"raise (\w+)\(", _source()))
    assert {c.__name__ for c in CLASSES if c is not RSRepairError} <= raised
    assert "RSRepairError" not in raised


def test_no_plain_value_error_raised():
    assert "raise ValueError" not in _source()


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_cli_exit_code_per_class(capsys, monkeypatch, cls):
    def fail(*args):
        raise cls("patched")

    monkeypatch.setattr("rsrepair.cli.field_create", fail)
    code = main(["field", "--q", "2", "--ell", "3"])
    err = capsys.readouterr().err
    if cls is CrossCheckMismatch:
        assert (code, err) == (2, "cross-check mismatch: patched\n")
    else:
        assert (code, err) == (1, "error: patched\n")


_GF8, _GF16 = Subspace.full_field(field_create(2, 1, 3)), Subspace.full_field(field_create(2, 1, 4))

# input checks of the arithmetic layers, each with its message
INPUT_CHECKS = {
    "inverse_of_zero": (lambda: field_create(2, 1, 4).inv(0), "0 has no inverse"),
    "charsum_counts": (lambda: CharSum(3, [1, 2]), "one count per residue"),
    "tower_degree": (lambda: FieldTower(2, 0, 3), "a and ell must be positive"),
    "tower_modulus": (lambda: FieldTower(2, 1, 4, modulus=[1, 1, 0, 1]), "modulus must be monic"),
    "subfield_size": (lambda: field_create(2, 1, 4).subfield(8), "no subfield of size 8 in"),
    "intersect": (lambda: _GF8.intersect(_GF16), "intersection of subspaces of different towers"),
    "add": (lambda: _GF8.add(_GF16), "sum of subspaces of different towers"),
}


@pytest.mark.parametrize("site", sorted(INPUT_CHECKS))
def test_input_checks_are_param_violations(site):
    call, message = INPUT_CHECKS[site]
    try:
        call()
    except RSRepairError as e:
        assert isinstance(e, ParamViolation) and message in str(e)
    else:
        pytest.fail(f"{site} did not raise")


# -- internal invariants: only an arithmetic bug reaches them, so they exit 2


def test_missing_irreducible_is_a_cross_check(capsys, monkeypatch):
    monkeypatch.setattr(gf, "_is_irreducible", lambda f, p: False)
    # the uncached builder, so the tower is really built under the patch
    monkeypatch.setattr("rsrepair.cli.field_create", field_create.__wrapped__)
    with pytest.raises(CrossCheckMismatch, match=r"no irreducible of degree 3 over GF\(2\)"):
        field_create.__wrapped__(2, 1, 3)
    assert main(["field", "--q", "2", "--ell", "3"]) == 2
    assert capsys.readouterr().err == "cross-check mismatch: no irreducible of degree 3 over GF(2)\n"


@pytest.mark.parametrize("p,ell", [(2, 3), (3, 2)])
def test_missing_primitive_element_is_a_cross_check(monkeypatch, p, ell):
    monkeypatch.setattr(FieldTower, "_pow_raw", lambda self, x, e: 1)
    with pytest.raises(CrossCheckMismatch, match="no primitive element found"):
        FieldTower(p, 1, ell)


@pytest.mark.parametrize("p,ell", [(3, 3), (3, 8)])
def test_walk_of_x_that_does_not_close_is_a_cross_check(monkeypatch, p, ell):
    # a walk that returns to its start one step late: its cycle length, the
    # order of x plus 1, does not divide the group order
    walk = FieldTower._x_walk
    monkeypatch.setattr(FieldTower, "_x_walk", lambda self, v, n: walk(self, v, n) + [v])
    with pytest.raises(CrossCheckMismatch, match=f"the walk of x does not close in {p**ell - 1} steps"):
        FieldTower(p, 1, ell)


def test_subfield_order_mismatch_is_a_cross_check():
    t = FieldTower(2, 1, 4)
    t.exp = [1] * t.order  # every step lands on 1: the subfield comes out too small
    with pytest.raises(CrossCheckMismatch, match=r"no subfield of size 4 \(generator order mismatch\)"):
        t.subfield(4)


def test_moore_kernel_off_the_line_is_a_cross_check(monkeypatch):
    t = field_create(2, 1, 4)
    monkeypatch.setattr(linalg, "right_kernel", lambda tower, rows, width: [[1, 0], [0, 1]])
    with pytest.raises(CrossCheckMismatch, match="Moore system kernel is not the expected line"):
        qpoly_annihilator([1], t)
