"""Table emission: reference literals, live columns, determinism."""

import pytest

from rsrepair import emit_table
from rsrepair.errors import ParamViolation


def test_spec_validation():
    with pytest.raises(ParamViolation):
        emit_table("table9")
    with pytest.raises(ParamViolation):
        emit_table("table4", format="html")


def test_bandwidth_table_rows():
    out = emit_table("table3_bandwidth", format="csv")
    lines = out.strip().splitlines()
    assert lines[0] == "n,2^4,2^6,2^8,2^10,2^12,2^14"
    cells = [line.split(",") for line in lines[1:]]
    assert cells[0][1:] == ["45", "315", "1785", "9207", "45045", "212979"]
    assert cells[1][1:] == ["44", "314", "1784", "9206", "45044", "212978"]
    assert cells[2][0] == "construction 1"
    assert cells[2][1:] == ["41", "300", "1733", "9002", "44228", "209714"]


def test_io_table_rows():
    out = emit_table("table3_io", format="csv")
    cells = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert cells[0][1:] == ["56", "372", "2032", "10220", "49128", "229348"]
    assert cells[1][1:] == ["44", "314", "1784", "9206", "45044", "212978"]
    # the computed read costs match the prior optimum column for column
    assert cells[2][1:] == cells[1][1:]


def test_ratio_table_rows():
    out = emit_table("table4", format="csv")
    lines = out.strip().splitlines()
    assert lines[0].split(",")[1] == "n=2^3 r=2"
    cells = [line.split(",") for line in lines[1:]]
    assert cells[0][1:] == ["94.4%", "92.9%", "92.7%", "84.8%", "85.8%", "81.0%"]
    assert cells[1][1:] == ["4", "6", "8", "6", "8", "8"]
    assert cells[2][1:] == ["83.3%", "78.6%", "76.7%", "79.3%", "77.0%", "77.2%"]


def test_determinism_and_markdown():
    out = emit_table("table3_bandwidth", format="csv")
    assert out == emit_table("table3_bandwidth", format="csv")
    md = emit_table("table4")
    lines = md.splitlines()
    assert lines[0].startswith("| scheme")
    assert set(lines[1]) <= {"|", "-", " "}
    # every row padded to the same width
    assert len({len(line) for line in lines if line}) == 1
