"""Comparison tables for the two constructions.

Three tables are supported: repair bandwidth and I/O cost of
construction 1 over GF(2^ell) for ell = 4..14, and the I/O cost
ratio of construction 2 for six (n, r) pairs.  Rows for previously
published schemes are quoted reference values, not computed here;
rows for our constructions are computed live.  Output is
deterministic, so repeated emission is byte-identical.
"""

from decimal import ROUND_HALF_UP, Decimal
from functools import lru_cache

from .constructions import construction1, construction2
from .errors import ParamViolation
from .scheme import metrics_direct

TABLE3_ELLS = (4, 6, 8, 10, 12, 14)

# Construction 2 parameters (ell, d, s, m, r), one per column.  The code
# length is n = 2^d and the trivial repair reads (n - r) * ell bits.
TABLE4_PARAMS = (
    (4, 3, 0, 2, 2),
    (6, 4, 0, 3, 2),
    (8, 5, 0, 4, 2),
    (6, 5, 1, 3, 3),
    (8, 6, 1, 4, 3),
    (8, 7, 2, 4, 5),
)

REF_BANDWIDTH_LABEL = "prior bandwidth-optimal schemes (reference)"
REF_IO_LABEL = "prior io-optimal scheme (reference)"

# Quoted reference values for the prior schemes, indexed like TABLE3_ELLS.
# These schemes are out of scope; only their published numbers are carried.
_REFERENCE_ROWS = {
    "table3_bandwidth": (
        (REF_BANDWIDTH_LABEL, (45, 315, 1785, 9207, 45045, 212979)),
        (REF_IO_LABEL, (44, 314, 1784, 9206, 45044, 212978)),
    ),
    "table3_io": (
        (REF_BANDWIDTH_LABEL, (56, 372, 2032, 10220, 49128, 229348)),
        (REF_IO_LABEL, (44, 314, 1784, 9206, 45044, 212978)),
    ),
}

# Reference ratio row for the prior full-length scheme (ell = log2 n).
_TABLE4_REFERENCE = ("94.4%", "92.9%", "92.7%", "84.8%", "85.8%", "81.0%")

_WHICH = ("table3_bandwidth", "table3_io", "table4")


@lru_cache(maxsize=None)
def _construction1_metrics(ell):
    _, scheme = construction1(ell)
    report = metrics_direct(scheme)
    return report.io_cost, report.bandwidth


@lru_cache(maxsize=None)
def _construction2_ratio(params):
    ell, d, s, m, r = params
    _, _, scheme = construction2(2, ell, d, s, m, r)
    io = metrics_direct(scheme).io_cost
    n = 2 ** d
    percent = Decimal(100 * io) / Decimal((n - r) * ell)
    return percent.quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)


def _table3_rows(which):
    header = ["n"] + ["2^%d" % ell for ell in TABLE3_ELLS]
    rows = [[label] + [str(v) for v in values] for label, values in _REFERENCE_ROWS[which]]
    live = []
    for ell in TABLE3_ELLS:
        io, bandwidth = _construction1_metrics(ell)
        live.append(str(bandwidth if which == "table3_bandwidth" else io))
    rows.append(["construction 1"] + live)
    return header, rows


def _table4_rows():
    header = ["scheme"] + ["n=2^%d r=%d" % (d, r) for ell, d, s, m, r in TABLE4_PARAMS]
    rows = [
        [REF_IO_LABEL] + list(_TABLE4_REFERENCE),
        ["construction 2 ell"] + [str(col[0]) for col in TABLE4_PARAMS],
        ["construction 2"]
        + ["%s%%" % _construction2_ratio(col) for col in TABLE4_PARAMS],
    ]
    return header, rows


def _render_csv(header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_markdown(header, rows):
    widths = [len(cell) for cell in header]
    for row in rows:
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))

    def line(cells):
        padded = [cell.ljust(widths[j]) for j, cell in enumerate(cells)]
        return "| " + " | ".join(padded) + " |"

    lines = [line(header), line(["-" * w for w in widths])]
    lines.extend(line(row) for row in rows)
    return "\n".join(lines) + "\n"


def emit_table(which, format="markdown"):
    """Render table3_bandwidth, table3_io or table4 as csv or markdown text."""
    if which not in _WHICH:
        raise ParamViolation("unknown table %r" % (which,))
    if format not in ("csv", "markdown"):
        raise ParamViolation("unknown table format %r" % (format,))
    header, rows = _table4_rows() if which == "table4" else _table3_rows(which)
    render = _render_csv if format == "csv" else _render_markdown
    return render(header, rows)
