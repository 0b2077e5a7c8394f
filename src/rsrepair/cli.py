"""Command line front end.

Subcommands: field, construct, metrics, simulate, bounds, tables, verify.
Results are printed as JSON (tables as csv or markdown text).  Exit codes:
0 on success, 1 when inputs fail validation, 2 when two independent
computations of the same quantity disagree, which is always a bug; metrics
and simulate compare per-helper reports with scheme.cross_check.
"""

import argparse
import json
import random
import sys

from .bounds import ROUTES, bandwidth_lower_bound, io_lower_bound
from .constructions import construction1, construction2
from .errors import CrossCheckMismatch, ParamViolation, RSRepairError
from .gf import field_create, split_prime_power
from .scheme import (
    AccessCounter,
    MetricsReport,
    cross_check,
    load_scheme,
    metrics_direct,
    metrics_expsum,
    metrics_weight,
    normalize,
    repair_node,
    save_scheme,
)
from .suites import SUITE_NAMES, run_suite
from .tables import emit_table


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; 2 is reserved for
    # cross-check mismatches here, so downgrade usage errors to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# json.dumps renders the NULs as \u0000 escapes, which no other string in a
# CLI document holds: a scheme path with a NUL byte fails before any emit
_REPORT_MARK = "\x00per_node\x00"


def _emit(doc):
    """Write doc and a newline to stdout in the bytes of json.dumps(doc,
    indent=2, sort_keys=True).  A MetricsReport in doc stands for its
    per_node triples: json.dumps renders a marker in its place, and its rows
    are written from its columns in chunks, at the indent of the marker's
    line, so per_node never exists as one string.  Nothing is written
    unless json.dumps succeeds."""
    reports = []

    def default(value):
        if not isinstance(value, MetricsReport):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        reports.append(value)
        return _REPORT_MARK

    pieces = json.dumps(doc, indent=2, sort_keys=True, default=default).split(json.dumps(_REPORT_MARK))
    write = sys.stdout.write
    write(pieces[0])
    for before, report, after in zip(pieces, reports, pieces[1:]):
        line = before[before.rfind("\n") + 1:]
        nl = "\n" + line[:len(line) - len(line.lstrip(" "))]
        inner = nl + "  "
        row = "[" + inner + "  %d," + inner + "  %d," + inner + "  %d" + inner + "]"
        sep = "[" + inner
        for start in range(0, len(report.nodes), 4096):
            cut = slice(start, start + 4096)
            rows = zip(report.nodes[cut], report.nz[cut], report.ranks[cut])
            write(sep + ("," + inner).join([row % r for r in rows]))
            sep = "," + inner
        write(nl + "]" if report.nodes else "[]")
        write(after)
    write("\n")
    # json.dumps's encoder is a cycle of closures that holds default, and so
    # the reports, until the next garbage collection
    reports.clear()


def _scheme_summary(scheme):
    code = scheme.code
    doc = {
        "q": code.tower.q,
        "ell": code.tower.ell,
        "n": code.n,
        "k": code.k,
        "r": code.r,
        "d": code.A.dim,
        "target": scheme.target,
    }
    if scheme.normal_form is not None:
        doc["m"] = scheme.normal_form.m
        doc["t"] = scheme.normal_form.t
    return doc


def _cmd_field(args):
    p, a = split_prime_power(args.q)
    tower = field_create(p, a, args.ell)
    doc = tower.to_json()
    doc.update(
        q=tower.q,
        size=tower.size,
        generator=tower.generator,
        subfield_generator=tower.subfield_generator,
    )
    _emit(doc)
    return 0


def _cmd_construct(args):
    other = ("q", "d", "s", "m", "r") if args.kind == "c1" else ("theta",)
    if given := [f"--{name}" for name in other if getattr(args, name) is not None]:
        raise ParamViolation(f"construct {args.kind} does not take {' '.join(given)}")
    if args.kind == "c1":
        strategy = "paper_example" if args.theta == "paper" else args.theta or "auto"
        _, scheme = construction1(args.ell, theta_strategy=strategy)
        claim = {"io_cost": io_lower_bound(2, args.ell, args.ell, 3, theorem="thm6")["value"]}
    else:
        for name in ("q", "d", "m", "r"):
            if getattr(args, name) is None:
                raise ParamViolation(f"construct c2 requires --{name}")
        _, _, scheme = construction2(args.q, args.ell, args.d, args.s or 0, args.m, args.r)
        value = (args.q**args.d - 1) * args.ell - args.m * args.q ** (args.d - 1)
        claim = {"io_cost": value, "bandwidth": value}
    report = metrics_expsum(scheme.normal_form)  # checked against the claim
    for key, value in claim.items():
        if (got := getattr(report, key)) != value:
            raise CrossCheckMismatch(f"construction {args.kind} claims {key} {value}, the expsum route gives {got}")
    doc = _scheme_summary(scheme)
    doc.update(kind=args.kind, io_cost=report.io_cost, bandwidth=report.bandwidth)
    if args.out:
        save_scheme(scheme, args.out)
        doc["saved"] = args.out
    _emit(doc)
    return 0


def _metrics_all(scheme):
    """Cross-check the three computations; any disagreement is fatal."""
    direct = metrics_direct(scheme)
    nf = scheme.normal_form or normalize(scheme)
    return cross_check(direct, metrics_weight(nf), metrics_expsum(nf))


def _cmd_metrics(args):
    scheme = load_scheme(args.scheme)
    if args.method == "direct":
        report = metrics_direct(scheme)
    elif args.method in ("weight", "expsum"):
        nf = scheme.normal_form or normalize(scheme)
        report = metrics_weight(nf) if args.method == "weight" else metrics_expsum(nf)
    else:
        report = _metrics_all(scheme)
    doc = _scheme_summary(scheme)
    doc.update(
        method=args.method or "direct+weight+expsum",
        io_cost=report.io_cost,
        bandwidth=report.bandwidth,
        per_node=report,
    )
    _emit(doc)
    return 0


def _cmd_simulate(args):
    if args.trials < 0:
        raise ParamViolation(f"--trials must be non-negative, got {args.trials}")
    scheme = load_scheme(args.scheme)
    code = scheme.code
    tower = code.tower
    report = metrics_direct(scheme)
    rng = random.Random(args.seed)
    for trial in range(args.trials):
        codeword = code.encode([rng.randrange(tower.size) for _ in range(code.k)])
        value, counter = repair_node(scheme, codeword, AccessCounter())
        if value != codeword[scheme.target - 1]:
            raise CrossCheckMismatch(
                f"trial {trial}: repaired {value}, codeword holds "
                f"{codeword[scheme.target - 1]}"
            )
        cross_check(report, counter.report(f"repair trial {trial}"))
    doc = _scheme_summary(scheme)
    doc.update(
        trials=args.trials,
        successes=args.trials,
        io_cost=report.io_cost,
        bandwidth=report.bandwidth,
    )
    _emit(doc)
    return 0


def _cmd_bounds(args):
    if args.quantity == "io":
        res = io_lower_bound(args.q, args.ell, args.d, args.r, theorem=args.theorem)
    else:
        res = bandwidth_lower_bound(args.q, args.ell, args.d, args.r, theorem=args.theorem)
    res["quantity"] = args.quantity
    _emit(res)
    return 0


_TABLE_NAMES = {"3a": "table3_bandwidth", "3b": "table3_io", "4": "table4"}


def _cmd_tables(args):
    fmt = "markdown" if args.format == "md" else "csv"
    sys.stdout.write(emit_table(_TABLE_NAMES[args.which], fmt))
    return 0


def _cmd_verify(args):
    report = run_suite(args.suite, seed=args.seed, size=args.size)
    _emit(report)
    return 0 if report["passed"] else 1


def build_parser():
    parser = _Parser(prog="rsrepair", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="print a field tower as JSON")
    p.add_argument("--q", type=int, required=True, help="subfield size, a prime power")
    p.add_argument("--ell", type=int, required=True, help="extension degree over GF(q)")
    p.set_defaults(func=_cmd_field)

    p = sub.add_parser("construct", help="build a repair scheme")
    p.add_argument("kind", choices=("c1", "c2"))
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--theta", choices=("auto", "paper", "search"),
                   help="c1 only: how to pick the quadratic root")
    p.add_argument("--q", type=int, help="c2 only: subfield size")
    p.add_argument("--d", type=int, help="c2 only: evaluation space dimension")
    p.add_argument("--s", type=int, help="c2 only: redundancy tier")
    p.add_argument("--m", type=int, help="c2 only: rows in the normal form")
    p.add_argument("--r", type=int, help="c2 only: codimension n - k")
    p.add_argument("--out", help="write the scheme to this JSON file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("metrics", help="io cost and bandwidth of a scheme file")
    p.add_argument("scheme")
    p.add_argument("--method", choices=("direct", "weight", "expsum"),
                   help="single method; default runs all three and cross-checks")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("simulate", help="repair random codewords and count accesses")
    p.add_argument("scheme")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bounds", help="evaluate a lower bound")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--quantity", choices=("io", "bandwidth"), default="io")
    p.add_argument("--theorem", default="auto", choices=("auto", *ROUTES["io"], *ROUTES["bandwidth"]))
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("tables", help="emit a comparison table")
    p.add_argument("--which", choices=("3a", "3b", "4"), required=True)
    p.add_argument("--format", choices=("csv", "md"), default="md")
    p.set_defaults(func=_cmd_tables)

    p = sub.add_parser("verify", help="run a randomized verification suite")
    p.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", type=int, help="cases per seeded suite; default per suite (r3cond keeps its fixed grid)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CrossCheckMismatch as e:
        print(f"cross-check mismatch: {e}", file=sys.stderr)
        return 2
    except RSRepairError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as e:
        # unreadable or malformed scheme files and the like
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
