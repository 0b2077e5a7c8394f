"""Outside-in tracing of rsrepair's layers for the benchmark's traced runs.

The tracer wraps each layer's public entry points from the outside: every
module attribute, class method or classmethod that is bound to an entry
point is replaced, under every name it is imported as, by a wrapper that
records a span (name, start, end, parent).  Nothing under src/ changes, and
an untraced run installs no wrapper at all.  Per-element arithmetic
(FieldTower.add/mul, RSCode.eval_poly) stays unwrapped, so its cost shows as
the self time of whichever span called it.

Spans are kept in memory and written out once, at exit (write_spans).
"""

import json
import sys
import time
from collections import Counter, defaultdict

# (rsrepair submodule, attribute path) of every traced entry point.  The span
# name is "<submodule>.<attribute path>".
SPAN_TARGETS = (
    ("gf", "FieldTower.__init__"),
    ("basis", "dual_basis"),
    ("basis", "BasisPair.phi_table"),
    ("basis", "BasisPair.phi_hat_table"),
    ("basis", "BasisPair.phi_hat_bits"),
    ("subspace", "b_rank"),
    ("subspace", "rank_over_subfield"),
    ("subspace", "Subspace.enumerate"),
    ("subspace", "Subspace.span"),
    ("subspace", "Subspace.intersect"),
    ("subspace", "Subspace.preimage"),
    ("subspace", "Subspace.from_json"),
    ("linalg", "rref"),
    ("linalg", "rank_bits"),
    ("linalg", "solve"),
    ("rs", "RSCode.__init__"),
    ("rs", "RSCode.encode"),
    ("constructions", "construction1"),
    ("constructions", "construction2"),
    ("constructions", "qpoly_annihilator"),
    ("scheme", "load_scheme"),
    ("scheme", "save_scheme"),
    ("scheme", "metrics_direct"),
    ("scheme", "metrics_weight"),
    ("scheme", "metrics_expsum"),
    ("scheme", "normalize"),
    ("scheme", "repair_node"),
    ("expsum", "io_cost_expsum"),
    ("expsum", "per_node_zero_columns"),
    ("suites", "random_normalized_scheme"),
    ("suites", "run_suite"),
    ("bounds", "r3cond_max_bruteforce"),
    ("bounds", "bmin_bruteforce"),
    ("bounds", "bmin_literal"),
    ("cli", "main"),
)

# Entry points that are only counted: repair_matrix runs once per helper per
# repair, and a span for each call would cost more than the call itself.
COUNT_TARGETS = (("scheme", "repair_matrix"),)

# Lazy tables: a span is recorded only for the call that builds the
# table (its cache attribute is still None), not for the cached lookups.
LAZY_TABLES = {
    "basis.BasisPair.phi_table": "_phi",
    "basis.BasisPair.phi_hat_table": "_phi_hat",
    "basis.BasisPair.phi_hat_bits": "_phi_hat_bits",
}

# Per-layer time metrics: seconds inside the outermost span of each group, so
# a group span nested in another of the same group is not counted twice.
TIME_GROUPS = {
    "gf.tower_build_s": ("gf.FieldTower.__init__",),
    "basis.dual_basis_s": ("basis.dual_basis",),
    "basis.table_build_s": tuple(LAZY_TABLES),
    "subspace.b_rank_s": ("subspace.b_rank", "subspace.rank_over_subfield"),
    "subspace.enumerate_s": ("subspace.Subspace.enumerate",),
    "subspace.lattice_s": (
        "subspace.Subspace.span",
        "subspace.Subspace.intersect",
        "subspace.Subspace.preimage",
        "subspace.Subspace.from_json",
    ),
    "linalg.rref_s": ("linalg.rref",),
    "linalg.rank_bits_s": ("linalg.rank_bits",),
    "linalg.solve_s": ("linalg.solve",),
    "rs.code_init_s": ("rs.RSCode.__init__",),
    "rs.encode_s": ("rs.RSCode.encode",),
    "constructions.c1_s": ("constructions.construction1",),
    "constructions.c2_s": ("constructions.construction2",),
    "constructions.qpoly_s": ("constructions.qpoly_annihilator",),
    "scheme.load_s": ("scheme.load_scheme",),
    "scheme.save_s": ("scheme.save_scheme",),
    "scheme.direct_s": ("scheme.metrics_direct",),
    "scheme.weight_s": ("scheme.metrics_weight",),
    "scheme.expsum_s": ("scheme.metrics_expsum",),
    "scheme.normalize_s": ("scheme.normalize",),
    "scheme.repair_node_s": ("scheme.repair_node",),
    "expsum.io_cost_s": ("expsum.io_cost_expsum",),
    "expsum.per_node_s": ("expsum.per_node_zero_columns",),
    "suites.random_scheme_s": ("suites.random_normalized_scheme",),
    "suites.suite_s": ("suites.run_suite",),
    "bounds.bruteforce_s": (
        "bounds.r3cond_max_bruteforce",
        "bounds.bmin_bruteforce",
        "bounds.bmin_literal",
    ),
}

# Per-layer call counts: metric name -> span (or counted) names.
CALL_GROUPS = {
    "gf.tower_builds": ("gf.FieldTower.__init__",),
    "subspace.b_rank_calls": ("subspace.b_rank", "subspace.rank_over_subfield"),
    "linalg.rref_calls": ("linalg.rref",),
    "linalg.rank_bits_calls": ("linalg.rank_bits",),
    "rs.encode_calls": ("rs.RSCode.encode",),
    "scheme.repair_matrix_calls": ("scheme.repair_matrix",),
}

MODULES = ("gf", "basis", "subspace", "linalg", "rs", "constructions",
           "scheme", "expsum", "suites", "bounds", "cli")

# Every per-layer metric the tracer produces, with its unit.
TRACE_METRICS = tuple(
    [(name, "s") for name in TIME_GROUPS]
    + [(name, "count") for name in CALL_GROUPS]
    + [(f"{mod}.self_s", "s") for mod in MODULES]
    + [
        ("basis.table_entries_built", "count"),
        ("subspace.greedy_useful_ratio", "ratio"),
        ("subspace.points_enumerated", "count"),
        ("expsum.terms_tallied", "count"),
        ("trace.spans", "count"),
    ]
)


def _rank_useful(tally, args, result):
    # b_rank(tower, elements) / rank_over_subfield(tower, elements, size):
    # a greedy caller gains a basis vector exactly when the rank is full
    tally["greedy_calls"] += 1
    tally["greedy_useful"] += result == len(args[1])


def _points(tally, args, result):
    tally["points"] += len(result)


def _terms(tally, args, result):
    # one chi tally per (alpha, u, s): n * q^m * t terms per call
    nf = args[0]
    tally["terms"] += nf.scheme.code.n * nf.scheme.tower.q ** nf.m * nf.t


def _table_entries(tally, args, result):
    tally["table_entries"] += args[0].tower.size


RESULT_HOOKS = {
    "subspace.b_rank": _rank_useful,
    "subspace.rank_over_subfield": _rank_useful,
    "subspace.Subspace.enumerate": _points,
    "expsum.io_cost_expsum": _terms,
    "expsum.per_node_zero_columns": _terms,
    **{name: _table_entries for name in LAZY_TABLES},
}


class Tracer:
    """Installs span wrappers on a freshly imported rsrepair and records spans.

    One tracer serves one traced unit (set-up plus one pass) on one thread.
    uninstall() puts every original object back.
    """

    def __init__(self, package):
        self.package = package
        self.names = []  # span name per name id
        self._name_ids = {}
        self.spans = []  # (name id, start, end, parent index or -1)
        self.calls = Counter()  # counted-only entry points
        self.tally = Counter()  # result-derived counts (see RESULT_HOOKS)
        self._stack = []
        self._undo = []

    # -- installation -------------------------------------------------------

    def install(self):
        for mod, path in SPAN_TARGETS:
            self._patch(mod, path, self._span_wrapper)
        for mod, path in COUNT_TARGETS:
            self._patch(mod, path, self._count_wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, mod, path, make_wrapper):
        name = f"{mod}.{path}"
        module = sys.modules[f"{self.package}.{mod}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(make_wrapper(name, raw.__func__))
            else:
                wrapped = make_wrapper(name, raw)
            self._undo.append((cls, attr, raw))
            setattr(cls, attr, wrapped)
            return
        original = getattr(module, path)
        wrapper = make_wrapper(name, original)
        # every module of the package that bound the same object, under any
        # name (from-imports and the package's own re-exports)
        for mod_name, other in list(sys.modules.items()):
            if other is None or not (
                mod_name == self.package or mod_name.startswith(self.package + ".")
            ):
                continue
            for attr, value in list(vars(other).items()):
                if value is original:
                    self._undo.append((other, attr, original))
                    setattr(other, attr, wrapper)

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _span_wrapper(self, name, fn):
        name_id = self._name_id(name)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        hook = RESULT_HOOKS.get(name)
        lazy_attr = LAZY_TABLES.get(name)
        tally = self.tally

        def wrapper(*args, **kwargs):
            if lazy_attr is not None and getattr(args[0], lazy_attr) is not None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if hook is not None:
                hook(tally, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- analysis -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer numbers of everything recorded so far (see TRACE_METRICS)."""
        spans = self.spans
        names = self.names
        durations = [end - start for _, start, end, _ in spans]
        child_time = [0.0] * len(spans)
        for (_, start, end, parent) in spans:
            if parent >= 0:
                child_time[parent] += end - start
        count_by_name = Counter(names[s[0]] for s in spans)
        count_by_name.update(self.calls)

        out = {}
        for metric, group in TIME_GROUPS.items():
            ids = {self._name_ids[n] for n in group if n in self._name_ids}
            total = 0.0
            for i, (name_id, _, _, parent) in enumerate(spans):
                if name_id in ids and not self._has_ancestor_in(spans, parent, ids):
                    total += durations[i]
            out[metric] = total
        for metric, group in CALL_GROUPS.items():
            out[metric] = sum(count_by_name[n] for n in group)
        self_by_module = defaultdict(float)
        for i, (name_id, _, _, _) in enumerate(spans):
            self_by_module[names[name_id].split(".", 1)[0]] += durations[i] - child_time[i]
        for mod in MODULES:
            out[f"{mod}.self_s"] = self_by_module[mod]
        calls = self.tally["greedy_calls"]
        out["subspace.greedy_useful_ratio"] = self.tally["greedy_useful"] / calls if calls else 0.0
        out["subspace.points_enumerated"] = self.tally["points"]
        out["basis.table_entries_built"] = self.tally["table_entries"]
        out["expsum.terms_tallied"] = self.tally["terms"]
        out["trace.spans"] = len(spans)
        return out

    @staticmethod
    def _has_ancestor_in(spans, parent, ids):
        while parent >= 0:
            if spans[parent][0] in ids:
                return True
            parent = spans[parent][3]
        return False


def write_spans(path, units):
    """Write every traced unit's spans as one JSON document.

    units is a list of tracers; each span is [name id, start, end, parent],
    where name id indexes the unit's "names" and parent indexes the same
    unit's span list (-1 for a root).
    """
    doc = []
    for tracer in units:
        doc.append({
            "names": tracer.names,
            "spans": [list(s) for s in tracer.spans],
        })
    with open(path, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
