"""Benchmark of the rsrepair CLI: four workloads driven in-process.

    python3 bench/run.py --workload c1-full --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of operations (a "pass") that one client runs
in a closed loop on one thread: CLI commands through rsrepair.cli.main(argv),
or encode + repair_node trials through the library.  Every construct,
metrics and verify command starts from a cold field_create cache, because
each real rsrepair invocation is a fresh process.  Every operation is checked
against a pinned value; a nonzero exit or a wrong value counts as failed and
makes the run exit 1.

--trace 0 times passes for --seconds and reports the end-to-end metrics
(wall_ref, peak_rss_mb, setup_s).
--trace 1 runs traced units (a fresh set-up plus one pass) for --seconds.
The set-up runs traced; in the pass, each operation runs twice, back to
back, once untraced and once traced.  It reports the per-layer metrics of
the traced executions, the command-level latencies of the untraced ones and
the tracing overhead, their paired difference.  A new pass or unit starts
only if the previous one's duration still fits before the deadline, so a
run measures at most --seconds after its set-ups (and always at least one
pass, or one unit).  The last line of
stdout is the result; the line before it is the full record, which is also
written to bench/out/.  See bench/README.md.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
PACKAGE = "rsrepair"

sys.path.insert(0, str(BENCH_DIR))
from tracing import TRACE_METRICS, Tracer, write_spans  # noqa: E402

SETUP_REPEATS = 15  # set-ups per untraced run; setup_s is their median

# A shared host's speed can drift by up to 2x over minutes, far beyond any
# usable bound on raw seconds.  During an untraced run's passes an interval timer
# therefore runs reference_loop() every REF_INTERVAL seconds, inside whatever
# operation is running; its time is taken out of the operation's, and
# wall_ref divides a pass's time by the median reference sample of that
# pass, so a slow spell slows numerator and denominator alike.
REF_ITERATIONS = 50_000
REF_INTERVAL = 0.1
# setup_s is in seconds at a fixed reference speed, for the same reason: each
# set-up's seconds are scaled by REF_NOMINAL_S over the median of the
# SETUP_REF_SAMPLES reference_loop() samples taken just before and just after
# it.  Raw set-up seconds stay in the record.
REF_NOMINAL_S = 0.004
SETUP_REF_SAMPLES = 5

# -- pins ---------------------------------------------------------------------
# Construction 1 meets the thm6 I/O bound (2^ell - 1) ell - 2^ell; its
# bandwidth has no closed form, so it is pinned from table 3a.
C1_BANDWIDTH = {4: 41, 8: 1733, 14: 209714}


def c1_pins(ell):
    return {"io_cost": (2**ell - 1) * ell - 2**ell, "bandwidth": C1_BANDWIDTH[ell]}


def c2_pins(q, ell, d, s, m, r):
    """Construction 2: io = bw = (q^d - 1) ell - m q^(d-1)."""
    value = (q**d - 1) * ell - m * q ** (d - 1)
    return {"io_cost": value, "bandwidth": value}


VERIFY_PINS = {"passed": True}

# -- workload inputs ---------------------------------------------------------
C1_ELL = 14
# (q, ell, d, s, m, r): the six table-4 columns, then larger binary columns
# and odd or non-prime q, where the tower build and digit-loop add weigh most.
C2_POOL = (
    (2, 4, 3, 0, 2, 2), (2, 6, 4, 0, 3, 2), (2, 8, 5, 0, 4, 2),
    (2, 6, 5, 1, 3, 3), (2, 8, 6, 1, 4, 3), (2, 8, 7, 2, 4, 5),
    (2, 12, 8, 0, 4, 2), (2, 16, 12, 0, 4, 2),
    (3, 6, 4, 0, 3, 2), (3, 6, 5, 1, 3, 4), (3, 8, 6, 0, 2, 2), (3, 9, 6, 0, 3, 2),
    (4, 6, 4, 0, 3, 2), (5, 6, 4, 0, 3, 2), (9, 4, 3, 0, 2, 2),
)
# a high-degree Horner write (encode) beside a low-degree per-helper read
REPAIR_SCHEMES = (("c1", (8,)), ("c2", (2, 12, 8, 0, 4, 2)), ("c2", (3, 6, 4, 0, 3, 2)))
REPAIR_ROUNDS = 20  # trials per scheme per pass
# verify's cost varies about threefold with its seed, so a pass runs a fixed
# seed pool and the workload seed only shuffles it; otherwise wall_ref would
# measure the seed draw rather than the code
VERIFY_SEEDS = (0, 1, 2, 3, 4, 5)

# tiny sizes, used by bench/selftest.py
SMALL = {
    "c1_ell": 4,
    "c2_pool": ((2, 4, 3, 0, 2, 2), (3, 4, 3, 0, 2, 2), (4, 2, 2, 0, 1, 2)),
    "repair_schemes": (("c1", (4,)), ("c2", (2, 4, 3, 0, 2, 2)), ("c2", (3, 4, 3, 0, 2, 2))),
    "repair_rounds": 2,
    "verify_seeds": (0,),
    "verify_extra": ("--size", "2"),
}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import rsrepair afresh from the checkout's src/ and return its modules.

    Earlier imports are dropped first, so each set-up pays the import a fresh
    process pays and no state (caches, wrappers) carries over.
    """
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise ProgramMissing(f"{init} not found; run from a checkout of the repository")
    unload_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve() != init.resolve():
        raise ProgramMissing(f"imported {package.__file__}, expected {init}")
    return types.SimpleNamespace(**{
        mod: importlib.import_module(f"{PACKAGE}.{mod}")
        for mod in ("cli", "constructions", "gf", "scheme")
    })


def unload_program():
    """Drop every rsrepair module from sys.modules (a no-op if none is loaded)."""
    for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
        del sys.modules[name]


def reference_loop():
    """Seconds taken by a fixed pure-Python loop: the run's speed reference."""
    start = time.perf_counter()
    x = 0
    for i in range(REF_ITERATIONS):
        x += i * i % 7
    return time.perf_counter() - start


class ReferenceSampler:
    """Samples reference_loop() from a SIGALRM interval timer while active."""

    def __init__(self):
        self.samples = []  # (perf_counter at the end, seconds)
        self._previous = None
        self._busy = False

    def __enter__(self):
        self._sample(None, None)  # at least one sample, however short the pass
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL, REF_INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum, frame):
        if self._busy:  # a tick that lands inside a sample is dropped
            return
        self._busy = True
        took = reference_loop()
        self.samples.append((time.perf_counter(), took))
        self._busy = False

    def inside(self, start, end):
        """Seconds of sampling that ran between perf_counter readings start and end.

        The handler runs synchronously, so a sample that ended in (start, end]
        also began after start.
        """
        total = 0.0
        for stamp, took in reversed(self.samples):
            if stamp <= start:
                break
            if stamp <= end:
                total += took
        return total


class Recorder:
    """Runs a workload's operations, checks them and keeps their timings.

    With a tracer, each operation of a pass runs twice, back to back: once
    untraced, timed as usual, and once with the tracer installed, timed under
    "traced"; pairs keeps both times.  Which one runs first alternates from
    one operation of a kind to the next, so an advantage of running second
    falls on both sides alike.
    """

    def __init__(self, prog, tracer=None):
        self.prog = prog
        self.tracer = tracer
        self.attempted = 0
        self.failures = []
        # per pass: {"wall": s, "ref": s / s, <op kind>: s, "traced": s}
        self.passes = []
        self.pairs = []  # per operation of a traced pass: (untraced s, traced s)
        self.samples = defaultdict(list)  # op kind -> seconds per operation
        self.ref_samples = []  # per pass: median reference_loop() seconds
        self.cache_hits = 0
        self.cache_misses = 0
        self._pass = None
        self._sampler = None
        self._tracing = False  # inside the traced execution of an operation
        self._traced_first = defaultdict(bool)  # op kind -> last pair's order
        self._last_wall = None  # the last timed execution's seconds

    def run_pass(self, body, reference=False):
        self._pass = defaultdict(float)
        if reference:
            with ReferenceSampler() as self._sampler:
                body(self)
            ref = statistics.median(took for _, took in self._sampler.samples)
            self.ref_samples.append(ref)
            self._pass["ref"] = self._pass["wall"] / ref
            self._sampler = None
        else:
            body(self)
        self.passes.append(dict(self._pass))
        self._pass = None
        self.drain_cache_stats()
        gc.collect()  # what a process exit would reclaim

    def _elapsed(self, start):
        """Seconds since start, without the reference sampling in between."""
        end = time.perf_counter()
        if self._sampler is None:
            return end - start
        return end - start - self._sampler.inside(start, end)

    def drain_cache_stats(self):
        """Add field_create's hit counts since the last clear, then clear it."""
        cache = self.prog.gf.field_create
        info = cache.cache_info()
        self.cache_hits += info.hits
        self.cache_misses += info.misses
        cache.cache_clear()

    def _each_execution(self, kind, operation):
        """Run operation(); in a traced unit's pass, untraced and traced in turn."""
        if self.tracer is None or self._pass is None:
            operation()
            return
        first = self._traced_first[kind] = not self._traced_first[kind]
        walls = {}
        for tracing in (True, False) if first else (False, True):
            self._tracing = tracing
            self._last_wall = None
            if tracing:
                self.tracer.install()
            try:
                operation()
            finally:
                if tracing:
                    self.tracer.uninstall()
            walls[tracing] = self._last_wall
        self._tracing = False
        if None not in walls.values():  # else the operation failed
            self.pairs.append((walls[False], walls[True]))

    def _time(self, kind, wall):
        if self._pass is None:  # set-up warm-up: checked but not timed
            return
        self._last_wall = wall
        if self._tracing:
            self._pass["traced"] += wall
            return
        self._pass["wall"] += wall
        self._pass[kind] += wall
        self.samples[kind].append(wall)

    def _check(self, label, problem):
        self.attempted += 1
        if problem is not None:
            self.failures.append(f"{label}: {problem}")
            if len(self.failures) <= 10:
                print(f"FAILED {label}: {problem}", file=sys.stderr)

    def command(self, kind, argv, pins):
        """One CLI invocation; its JSON output must carry the pinned values."""
        self._each_execution(kind, lambda: self._command(kind, argv, pins))

    def _command(self, kind, argv, pins):
        self.drain_cache_stats()
        out = io.StringIO()
        wall0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                code = self.prog.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an uncaught error is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        self._time(kind, self._elapsed(wall0))
        problem = None
        if code != 0:
            problem = f"exit {code}"
        else:
            try:
                doc = json.loads(out.getvalue())
            except ValueError:
                problem = "stdout is not JSON"
            else:
                wrong = {k: doc.get(k) for k, v in pins.items() if doc.get(k) != v}
                if wrong:
                    problem = f"got {wrong}, pinned {pins}"
        self._check("rsrepair " + " ".join(argv), problem)
        gc.collect()

    def trial(self, case, rng):
        """encode a seeded message, then repair the target with repair_node.

        The same three checks as `rsrepair simulate`: the repaired value, the
        subsymbols read (= io) and the units transmitted (= bandwidth).
        """
        self._each_execution("trial", lambda: self._trial(case, rng))

    def _trial(self, case, rng):
        label, scheme, pins = case
        code = scheme.code
        message = [rng.randrange(code.tower.size) for _ in range(code.k)]
        problem = None
        wall0 = time.perf_counter()
        try:
            codeword = code.encode(message)
            encode_s = self._elapsed(wall0)
            wall1 = time.perf_counter()
            value, counter = self.prog.scheme.repair_node(
                scheme, codeword, self.prog.scheme.AccessCounter())
            repair_s = self._elapsed(wall1)
        except Exception as exc:  # an uncaught error is a failed operation
            self._check(f"trial {label}", f"{type(exc).__name__}: {exc}")
            return
        self._time("trial", encode_s + repair_s)
        if self._pass is not None and not self._tracing:
            self.samples["encode"].append(encode_s)
            self.samples["repair"].append(repair_s)
        want = codeword[scheme.target - 1]
        if value != want:
            problem = f"repaired {value}, codeword holds {want}"
        elif counter.total_accessed != pins["io_cost"]:
            problem = f"read {counter.total_accessed}, pinned io {pins['io_cost']}"
        elif counter.total_transmitted != pins["bandwidth"]:
            problem = f"sent {counter.total_transmitted}, pinned bandwidth {pins['bandwidth']}"
        self._check(f"trial {label}", problem)


# -- workloads -----------------------------------------------------------------
# Each build_* function makes the workload's inputs from the seed and returns the pass
# body; work done here (scheme builds, warm-up) is set-up.


def build_c1_full(prog, seed, small, rec):
    del prog, seed, rec  # deterministic: one large binary field
    ell = SMALL["c1_ell"] if small else C1_ELL
    path = str(OUT_DIR / "c1-full.scheme.json")
    pins = c1_pins(ell)

    def body(rec):
        rec.command("construct", ["construct", "c1", "--ell", str(ell), "--out", path], pins)
        rec.command("metrics", ["metrics", path], pins)

    return body


def build_c2_grid(prog, seed, small, rec):
    del prog, rec
    pool = list(SMALL["c2_pool"] if small else C2_POOL)
    random.Random(seed).shuffle(pool)
    path = str(OUT_DIR / "c2-grid.scheme.json")
    commands = []
    for q, ell, d, s, m, r in pool:
        flags = ["--q", q, "--ell", ell, "--d", d, "--s", s, "--m", m, "--r", r]
        commands.append(([str(v) for v in flags], c2_pins(q, ell, d, s, m, r)))

    def body(rec):
        for flags, pins in commands:
            rec.command("construct", ["construct", "c2", *flags, "--out", path], pins)
            rec.command("metrics", ["metrics", path], pins)

    return body


def build_repair_sim(prog, seed, small, rec):
    cases = []
    for kind, params in SMALL["repair_schemes"] if small else REPAIR_SCHEMES:
        if kind == "c1":
            scheme = prog.constructions.construction1(*params)[1]
            pins = c1_pins(*params)
        else:
            scheme = prog.constructions.construction2(*params)[2]
            pins = c2_pins(*params)
        cases.append((f"{kind}{params}", scheme, pins))
    rng = random.Random(seed)
    for case in cases:  # builds the lazy phi / phi_hat tables
        rec.trial(case, rng)
    rounds = SMALL["repair_rounds"] if small else REPAIR_ROUNDS

    def body(rec):
        for _ in range(rounds):
            for case in cases:
                rec.trial(case, rng)

    return body


def build_verify_suites(prog, seed, small, rec):
    del prog, rec
    seeds = list(SMALL["verify_seeds"] if small else VERIFY_SEEDS)
    random.Random(seed).shuffle(seeds)
    extra = list(SMALL["verify_extra"]) if small else []

    def body(rec):
        for s in seeds:
            rec.command("verify", ["verify", "--suite", "all", "--seed", str(s), *extra],
                        VERIFY_PINS)

    return body


WORKLOADS = {
    "c1-full": build_c1_full,
    "c2-grid": build_c2_grid,
    "repair-sim": build_repair_sim,
    "verify-suites": build_verify_suites,
}

END_TO_END = (("wall_ref", "ref"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# command-level latencies, taken from the untraced units of a traced run
COMMAND_METRICS = (
    ("cli.construct_s", "s"), ("cli.metrics_s", "s"), ("cli.verify_s", "s"),
    ("rs.encode_ms_p50", "ms"), ("rs.encode_ms_p90", "ms"), ("rs.encode_ms_n", "count"),
    ("scheme.repair_ms_p50", "ms"), ("scheme.repair_ms_p90", "ms"),
    ("scheme.repair_ms_n", "count"),
    ("gf.field_create_hit_ratio", "ratio"), ("trace.overhead_s", "s"),
    ("trace.overhead_n", "count"),
)
PER_LAYER = TRACE_METRICS + COMMAND_METRICS


class Unit:
    """A set-up (fresh import, inputs, warm-up) and the pass body it built."""

    def __init__(self, workload, seed, small, traced):
        start = time.perf_counter()
        prog = load_program()
        self.tracer = Tracer(PACKAGE) if traced else None
        self.rec = Recorder(prog, self.tracer)
        if traced:
            self.tracer.install()
        try:
            self.body = WORKLOADS[workload](prog, seed, small, self.rec)
        finally:
            if traced:
                self.tracer.uninstall()
        self.setup_s = time.perf_counter() - start

    def run_pass(self, reference=False):
        self.rec.run_pass(self.body, reference)

    def close(self):
        """Let go of this unit's import and inputs.

        Only the recorder's counts, failures and timings (and the tracer's
        spans) stay, so an earlier unit's modules and field towers do not
        add to a later one's memory.
        """
        self.rec.drain_cache_stats()
        self.rec.prog = None
        self.body = None
        unload_program()
        gc.collect()


def percentile(values, pct):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _pooled_samples(recs):
    samples = defaultdict(list)
    for rec in recs:
        for kind, values in rec.samples.items():
            samples[kind].extend(values)
    return samples


def _untraced_run(workload, seed, seconds, small):
    """SETUP_REPEATS fresh set-ups, then passes of the last one for `seconds`."""
    setup_times, setup_refs, recs = [], [], []
    for i in range(SETUP_REPEATS):
        around = [reference_loop() for _ in range(SETUP_REF_SAMPLES)]
        unit = Unit(workload, seed, small, traced=False)
        around += [reference_loop() for _ in range(SETUP_REF_SAMPLES)]
        setup_times.append(unit.setup_s)
        setup_refs.append(statistics.median(around))
        recs.append(unit.rec)
        if i < SETUP_REPEATS - 1:  # only the last set-up's import stays alive
            unit.close()
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not unit.rec.passes or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        unit.run_pass(reference=True)
        last = time.perf_counter() - start
    walls = [p["wall"] for p in unit.rec.passes]
    metrics = {
        "wall_ref": statistics.median(p["ref"] for p in unit.rec.passes),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": REF_NOMINAL_S * statistics.median(
            t / ref for t, ref in zip(setup_times, setup_refs)),
        "setup_raw_s": statistics.median(setup_times),
    }
    runs = {"setup_s": setup_times, "setup_ref_s": setup_refs, "pass_wall_s": walls,
            "pass_wall_ref": [p["ref"] for p in unit.rec.passes],
            "ref_samples": unit.rec.ref_samples}
    unit.close()
    return metrics, runs, recs, []


def _traced_run(workload, seed, seconds, small):
    """Traced units (set-up plus one doubled pass) for `seconds`."""
    units = []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not units or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        unit = Unit(workload, seed, small, traced=True)
        unit.run_pass()
        unit.close()
        units.append(unit)
        last = time.perf_counter() - start

    layer = [u.tracer.layer_metrics() for u in units]
    metrics = {name: statistics.median(m[name] for m in layer) for name, _ in TRACE_METRICS}
    hits = sum(u.rec.cache_hits for u in units)
    lookups = hits + sum(u.rec.cache_misses for u in units)
    metrics["gf.field_create_hit_ratio"] = hits / lookups if lookups else 0.0
    passes = [p for u in units for p in u.rec.passes]
    for kind in ("construct", "metrics", "verify"):
        metrics[f"cli.{kind}_s"] = statistics.median(p.get(kind, 0.0) for p in passes)
    samples = _pooled_samples(u.rec for u in units)
    for kind, layer_name in (("encode", "rs"), ("repair", "scheme")):
        values = samples[kind]
        metrics[f"{layer_name}.{kind}_ms_p50"] = percentile(values, 50) * 1e3
        metrics[f"{layer_name}.{kind}_ms_p90"] = percentile(values, 90) * 1e3
        metrics[f"{layer_name}.{kind}_ms_n"] = len(values)
    # Each operation's traced and untraced executions ran back to back, so the
    # host's drift mostly cancels in their ratio.  A pass holds too few
    # operations on c1-full for a median of whole passes, so the overhead is
    # the median ratio over operations, applied to the median untraced pass.
    pairs = [pair for u in units for pair in u.rec.pairs]
    share = statistics.median(traced / plain - 1 for plain, traced in pairs) if pairs else 0.0
    metrics["trace.overhead_s"] = share * statistics.median(p["wall"] for p in passes)
    metrics["trace.overhead_n"] = len(pairs)
    runs = {"untraced_pass_wall_s": [p["wall"] for p in passes],
            "traced_pass_wall_s": [p["traced"] for p in passes],
            "overhead_share": share}
    return metrics, runs, [u.rec for u in units], [u.tracer for u in units]


def measure(workload, seed, seconds, trace, small=False):
    """One benchmark run; returns the record and the tracers of traced units."""
    OUT_DIR.mkdir(exist_ok=True)
    run = _traced_run if trace else _untraced_run
    metrics, runs, recs, tracers = run(workload, seed, seconds, small)
    attempted = sum(r.attempted for r in recs)
    failures = [f for r in recs for f in r.failures]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "small": small,
        "commit": git_commit(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "jobs": {"clients": 1, "threads": 1, "processes": 1, "loop": "closed"},
        "runs": runs,
        "attempted": attempted,
        "failed": len(failures),
        "failed_frac": len(failures) / attempted if attempted else 0.0,
        "failures": failures[:20],
        # untraced executions only
        "latency": {
            kind: {
                "samples": len(values),
                "p50_ms": percentile(values, 50) * 1e3,
                "p90_ms": percentile(values, 90) * 1e3,
            }
            for kind, values in sorted(_pooled_samples(recs).items())
        },
        "metrics": metrics,
    }
    return record, tracers


def git_commit():
    """The checkout's commit from .git, without running git; else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text()
    except OSError:
        return "unknown"
    for line in packed.splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def result_line(record):
    units = dict(END_TO_END) if not record["trace"] else dict(PER_LAYER)
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        record, tracers = measure(args.workload, args.seed, args.seconds, args.trace)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracers:
        write_spans(OUT_DIR / f"{stem}.spans.json", tracers)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result_line(record)))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
