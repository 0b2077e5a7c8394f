"""Self-test of the benchmark itself, at tiny sizes (under a minute).

    python3 bench/selftest.py

Checks that every workload runs clean untraced and traced, that the traced
run reports the layers each workload exercises, that a deliberately wrong
pin is caught (the run is marked incorrect), and that the benchmark exits
nonzero without a result where the program is missing.
"""

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

# layers each workload must reach (a nonzero per-layer value when traced)
EXPECTED_LAYERS = {
    "c1-full": ("constructions.c1_s", "subspace.b_rank_calls", "scheme.expsum_s",
                "cli.construct_s", "cli.metrics_s", "cli.self_s"),
    "c2-grid": ("constructions.c2_s", "gf.tower_builds", "basis.table_build_s",
                "expsum.terms_tallied", "subspace.lattice_s"),
    "repair-sim": ("rs.encode_calls", "scheme.repair_node_s", "linalg.solve_s",
                   "scheme.repair_matrix_calls", "rs.encode_ms_p50", "scheme.repair_ms_p90"),
    "verify-suites": ("suites.suite_s", "suites.random_scheme_s", "scheme.normalize_s",
                      "bounds.bruteforce_s", "cli.verify_s"),
}


def check(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def clean_runs():
    for workload in run.WORKLOADS:
        record, _ = run.measure(workload, seed=3, seconds=1, trace=0, small=True)
        result = run.result_line(record)
        check(result["correct"] and record["attempted"] > 0, f"{workload} untraced: {record['failures']}")
        check(set(result["metrics"]) == {name for name, _ in run.END_TO_END},
              f"{workload}: end-to-end metric set")
        for name, metric in result["metrics"].items():
            check(metric["value"] > 0, f"{workload}: {name} is {metric['value']}")

        record, tracers = run.measure(workload, seed=3, seconds=1, trace=1, small=True)
        result = run.result_line(record)
        check(result["correct"] and tracers, f"{workload} traced: {record['failures']}")
        check(set(result["metrics"]) == {name for name, _ in run.PER_LAYER},
              f"{workload}: per-layer metric set")
        for name in EXPECTED_LAYERS[workload]:
            check(result["metrics"][name]["value"] > 0, f"{workload}: {name} not reached")
        print(f"ok {workload}: {record['attempted']} operations, clean and traced")


def wrong_pins():
    """Each workload, with one pin off by one, must report failed operations."""
    saved = (dict(run.C1_BANDWIDTH), run.c2_pins, dict(run.VERIFY_PINS))

    def c2_off_by_one(*params):
        return {k: v + 1 for k, v in saved[1](*params).items()}

    try:
        run.C1_BANDWIDTH[4] += 1
        run.c2_pins = c2_off_by_one
        run.VERIFY_PINS["passed"] = False
        for workload in run.WORKLOADS:
            record, _ = run.measure(workload, seed=3, seconds=1, trace=0, small=True)
            result = run.result_line(record)
            check(not result["correct"] and result["failed"] > 0,
                  f"{workload}: a wrong pin went unnoticed")
            print(f"ok {workload}: wrong pin caught ({result['failed']} of "
                  f"{result['attempted']} operations failed)")
    finally:
        run.C1_BANDWIDTH.clear()
        run.C1_BANDWIDTH.update(saved[0])
        run.c2_pins = saved[1]
        run.VERIFY_PINS.clear()
        run.VERIFY_PINS.update(saved[2])


def program_missing():
    """Without src/, the benchmark exits nonzero and prints no result."""
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as bare:
        shutil.copytree(run.BENCH_DIR, Path(bare) / "bench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "c1-full", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    check(proc.returncode != 0 and not proc.stdout.strip(),
          f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ok missing program: exit {proc.returncode}, no result")


if __name__ == "__main__":
    clean_runs()
    wrong_pins()
    program_missing()
    print("selftest passed")
