"""Repeat benchmark runs over seeds; report spreads and write a BENCH file.

    python3 bench/collect.py --runs 10                    # untraced
    python3 bench/collect.py --runs 10 --traced-runs 3 --label seed-d50031e

Runs BENCHMARK.json's command once per (workload, seed) for every workload
in BENCHMARK.json, one run at a time, with seeds 1..runs and the file's
run_seconds, so that entries stay comparable across commits.  It prints for
every end-to-end metric its median, its quartiles and the spread
(q3 - q1) / median next to the metric's bound, marked WIDE above a third of
the bound.
With --traced-runs, also makes that many --trace 1 runs per workload and
reports the medians of the per-layer metrics.  With --label, the medians,
quartiles and raw values are written to bench/trajectory/BENCH_<label>.json.
"""

import argparse
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
from run import git_commit  # noqa: E402


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(argv)}: {result['failed']} operations failed")
    return result, json.loads(lines[-2]), elapsed


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced-runs", type=int, default=0)
    parser.add_argument("--label", help="write bench/trajectory/BENCH_<label>.json")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {
        "schema": 1,
        "label": args.label,
        "commit": git_commit(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "run_seconds": spec["run_seconds"],
        "runs": args.runs,
        "traced_runs": args.traced_runs,
        "seeds": list(range(1, args.runs + 1)),
        "workloads": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        values, per_layer, records, elapsed = {}, {}, [], []
        for seed in range(1, args.runs + 1):
            result, record, took = run_once(spec["command"], workload, seed, spec["run_seconds"], 0)
            records.append(record)
            elapsed.append(took)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for seed in range(1, args.traced_runs + 1):
            result, record, took = run_once(spec["command"], workload, seed, spec["run_seconds"], 1)
            elapsed.append(took)
            for name, metric in result["metrics"].items():
                per_layer.setdefault(name, []).append(metric["value"])
        entry = {
            "end_to_end": {name: summarize(v) for name, v in values.items()},
            "per_layer": {name: statistics.median(v) for name, v in per_layer.items()},
            "latency": records[-1]["latency"] if records else {},
            "run_elapsed_s": summarize(elapsed) if len(elapsed) > 1 else elapsed,
        }
        doc["workloads"][workload] = entry
        print(f"{workload}: {args.runs} runs, {args.traced_runs} traced, "
              f"{sum(elapsed):.0f} s in all")
        for name, s in entry["end_to_end"].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  WIDE"
            print(f"  {name:14s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.3f}  bound {bound}{flag}")
    if args.label:
        out = BENCH_DIR / "trajectory" / f"BENCH_{args.label}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
