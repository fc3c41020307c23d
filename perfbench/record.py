"""Run the benchmark several times per workload and record the spread.

Run from the repository root:

    python3 perfbench/record.py --runs 10 --trace-runs 2
    python3 perfbench/record.py --workloads box3 box3_par --runs 3 --seconds 1

Workloads default to those in BENCHMARK.json, and --seconds to its
run_seconds.  Each untraced run gets its own seed (first-seed, first-seed + 1, ...).  For
every end-to-end metric the summary gives the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median, next to
a third of the metric's bound in BENCHMARK.json.  Traced runs give per-layer
medians, and their counts (unit count or B) must repeat exactly.

The summary is merged into --out (default perfbench/baseline.json), keyed by
workload; each entry carries its date, run length, nproc, Python version, CPU
model and git sha, and for the query workload each run's counts and times per
query kind.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from run import WORKLOADS  # noqa: E402

EXACT_UNITS = ("count", "B")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=1800)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    # run.py's own record of the run holds the raw wall-clock figures.
    record = json.loads((BENCH / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["raw_wall_clock"] = record.get("raw_wall_clock")
    result["query_kinds"] = record.get("query_kinds")
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(BENCH / "baseline.json"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    out_path = Path(args.out)
    summary = json.loads(out_path.read_text()) if out_path.exists() else {"workloads": {}}
    env = {"git_sha": git_sha(), "nproc": os.cpu_count(), "python": platform.python_version(),
           "cpu_model": cpu_model()}
    for name in names:
        wl = WORKLOADS[name]
        runs = [run_once(name, args.first_seed + i, seconds, 0) for i in range(args.runs)]
        entry = {"recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **env,
                 "seconds": seconds, "box": wl.box, "stresses": wl.stresses, "bypasses": wl.bypasses,
                 "runs": args.runs,
                 "seeds": [args.first_seed + i for i in range(args.runs)],
                 "attempted": [r["attempted"] for r in runs], "failed": [r["failed"] for r in runs],
                 "wall_s": [round(r["wall_s"], 2) for r in runs], "end_to_end": {}}
        if runs[0]["query_kinds"]:
            entry["query_kinds"] = [r["query_kinds"] for r in runs]
        print(f"{name}: {args.runs} runs of {seconds} s, failed {sum(entry['failed'])} "
              f"of {sum(entry['attempted'])}, run wall {min(entry['wall_s'])}-{max(entry['wall_s'])} s")
        for metric in runs[0]["metrics"]:
            stats = spread([r["metrics"][metric]["value"] for r in runs])
            stats["unit"] = runs[0]["metrics"][metric]["unit"]
            entry["end_to_end"][metric] = stats
            if metric in (runs[0]["raw_wall_clock"] or {}):
                stats["raw"] = spread([r["raw_wall_clock"][metric] for r in runs])
            target = bounds.get(metric, 0.0) / 3
            flag = "" if metric == "setup_s" or stats["spread"] < target else "  <-- above bound/3"
            print(f"  {metric:<12} median {stats['median']:<12.6g} {stats['unit']:<5} "
                  f"spread {stats['spread']:.4f} (bound/3 {target:.4f}){flag}")
        if args.trace_runs:
            traced = [run_once(name, args.first_seed, seconds, 1) for _ in range(args.trace_runs)]
            entry["trace_failed"] = [r["failed"] for r in traced]
            entry["per_layer"] = {}
            for metric, first in traced[0]["metrics"].items():
                values = [r["metrics"][metric]["value"] for r in traced]
                entry["per_layer"][metric] = {"median": statistics.median(values), "unit": first["unit"],
                                              "values": values}
                if first["unit"] in EXACT_UNITS and len(set(values)) != 1:
                    print(f"  per-layer count {metric} differs between traced runs: {values}")
            print(f"  traced: {args.trace_runs} runs, failed {entry['trace_failed']}, "
                  f"overhead {entry['per_layer']['trace.overhead_frac']['median']:.4f}")
        summary["workloads"][name] = entry
    out_path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary -> {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
