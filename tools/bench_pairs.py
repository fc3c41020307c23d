"""Paired before/after benchmark of HEAD against the uncommitted working tree.

Run from the repository root, with the change not yet committed:

    python3 tools/bench_pairs.py --out BENCH_N.json

Each side runs from its own directory: the parent from a git archive of
HEAD, the change from a copy of the working tree's src/ and perfbench/.
Both run with PYTHONDONTWRITEBYTECODE=1, one process at a time.

- For box1 and query, PAIRS pairs of `perfbench/run.py --workload W
  --seconds 15 --trace 0`, the side that runs first alternating (the parent
  first in odd pairs).  Each run's end-to-end metrics and its per-kind query
  times (the run record's query_kinds) are kept.
- TRACED_RUNS pairs of `perfbench/run.py --workload box1 --seconds 5
  --trace 1`, alternating the same way, for the per-layer metrics.
- At boxes 3 and 4, BOX_RUNS fresh processes per side, alternating, each
  running enumerate_ldp(n, jobs=1) in process and then classify_catalog.  Each keeps EnumerationStats, the sha256 of the raw and
  of the classified catalog as write_catalog writes them, and peak RSS
  (ru_maxrss) after enumerate_ldp and at the end.

The summary gives, per workload and metric, both sides' medians, the
parent's inter-quartile range and the number of pairs in which the change
is better, and per side the failed and attempted operations summed over its
runs, with their share; per box, the medians of the stage seconds and of
peak RSS.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("box1", "query")
PAIRS = 10
SECONDS = 15.0
TRACED_RUNS = 3
BOXES = (3, 4)
BOX_RUNS = 3
BETTER = {"op_p50_ms": "lower", "op_p99_ms": "lower", "ops_per_s": "higher", "setup_s": "lower",
          "peak_rss_mb": "lower"}

# Runs in a fresh process, with the side's src/ first on sys.path.
BOX_RUN = """
import hashlib, json, resource, sys
from ldptoric.cli import catalog_line
from ldptoric.enumeration import EnumerationStats, classify_catalog, enumerate_ldp

def digest(entries):
    h = hashlib.sha256()
    for entry in entries:
        h.update(catalog_line(entry).encode("ascii"))
    return h.hexdigest()

def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

stats = EnumerationStats()
entries = enumerate_ldp(int(sys.argv[1]), jobs=1, stats=stats)
record = {"rss_after_enumerate_mb": rss_mb(), **vars(stats), "raw_sha256": digest(entries)}
record["raw_chains"] = sum(stats.raw_chains)
record["classified_sha256"] = digest(classify_catalog(entries))
record["rss_end_mb"] = rss_mb()
print(json.dumps(record))
"""


def make_sides(work: Path) -> dict[str, Path]:
    sides = {"parent": work / "parent", "change": work / "change"}
    sides["parent"].mkdir()
    archive = subprocess.run(["git", "archive", "HEAD"], cwd=ROOT, check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(sides["parent"])], input=archive, check=True)
    for name in ("src", "perfbench"):
        shutil.copytree(ROOT / name, sides["change"] / name,
                        ignore=shutil.ignore_patterns("__pycache__", "results", ".work"))
    return sides


def run(cmd: list[str], cwd: Path) -> str:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(cmd, cwd=cwd, env=env, check=True, capture_output=True, text=True).stdout


def workload_run(side: Path, workload: str, seconds: float, trace: int = 0) -> dict:
    out = run([sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", str(seconds),
               "--trace", str(trace)], side)
    last = json.loads(out.strip().splitlines()[-1])
    record = json.loads((side / "perfbench" / "results" / f"{workload}-seed1-trace{trace}.json").read_text())
    return {"correct": last["correct"], "attempted": last["attempted"], "failed": last["failed"],
            "metrics": {k: v["value"] for k, v in last["metrics"].items()},
            "query_kinds": record.get("query_kinds")}


def box_run(side: Path, n: int) -> dict:
    src = str(side / "src")
    return json.loads(run([sys.executable, "-c", f"import sys; sys.path.insert(0, {src!r})\n" + BOX_RUN, str(n)], side))


def order(i: int) -> tuple[str, str]:
    return ("parent", "change") if i % 2 == 0 else ("change", "parent")


def quartiles(values: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for metric, better in BETTER.items():
        par = [p["parent"]["metrics"][metric] for p in pairs]
        chg = [p["change"]["metrics"][metric] for p in pairs]
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(par, chg))
        q1, q3 = quartiles(par)
        out[metric] = {"parent_median": statistics.median(par), "change_median": statistics.median(chg),
                       "parent_iqr": q3 - q1, "change_better_pairs": wins, "pairs": len(pairs)}
    for side in ("parent", "change"):
        failed, attempted = (sum(p[side][key] for p in pairs) for key in ("failed", "attempted"))
        out[f"{side}_failed"] = {"failed": failed, "attempted": attempted, "share": failed / attempted}
    kinds = pairs[0]["parent"]["query_kinds"]
    if kinds:
        out["query_kinds_p50_ms"] = {
            kind: {side: statistics.median(p[side]["query_kinds"][kind]["p50_ms"] for p in pairs)
                   for side in ("parent", "change")}
            for kind in kinds}
    return out


def summarize_box(runs: dict[str, list[dict]]) -> dict:
    out = {}
    for side, records in runs.items():
        stages = records[0]["seconds"]
        out[side] = {
            "seconds_median": {k: statistics.median(r["seconds"][k] for r in records) for k in stages},
            "rss_after_enumerate_mb_median": statistics.median(r["rss_after_enumerate_mb"] for r in records),
            "rss_end_mb_median": statistics.median(r["rss_end_mb"] for r in records),
            "digests": sorted({(r["raw_sha256"], r["classified_sha256"]) for r in records}),
            "counts": sorted({(r["roots"], r["raw_chains"], r["canonicalizations"], r["classes"])
                              for r in records}),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    commit = run(["git", "rev-parse", "HEAD"], ROOT).strip()
    result = {"parent_commit": commit, "nproc": os.cpu_count(), "python": sys.version.split()[0],
              "workloads": {}, "traced_box1": [], "boxes": {}}
    with tempfile.TemporaryDirectory() as tmp:
        sides = make_sides(Path(tmp))
        for workload in WORKLOADS:
            pairs = []
            for i in range(PAIRS):
                pair = {"first": order(i)[0]}
                for side in order(i):
                    pair[side] = workload_run(sides[side], workload, SECONDS)
                    print(workload, i + 1, side, pair[side]["metrics"]["op_p50_ms"], file=sys.stderr, flush=True)
                pairs.append(pair)
            result["workloads"][workload] = {"summary": summarize(pairs), "pairs": pairs}
        for i in range(TRACED_RUNS):
            pair = {"first": order(i)[0]}
            for side in order(i):
                pair[side] = workload_run(sides[side], "box1", 5.0, trace=1)["metrics"]
            result["traced_box1"].append(pair)
        for n in BOXES:
            runs = {"parent": [], "change": []}
            for i in range(BOX_RUNS):
                for side in order(i):
                    runs[side].append(box_run(sides[side], n))
                    print("box", n, i + 1, side, runs[side][-1]["seconds"], file=sys.stderr, flush=True)
            result["boxes"][str(n)] = {"summary": summarize_box(runs), "runs": runs}
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
