"""Benchmark of the ldptoric box-catalog pipeline and single-polygon queries.

Run from the repository root:

    python3 perfbench/run.py --workload box2 --seed 1 --seconds 50 --trace 0

Each workload is generated by one process as a closed loop with one client:

  box1      enumerate_ldp(1, jobs=1) -> write/read_catalog -> classify_catalog
            -> write/read_catalog -> verify_catalog, the path of the CLI's
            enumerate, classify and check commands.  No seed.
  box2      the same at box 2.
  box2_par  enumerate_ldp(2, jobs=cores) through the multiprocessing pool,
            output hash checked.  No seed.
  query     seeded single-polygon lookups against the classified box-2 catalog:
            unimodular images of catalog classes, family instances beyond
            the box, and bad inputs that must raise a typed error.
  box3, box3_par
            box2 and box2_par at box 3.  One pass takes about a minute on two
            cores, so they are for occasional baselines, not for every change.

BENCHMARK.json lists box1 and query only.  On a shared host, neighbours slow
this process in bursts that can be shorter than a box-2 pass (about 0.4 s),
which the reference task (see below) cannot follow inside a pass; a box-1
pass takes about 20 ms, a query under 1 ms.  box3 and box3_par do not fit the
run budget, and box2_par is unsteady because a pool pass needs both cores
free at once while the reference tracks one.  The traced run still runs the
box-2 pipeline and the pool (enumeration.pool_cpu_util).

Every timed op counts: p50 and p99 are taken over every pass or every query
of the run, and ops_per_s is the number of ops over their summed time.

With --trace 0 the run prints end-to-end metrics measured without tracing;
with --trace 1 it runs the traced sweep of layers.py and prints per-layer
metrics.  Times are reported at the nominal speed of reference.py's task,
which is timed around every measured piece of work; the raw wall-clock
figures are printed alongside.  Human-readable lines come first; the last
line of stdout is one JSON object with the keys correct, attempted, failed and
metrics.  A record of the run, and for --trace 1 the spans, go to
perfbench/results/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
IMPORT_REPEATS = 15  # before the measurement, and again after it
INDEX_REPEATS = 3
MIN_PASSES = 2
QUERY_SLOTS = 3000
MIN_QUERY_REPS = 3
MAX_JOBS = 8


@dataclass(frozen=True)
class Workload:
    box: int
    kind: str  # "pipeline", "parallel" or "query"
    stresses: str
    bypasses: str


WORKLOADS = {
    "box1": Workload(
        1, "pipeline",
        "angular DFS and canonical_form inside enumerate_ldp, then classify/verify and catalog I/O",
        "the multiprocessing pool; large coordinates; three-singular classes (box 1 has none)",
    ),
    "box2": Workload(2, "pipeline", "as box1, at box 2, three-singular classes included",
                     "the multiprocessing pool; large coordinates"),
    "box2_par": Workload(
        2, "parallel",
        "enumerate_ldp's shard-per-start multiprocessing path and its balance",
        "classify, verify and catalog I/O",
    ),
    "query": Workload(
        2, "query",
        "validate, canonical_form on large coordinates, analyze, identify/classify_three, are_equivalent",
        "the DFS, the pool and catalog I/O",
    ),
    "box3": Workload(3, "pipeline", "as box2, at box 3", "as box2"),
    "box3_par": Workload(3, "parallel", "as box2_par, at box 3", "as box2_par"),
}

# name -> unit; every --trace 0 run reports all of them.
END_TO_END = {
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# What one op is, per workload kind, and the name op_p50_ms goes by there.
OP_NAMES = {
    "pipeline": ("pipeline pass", "pipeline_s"),
    "parallel": ("parallel enumerate_ldp pass", "pipeline_s"),
    "query": ("query", "query_p50_ms"),
}


@dataclass
class Samples:
    """Durations of one kind of op: raw seconds, and seconds at nominal speed."""

    raw: array = field(default_factory=lambda: array("d"))
    nominal: array = field(default_factory=lambda: array("d"))
    slowdowns: array = field(default_factory=lambda: array("d"))

    def add(self, raw: list[float], slowdown: float) -> None:
        self.raw.extend(raw)
        self.nominal.extend(t / slowdown for t in raw)
        self.slowdowns.append(slowdown)

    def extend(self, other: "Samples") -> None:
        self.raw.extend(other.raw)
        self.nominal.extend(other.nominal)
        self.slowdowns.extend(other.slowdowns)


def worker_count() -> int:
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count() or 1
    return max(1, min(cores, MAX_JOBS))


def time_fresh_import() -> float:
    """Seconds to import ldptoric with none of its modules loaded yet."""
    for name in [m for m in sys.modules if m == "ldptoric" or m.startswith("ldptoric.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("ldptoric")
    return time.perf_counter() - t0


def _clocked(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def timed_setup(fn, repeats: int) -> tuple[Samples, object]:
    """Run a set-up step `repeats` times; returns its samples and last result."""
    samples, result, ref = Samples(), None, reference.Reference()
    for _ in range(repeats):
        (result, raw), slowdown = ref.around(_clocked, fn)
        samples.add([raw], slowdown)
    return samples, result


def percentile(samples: list[float], pct: int) -> float:
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def peak_rss_mb() -> float:
    """The process's peak resident set so far.

    The loops below read it once their minimum count of ops is done, not at
    the end of the run: the samples they store grow with the number of ops a
    run gets through (about 24 B a query, 15-17 MB in a 50 s query run), so a
    figure read at the end would follow the host's load, not the library.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure_passes(step, warm_up, seconds: float, tally) -> tuple[Samples, float]:
    """Run warm_up() once untimed, then step() until `seconds` pass, at least
    MIN_PASSES times.  Both return (seconds, problems).  Returns the samples
    and the peak RSS after MIN_PASSES passes."""
    tally.add(warm_up()[1])
    samples, ref = Samples(), reference.Reference()
    deadline = time.perf_counter() + seconds
    while len(samples.raw) < MIN_PASSES or time.perf_counter() < deadline:
        (elapsed, found), slowdown = ref.around(step)
        samples.add([elapsed], slowdown)
        tally.add(found)
        if len(samples.raw) == MIN_PASSES:
            rss = peak_rss_mb()
    return samples, rss


def measure_queries(workloads, seed: int, index: dict, entries, seconds: float, tally):
    """Every repetition poses each of QUERY_SLOTS slots once, with a fresh
    random image; repeats until `seconds` pass, at least MIN_QUERY_REPS times.

    Returns (samples of every query, the kind of each, repetitions, answers
    found in the catalog, slot kinds, peak RSS after MIN_QUERY_REPS
    repetitions)."""
    sources = workloads.make_sources(seed, entries, QUERY_SLOTS)
    samples, kinds, found, reps = Samples(), [], 0, 0

    def answer_chunk(queries):
        answers, times = [], []
        for q in queries:
            t0 = time.perf_counter_ns()
            answers.append(workloads.answer(q, index))
            times.append((time.perf_counter_ns() - t0) / 1e9)
        return answers, times

    deadline = time.perf_counter() + seconds
    while reps < MIN_QUERY_REPS or time.perf_counter() < deadline:
        queries = [workloads.pose(src, seed, slot, reps) for slot, src in enumerate(sources)]
        ref = reference.Reference()
        for start in range(0, len(queries), workloads.QUERY_CHUNK):
            chunk = queries[start:start + workloads.QUERY_CHUNK]
            (answers, times), slowdown = ref.around(answer_chunk, chunk)
            samples.add(times, slowdown)
            for q, a in zip(chunk, answers):
                problem = workloads.check_answer(q, a)
                tally.add([problem] if problem else [])
                found += a.entry is not None
                kinds.append(q.kind)
        reps += 1
        if reps == MIN_QUERY_REPS:
            rss = peak_rss_mb()
    slots = Counter(src.kind for src in sources)
    return samples, kinds, reps, found, dict(sorted(slots.items())), rss


def by_kind(samples: Samples, kinds: list[str]) -> dict:
    """Query counts and times per kind (hit, miss, bad), so that results can
    be re-weighted to another traffic mix without running again."""
    out = {}
    for kind in sorted(set(kinds)):
        nominal = [t for t, k in zip(samples.nominal, kinds) if k == kind]
        raw = [t for t, k in zip(samples.raw, kinds) if k == kind]
        out[kind] = {"n": len(nominal), "p50_ms": percentile(nominal, 50) * 1e3,
                     "p99_ms": percentile(nominal, 99) * 1e3, "mean_ms": statistics.fmean(nominal) * 1e3,
                     "raw_p50_ms": percentile(raw, 50) * 1e3}
    return out


def run_untraced(name: str, wl: Workload, seed: int, seconds: float, workdir: Path, imports: Samples):
    import workloads

    notes: dict = {}
    tally = workloads.Tally()
    setup_steps = [imports]
    if wl.kind == "query":
        def build():
            return workloads.build_index(wl.box)

        builds, (index, entries) = timed_setup(build, INDEX_REPEATS)
        setup_steps.append(builds)
        tally.add(workloads.check_index(wl.box, entries, workdir))
        samples, kinds, reps, found, slots, rss = measure_queries(workloads, seed, index, entries, seconds, tally)
        notes.update(query_slots=slots, repetitions=reps, found_in_catalog=found,
                     query_kinds=by_kind(samples, kinds))
    else:
        if wl.kind == "pipeline":
            def step(box=wl.box):
                elapsed, found, _, _ = workloads.pipeline_pass(box, workdir)
                return elapsed, found
        else:
            notes["jobs"] = jobs = worker_count()

            def step(box=wl.box):
                return workloads.parallel_pass(box, jobs, workdir)
        samples, rss = measure_passes(step, lambda: step(workloads.WARM_UP_BOX), seconds, tally)
    # Set-up steps are timed again after the measurement, so that their
    # samples come from two moments of the run rather than one.
    setup_steps[0].extend(timed_setup(time_fresh_import, IMPORT_REPEATS)[0])
    if wl.kind == "query":
        setup_steps[1].extend(timed_setup(build, INDEX_REPEATS)[0])
    setup_s = sum(statistics.median(step.nominal) for step in setup_steps)
    setup_raw = sum(statistics.median(step.raw) for step in setup_steps)

    def summary(times) -> dict:
        """Over every timed op."""
        return {"op_p50_ms": percentile(times, 50) * 1e3, "op_p99_ms": percentile(times, 99) * 1e3,
                "ops_per_s": len(times) / sum(times)}

    values = {**summary(samples.nominal), "setup_s": setup_s, "peak_rss_mb": rss}
    raw = {**summary(samples.raw), "setup_s": setup_raw}
    slowdown = statistics.median(samples.slowdowns)
    notes.update(raw_wall_clock=raw, reference_slowdown=slowdown)
    metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}

    op, alias = OP_NAMES[wl.kind]
    n = len(samples.raw)
    setup_basis = f"median of {2 * IMPORT_REPEATS} fresh imports"
    if wl.kind == "query":
        setup_basis += f" + median of {2 * INDEX_REPEATS} box-2 catalog builds"
        basis_n = f"{n} queries, {sum(slots.values())} slots x {reps} repetitions"
        rss_basis = f"set-up and the first {MIN_QUERY_REPS} repetitions"
    else:
        basis_n = f"{n} passes"
        rss_basis = f"set-up and the first {MIN_PASSES} passes"
    basis = {"op_p50_ms": basis_n, "op_p99_ms": f"{basis_n}; {n - round(0.99 * n)} beyond",
             "ops_per_s": basis_n, "setup_s": setup_basis, "peak_rss_mb": rss_basis}
    lines = [f"{name}: one op = one {op}; seed {seed}; times at nominal reference speed, "
             f"reference slowdown {slowdown:.3f}"]
    for k, v in values.items():
        raw_note = f"; raw {raw[k]:.6g}" if k in raw else ""
        lines.append(f"{name} {k} = {v:.6g} {END_TO_END[k]} ({basis[k]}{raw_note})")
    p50 = values["op_p50_ms"]
    lines.append(f"{name} {alias} = {p50 / 1e3 if alias == 'pipeline_s' else p50:.6g} "
                 f"{'s' if alias == 'pipeline_s' else 'ms'}")
    if wl.kind == "query":
        lines.append(f"{name} queries_per_s = {values['ops_per_s']:.6g} 1/s; slots {slots} x {reps} "
                     f"repetitions; answers found in catalog: {found}")
        for kind, st in notes["query_kinds"].items():
            lines.append(f"{name} {kind}: {st['n']} queries, p50 {st['p50_ms']:.6g} ms, "
                         f"p99 {st['p99_ms']:.6g} ms")
    lines.append(f"{name} error_rate = {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")
    return metrics, tally, lines, notes


def run_traced(name: str, wl: Workload, seed: int, seconds: float, workdir: Path, results: Path):
    import layers

    span_file = results / f"{name}-seed{seed}-spans.jsonl"
    values, tally, absent = layers.traced_run(max(wl.box, layers.MIN_TRACE_BOX), worker_count(), seed,
                                              seconds, workdir, span_file)
    metrics = {k: {"value": v, "unit": layers.PER_LAYER[k]} for k, v in values.items()}
    lines = [f"{name} {k} = {v:.6g} {layers.PER_LAYER[k]}" for k, v in values.items()]
    lines.append(f"{name} absent wrapped names: {', '.join(absent) or 'none'}")
    lines.append(f"{name} spans -> {span_file.relative_to(ROOT)}")
    return metrics, tally, lines, {"absent": absent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ldptoric" / "__init__.py").is_file():
        print(f"error: the library sources are missing under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    time_fresh_import()  # compiles bytecode on a fresh checkout
    imports, _ = timed_setup(time_fresh_import, IMPORT_REPEATS)
    import ldptoric

    if not Path(ldptoric.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported ldptoric from {ldptoric.__file__}, not {SRC}", file=sys.stderr)
        return 2

    wl = WORKLOADS[args.workload]
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    workdir = BENCH / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            outcome = run_traced(args.workload, wl, args.seed, args.seconds, workdir, results)
        else:
            outcome = run_untraced(args.workload, wl, args.seed, args.seconds, workdir, imports)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, tally, lines, notes = outcome

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "box": wl.box, "stresses": wl.stresses, "bypasses": wl.bypasses,
        "nproc": os.cpu_count(), "python": platform.python_version(), "machine": platform.machine(),
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems[:20],
        "metrics": metrics, **notes,
    }
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    for line in lines:
        print(line)
    for problem in tally.problems[:20]:
        print(f"{args.workload} problem: {problem}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
