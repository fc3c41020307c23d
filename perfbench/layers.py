"""The traced run: per-layer metrics from spans around the library's layers.

The run wraps, from outside the library, the names each module imports from
the layer below (WRAPPED), and records spans around the benchmark's own calls
into enumeration and cli.  It then runs, in order:

1. untraced and traced single-process box-n pipelines (n is 2, or the
   workload's box if larger), alternating for three quarters of the time;
   times are medians over the traced passes, counts come from one pass and
   must repeat exactly in every other;
2. the same at box 1 for the rest of the time: the box1.* metrics, which
   split the pass that the box1 workload times into its layers;
3. a fixed batch of seeded queries against the box-2 catalog (query.* metrics),
   the layers of the query workload;
4. one enumerate_ldp pass at box n with a worker pool, for pool CPU utilisation;
5. a count of checked_i64 calls per canonical_form and per identify over a
   fixed box-2 sample.

So the sweep is the same for the box1 and the query workload; outside box1.*
and query.*, the pipeline metrics (enumeration.*, equivalence.*, ...)
describe box 2, or the workload's box if larger.

Times are divided by the reference slowdown measured around them (see
reference.py), so they read as seconds at nominal speed.

Every wrapped name is restored after each step; a name that is not restored
counts as a failure.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter
from pathlib import Path

from ldptoric import cli, enumeration, equivalence, families, lattice, polygon, surface

import workloads
import reference
from spans import NameStats, Tracer

WRAPPED = (
    (enumeration, ("canonical_form", "validate_ldp_polygon", "analyze", "identify", "classify_three")),
    (families, ("are_equivalent", "generate", "analyze")),
)
QUERY_BATCH = 1000
QUERY_OPS = ("validate", "canonical_form", "analyze", "identify", "classify_three", "are_equivalent")
# Fixed sample for the checked_i64 counts: box-2 raw cycles and classes.
PROBE_BOX = 2
# Box 1 has no three-singular class, so classify_three would never run.
MIN_TRACE_BOX = 2
BOX1_SHARE = 0.25  # of the run's time, for the box-1 pipelines
# box1.* name -> the per-pass times it sums.
BOX1_LAYERS = {
    "box1.enumerate_ldp_s": ("enumeration.enumerate_ldp_s",),
    "box1.dfs_self_s": ("enumeration.dfs_self_s",),
    "box1.canonical_form_s": ("equivalence.canonical_form_s",),
    "box1.validate_s": ("polygon.validate_s",),
    "box1.classify_catalog_s": ("enumeration.classify_catalog_s",),
    "box1.verify_catalog_s": ("enumeration.verify_catalog_s",),
    "box1.catalog_io_s": ("cli.write_catalog_s", "cli.read_catalog_s"),
}

# name -> unit, in report order.
PER_LAYER = {
    "enumeration.enumerate_ldp_s": "s",
    "enumeration.dfs_self_s": "s",
    "enumeration.canonicalizations": "count",
    "enumeration.classes": "count",
    "enumeration.dedup_yield": "ratio",
    "enumeration.shard_max_share": "ratio",
    "enumeration.pool_cpu_util": "ratio",
    "enumeration.classify_catalog_s": "s",
    "enumeration.verify_catalog_s": "s",
    "equivalence.canonical_form_s": "s",
    "equivalence.canonical_form_us": "us",
    "equivalence.are_equivalent_calls": "count",
    "equivalence.are_equivalent_hit_rate": "ratio",
    "polygon.validate_calls": "count",
    "polygon.validate_s": "s",
    "surface.analyze_calls": "count",
    "surface.analyze_s": "s",
    "families.identify_calls": "count",
    "families.identify_us": "us",
    "families.generate_calls": "count",
    "families.classify_three_s": "s",
    "cli.write_catalog_s": "s",
    "cli.read_catalog_s": "s",
    "cli.catalog_bytes": "B",
    "lattice.checked_i64_per_canonical_form": "count",
    "lattice.checked_i64_per_identify": "count",
    "trace.overhead_frac": "ratio",
    "trace.reference_slowdown": "ratio",
    **{f"query.{op}_us": "us" for op in QUERY_OPS},
    **{name: "s" for name in BOX1_LAYERS},
    "box1.trace_overhead_frac": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Run(workloads.Tally):
    """The traced run's tally plus its tracer and what the wrappers observe."""

    def __init__(self) -> None:
        super().__init__()
        self.tracer = Tracer()
        self.first_vertices: Counter = Counter()
        self.slowdowns: list[float] = []

    def install(self) -> None:
        def note_first_vertex(poly, *args, **kwargs):
            self.first_vertices[poly.vertices[0]] += 1

        for module, names in WRAPPED:
            for name in names:
                hook = note_first_vertex if (module, name) == (enumeration, "canonical_form") else None
                self.tracer.wrap(module, name, on_call=hook)

    def restore(self) -> list[str]:
        return [] if self.tracer.restore() else ["a wrapped name was not restored"]


def _pipeline_metrics(st: dict[str, NameStats], classes: int, catalog_bytes: int,
                      first_vertices: Counter) -> tuple[dict, dict]:
    """(counts, times) of one traced pipeline pass."""
    def get(name: str) -> NameStats:
        return st.get(name, NameStats())

    enum = get("enumeration.enumerate_ldp")
    canon = get("enumeration.canonical_form")
    validate = get("enumeration.validate_ldp_polygon")
    analyze = [get("enumeration.analyze"), get("families.analyze")]
    identify = get("enumeration.identify")
    equiv = get("families.are_equivalent")
    counts = {
        "enumeration.canonicalizations": canon.calls,
        "enumeration.classes": classes,
        "enumeration.dedup_yield": _ratio(classes, canon.calls),
        "enumeration.shard_max_share": _ratio(max(first_vertices.values(), default=0),
                                              sum(first_vertices.values())),
        "equivalence.are_equivalent_calls": equiv.calls,
        "equivalence.are_equivalent_hit_rate": _ratio(equiv.non_none, equiv.calls),
        "polygon.validate_calls": validate.calls,
        "surface.analyze_calls": sum(a.calls for a in analyze),
        "families.identify_calls": identify.calls,
        "families.generate_calls": get("families.generate").calls,
        "cli.catalog_bytes": catalog_bytes,
    }
    times = {
        "enumeration.enumerate_ldp_s": enum.total_s,
        "enumeration.dfs_self_s": enum.self_s,
        "enumeration.classify_catalog_s": get("enumeration.classify_catalog").total_s,
        "enumeration.verify_catalog_s": get("enumeration.verify_catalog").total_s,
        "equivalence.canonical_form_s": canon.total_s,
        "equivalence.canonical_form_us": canon.mean_us,
        "polygon.validate_s": validate.total_s,
        "surface.analyze_s": sum(a.total_s for a in analyze),
        "families.identify_us": identify.mean_us,
        "families.classify_three_s": get("enumeration.classify_three").total_s,
        "cli.write_catalog_s": get("cli.write_catalog").total_s,
        "cli.read_catalog_s": get("cli.read_catalog").total_s,
    }
    return counts, times


def _pipelines(run: _Run, n: int, seconds: float, workdir: Path) -> tuple[dict, dict, float]:
    """Returns (counts of one traced pass, median times over the traced passes,
    traced over untraced pass time).  Per-pass times are divided by the
    reference slowdown measured around the pass, as in run.py, so they read
    as seconds at nominal speed."""
    tracer = run.tracer
    untraced: list[float] = []
    traced: list[float] = []
    pass_times: list[dict] = []
    first_counts = None

    def untraced_pass() -> None:
        (elapsed, problems, _, _), slowdown = ref.around(workloads.pipeline_pass, n, workdir)
        run.add(problems)
        untraced.append(elapsed / slowdown)

    def traced_pass():
        run.install()
        try:
            result = tracer.call("pipeline", workloads.pipeline_pass, n, workdir, tracer.call)
        finally:
            restore_problems = run.restore()
        return result, restore_problems

    run.add(workloads.pipeline_pass(workloads.WARM_UP_BOX, workdir)[1])  # untimed warm-up
    ref = reference.Reference()
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        # Alternate the order within each pair, so neither side always runs
        # right after the other.
        untraced_first = len(traced) % 2 == 0
        if untraced_first:
            untraced_pass()
        run.first_vertices.clear()
        mark = tracer.mark()
        ((elapsed, problems, classes, size), restore_problems), slowdown = ref.around(traced_pass)
        problems += restore_problems
        traced.append(elapsed / slowdown)
        run.slowdowns.append(slowdown)
        counts, times = _pipeline_metrics(tracer.stats(mark), classes, size, run.first_vertices)
        pass_times.append({k: v / slowdown for k, v in times.items()})
        if first_counts is None:
            first_counts = counts
        else:
            if counts != first_counts:
                problems.append(f"traced pass counts differ: {counts} vs {first_counts}")
            tracer.drop(mark)  # keep only the first pass's spans for the span file
        run.add(problems)
        if not untraced_first:
            untraced_pass()
    times = {name: statistics.median(t[name] for t in pass_times) for name in pass_times[0]}
    return first_counts, times, statistics.median(traced) / statistics.median(untraced)


def _queries(run: _Run, seed: int, workdir: Path) -> dict:
    index, entries = workloads.build_index(workloads.QUERY_BOX)
    run.add(workloads.check_index(workloads.QUERY_BOX, entries, workdir))
    queries = [workloads.pose(src, seed, slot, 0)
               for slot, src in enumerate(workloads.make_sources(seed, entries, QUERY_BATCH))]
    tracer = run.tracer
    nominal_ns: Counter = Counter()
    calls: Counter = Counter()

    def answer_chunk(chunk):
        return [tracer.call("query", workloads.answer, q, index, tracer.call) for q in chunk]

    run.install()
    ref = reference.Reference()
    try:
        for start in range(0, len(queries), workloads.QUERY_CHUNK):
            chunk = queries[start:start + workloads.QUERY_CHUNK]
            mark = tracer.mark()
            answers, slowdown = ref.around(answer_chunk, chunk)
            run.slowdowns.append(slowdown)
            for name, st in tracer.stats(mark).items():
                nominal_ns[name] += st.total_ns / slowdown
                calls[name] += st.calls
            for q, a in zip(chunk, answers):
                problem = workloads.check_answer(q, a)
                run.add([problem] if problem else [])
    finally:
        run.add(run.restore())
    return {f"query.{op}_us": _ratio(nominal_ns[f"query.{op}"] / 1e3, calls[f"query.{op}"]) for op in QUERY_OPS}


def _pool(run: _Run, n: int, jobs: int, workdir: Path) -> dict:
    path = workdir / "pool.jsonl"
    cpu0, t0 = os.times(), time.perf_counter()
    entries = enumeration.enumerate_ldp(n, jobs=jobs)
    wall, cpu1 = time.perf_counter() - t0, os.times()
    cpu = sum(cpu1[i] - cpu0[i] for i in range(4))  # user, system, children user, children system
    cli.write_catalog(entries, str(path))
    run.add(workloads.check_raw_catalog(n, path))
    return {"enumeration.pool_cpu_util": cpu / (wall * jobs)}


def _checked_i64_counts(run: _Run) -> dict:
    raw = [polygon.validate_ldp_polygon(c) for c in enumeration.enumerate_raw(PROBE_BOX)]
    classes = [e.polygon() for e in enumeration.enumerate_ldp(PROBE_BOX) if e.singular_count in (1, 2, 3)]
    calls = 0

    def count(*args, **kwargs) -> None:
        nonlocal calls
        calls += 1

    for module in (lattice, surface):
        run.tracer.wrap(module, "checked_i64", on_call=count, span=False)
    try:
        for poly in raw:
            equivalence.canonical_form(poly)
        per_form = _ratio(calls, len(raw))
        calls = 0
        for poly in classes:
            families.identify(poly)
        per_identify = _ratio(calls, len(classes))
    finally:
        run.add(run.restore())
    return {
        "lattice.checked_i64_per_canonical_form": per_form,
        "lattice.checked_i64_per_identify": per_identify,
    }


def traced_run(n: int, jobs: int, seed: int, seconds: float, workdir: Path, span_file: Path):
    """Returns (metrics by name, a tally with attempted, failed and problems,
    absent names)."""
    run = _Run()
    counts, times, overhead = _pipelines(run, n, seconds * (1 - BOX1_SHARE), workdir)
    metrics = {**counts, **times, "trace.overhead_frac": overhead}
    _, times, overhead = _pipelines(run, 1, seconds * BOX1_SHARE, workdir)
    metrics.update({name: sum(times[part] for part in parts) for name, parts in BOX1_LAYERS.items()})
    metrics["box1.trace_overhead_frac"] = overhead
    metrics.update(_queries(run, seed, workdir))
    metrics.update(_pool(run, n, jobs, workdir))
    metrics.update(_checked_i64_counts(run))
    metrics["trace.reference_slowdown"] = statistics.median(run.slowdowns)
    run.tracer.write(span_file)
    ordered = {name: metrics[name] for name in PER_LAYER}
    return ordered, run, run.tracer.absent
