"""In-memory span tracer that wraps library functions from outside the library.

A span is one call: its name, the span that caused it, the root span of its
request, and start and end times in nanoseconds.  Spans stay in memory until
`write` dumps them as JSON lines at the end of a run.

`wrap` replaces a name that a library module imported from the layer below
(for example `ldptoric.enumeration.canonical_form`) with a recording wrapper;
`restore` puts every original back.  A name that no longer exists is noted in
`absent` and skipped, so a refactored library still traces what is left.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass
class NameStats:
    """Aggregate of all spans with one name: calls, total and self nanoseconds,
    and how many calls returned something other than None."""

    calls: int = 0
    total_ns: int = 0
    self_ns: int = 0
    non_none: int = 0

    @property
    def total_s(self) -> float:
        return self.total_ns / 1e9

    @property
    def self_s(self) -> float:
        return self.self_ns / 1e9

    @property
    def mean_us(self) -> float:
        return self.total_ns / 1e3 / self.calls if self.calls else 0.0


class Tracer:
    def __init__(self) -> None:
        # Each span is [id, parent id or -1, name, root id, start ns, end ns, returned non-None].
        self.spans: list[list] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, Callable]] = []

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called `name`."""
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][3] if parent >= 0 else sid
        rec = [sid, parent, name, root, 0, 0, False]
        self.spans.append(rec)
        self._stack.append(sid)
        rec[4] = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            rec[5] = time.perf_counter_ns()
            self._stack.pop()
        rec[6] = result is not None
        return result

    def wrap(self, module, attr: str, on_call: Callable | None = None, span: bool = True) -> None:
        """Trace every call the module makes through its global `attr`.

        The span is named after the importing module, e.g. "families.analyze".
        on_call, if given, sees the call's arguments before the span starts.
        With span=False no span is recorded and only on_call runs: for very
        hot helpers such as `checked_i64`, where a span per call would swamp
        the measurement.
        """
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        original = getattr(module, attr, None)
        if not callable(original):
            if name not in self.absent:
                self.absent.append(name)
            return

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(*args, **kwargs)
            if not span:
                return original(*args, **kwargs)
            return self.call(name, original, *args, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> bool:
        """Put back every wrapped name; True when all originals are in place."""
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        ok = all(getattr(module, attr) is original for module, attr, original in self._patched)
        self._patched.clear()
        return ok

    def mark(self) -> int:
        return len(self.spans)

    def drop(self, since: int) -> None:
        """Forget the spans recorded from `since` on; no span may be open."""
        assert not self._stack
        del self.spans[since:]

    def stats(self, since: int = 0) -> dict[str, NameStats]:
        """Per-name aggregates over the spans recorded from `since` on.
        Self time is a span's duration minus that of its direct children."""
        spans = self.spans[since:]
        child_ns: Counter = Counter()
        for _, parent, _, _, t0, t1, _ in spans:
            if parent >= since:
                child_ns[parent] += t1 - t0
        out: dict[str, NameStats] = {}
        for sid, _, name, _, t0, t1, non_none in spans:
            st = out.setdefault(name, NameStats())
            st.calls += 1
            st.total_ns += t1 - t0
            st.self_ns += t1 - t0 - child_ns[sid]
            st.non_none += non_none
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for sid, parent, name, root, t0, t1, _ in self.spans:
                fh.write(
                    json.dumps({"id": sid, "parent": parent, "name": name, "root": root,
                                "start_ns": t0, "end_ns": t1}, separators=(",", ":")) + "\n"
                )
