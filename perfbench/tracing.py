"""In-memory span tracing around the package's layer boundaries.

The tracer rebinds public names of each ``profile_null`` module, in every
module that imported them, to wrappers that record a span: name, start,
end, parent span and job id, plus an optional note taken from the result.
A layer's self time is its span minus the spans of its children.
Nothing under ``src/`` changes; the original functions are restored when
the ``installed`` context ends. Spans stay in memory and are written out by
``write_spans`` when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

# (module under profile_null, attribute, span name, note taken from the result)
TARGETS = [
    ("_kernels", "neg_null_loglik_u", "kernels.loglik", None),
    ("_kernels", "biweight_irls", "kernels.irls", None),
    ("numerics", "nelder_mead_minimize", "numerics.nm", lambda r: r.iterations),
    ("empirical_null", "fit_empirical_null", "empirical_null.fit", None),
    ("baselines", "fit_method_of_moments", "baselines.mom", None),
    ("simulation", "gen_single_measure", "simulation.gen", None),
    ("measures", "z_fixed_effects", "measures.zfe", None),
    ("report", "read_center_stats", "report.read", None),
    ("report", "standardize", "report.standardize", None),
    ("report", "align_scores", "report.align", None),
    ("report", "write_scores_report", "report.write", None),
    ("report", "write_composite_report", "report.write", None),
    ("report", "write_diagnostics", "report.write", None),
    ("report", "emit_funnel", "report.funnel", None),
    ("report", "fmt6", "report.fmt6", None),
    ("composite", "composite_table", "composite.table",
     lambda r: (len(r[0]), sum(1 for c in r[0] if c.partial))),
    ("composite", "correlation_matrix", "composite.corr", None),
    ("svg", "funnel_svg", "svg.render", len),
]

ERROR = "error"


class Tracer:
    """Collects spans from one process and one thread.

    Spans are kept column-wise in plain lists of strings and numbers, which
    the garbage collector does not scan, so hundreds of thousands of spans
    add little to the cost of a collection. Span ``i`` is
    ``name[i], start[i], end[i], parent[i], job_id[i], note[i]``; the parent of
    a root span is -1.
    """

    def __init__(self) -> None:
        self.name: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.job_id: list[int] = []
        self.note: list = []
        self._stack: list[int] = []
        self._job = -1

    def __len__(self) -> int:
        return len(self.name)

    def _open(self, name: str) -> int:
        i = len(self.name)
        self.name.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job_id.append(self._job)
        self.note.append(None)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, note=None):
        """``fn`` wrapped so each call records a span; ``note(result)``, if
        given, is stored with it, and a call that raises is noted ERROR."""
        open_, close, notes = self._open, self._close, self.note

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                notes[i] = ERROR
                raise
            finally:
                close(i)
            if note is not None:
                notes[i] = note(result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the benchmark's own code."""
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    @contextlib.contextmanager
    def job(self, job_id: int):
        self._job = job_id
        try:
            with self.span("job"):
                yield
        finally:
            self._job = -1


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every target, in every profile_null module that holds it,
    to a traced wrapper; restore the originals on exit. Yields the targets
    the package no longer has, each as ``module.attribute``: the metrics
    built on them cannot be measured, and the caller must fail the run."""
    originals, missing = [], []
    for mod_name, attr, span_name, note in TARGETS:
        try:
            orig = getattr(importlib.import_module(f"profile_null.{mod_name}"), attr)
        except (ImportError, AttributeError):
            missing.append(f"{mod_name}.{attr}")
            continue
        originals.append((orig, attr, span_name, note))
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "profile_null"
                                     or name.startswith("profile_null."))]
    restore = []
    try:
        for orig, attr, span_name, note in originals:
            wrapper = tracer.wrap(span_name, orig, note)
            for mod in modules:
                if getattr(mod, attr, None) is orig:
                    setattr(mod, attr, wrapper)
                    restore.append((mod, attr, orig))
        yield missing
    finally:
        for mod, attr, orig in reversed(restore):
            setattr(mod, attr, orig)


def _child_time(t: Tracer) -> list[float]:
    child = [0.0] * len(t)
    for i, p in enumerate(t.parent):
        if p >= 0:
            child[p] += t.end[i] - t.start[i]
    return child


class SpanStats:
    """Per-name totals over all spans: count, duration, self time, notes."""

    def __init__(self, t: Tracer) -> None:
        child = _child_time(t)
        self.n_spans = len(t)
        self.count = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.notes = defaultdict(list)
        for i, name in enumerate(t.name):
            dur = t.end[i] - t.start[i]
            self.count[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child[i]
            if t.note[i] is not None:
                self.notes[name].append(t.note[i])

    def mean(self, name: str) -> float:
        n = self.count[name]
        return self.total[name] / n if n else 0.0

    def per(self, name: str, base_name: str) -> float:
        n = self.count[base_name]
        return self.count[name] / n if n else 0.0


def check_nesting(t: Tracer) -> list[str]:
    """Problems with span structure: a span not closed or ending before it
    starts, a child outside its parent's interval or in another job, or
    negative self time."""
    problems = []
    for i, p in enumerate(t.parent):
        if t.end[i] < t.start[i]:
            problems.append(f"span {i} ({t.name[i]}) ends before it starts")
        if p >= 0:
            if not (t.start[p] <= t.start[i] and t.end[i] <= t.end[p]):
                problems.append(f"span {i} ({t.name[i]}) lies outside its parent "
                                f"{p} ({t.name[p]})")
            if t.job_id[i] != t.job_id[p]:
                problems.append(f"span {i} ({t.name[i]}) has another job id "
                                f"than its parent")
    for i, c in enumerate(_child_time(t)):
        if t.end[i] - t.start[i] - c < -1e-9:
            problems.append(f"span {i} ({t.name[i]}) has negative self time")
    return problems


def write_spans(t: Tracer, path) -> None:
    """One CSV line per span; times in nanoseconds from the first span."""
    t0 = t.start[0] if len(t) else 0.0
    lines = ["id,parent,job,name,start_ns,end_ns,note"]
    for i, name in enumerate(t.name):
        note = "" if t.note[i] is None else str(t.note[i]).replace(",", ";")
        lines.append(f"{i},{t.parent[i]},{t.job_id[i]},{name},"
                     f"{round((t.start[i] - t0) * 1e9)},{round((t.end[i] - t0) * 1e9)},"
                     f"{note}")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
