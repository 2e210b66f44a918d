"""In-memory span tracing of the esjs layers, from outside the program.

``instrument`` replaces the public functions that each module looks up in its
own namespace (``esjs.cli``, ``esjs.gof``, ``esjs.bootstrap``) with wrappers
that record a span (name, start, end, parent, thread) around every call;
``Tracer.restore`` puts the originals back.  ``layer_metrics`` turns the spans
of one traced CLI run into the per-layer metrics.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        # parent for spans opened on a bootstrap pool thread, whose own stack is empty
        self.pool_parent: int | None = None

    @contextmanager
    def span(self, name: str):
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            rec = Span(next(self._ids), name, stack[-1] if stack else self.pool_parent,
                       threading.get_ident())
        stack.append(rec.id)
        rec.start = time.perf_counter()
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(rec)

    def patch(self, module, attr: str, name: str, describe=None) -> None:
        """Wrap ``module.attr`` in a span; ``describe(args, result)`` adds counts."""
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
            if describe is not None:
                rec.attrs.update(describe(args, result))
            return result

        self.replace(module, attr, traced)

    def replace(self, module, attr: str, new) -> None:
        """Set ``module.attr`` to ``new`` until :meth:`restore`."""
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "parent": s.parent, "thread": s.thread,
             "start": s.start, "end": s.end, **s.attrs}
            for s in sorted(self.spans, key=lambda s: s.start)
        ]


def _grid_points(args, result) -> dict:
    # size of the union of both breakpoint sets: the kernel's evaluation grid.
    # It runs after the kernel's span closes, so its cost shows only in the
    # enclosing spans and in trace.overhead_s.
    a, b = args[0].breakpoints, args[1].breakpoints
    if a.size == b.size and np.array_equal(a, b):
        return {"grid": int(a.size)}
    idx = np.minimum(np.searchsorted(a, b), a.size - 1)
    return {"grid": int(a.size + b.size - np.count_nonzero(a[idx] == b))}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI's compare and simulate paths cross."""
    from esjs import bootstrap, cli, gof

    t = tracer
    t.patch(cli, "ingest_csv", "cli.ingest", lambda a, r: {"rows": r.n})
    t.patch(cli, "compare_families", "gof.compare_families")
    t.patch(cli, "simulate_experiment", "gof.simulate_experiment")
    t.patch(gof, "compare_families", "gof.compare_families")
    t.patch(gof, "fit_report", "gof.fit_report", lambda a, r: {"family": r.family.value})
    t.patch(gof, "fit_mle", "distributions.fit", lambda a, r: {"family": r.family.value})
    t.patch(gof, "sample_from", "distributions.sample", lambda a, r: {"points": r.n})
    t.patch(gof, "SortedSample", "survival.sort")
    steps = lambda a, r: {"steps": int(r.breakpoints.size)}  # noqa: E731
    t.patch(gof, "empirical_survival", "survival.build", steps)
    t.patch(gof, "km_binned_survival", "survival.build", steps)
    t.patch(gof, "esjs", "divergence.esjs", _grid_points)
    t.patch(gof, "bootstrap_ci", "bootstrap.ci")
    t.patch(gof, "derive_seed", "seeds.derive_seed")
    t.patch(bootstrap, "derive_seed", "seeds.derive_seed")
    t.patch(bootstrap, "moving_block_resample", "bootstrap.resample")

    replicate_values = bootstrap.replicate_values

    def traced_replicates(statistic, *args, **kwargs):
        def replicate(*parts):
            with t.span("gof.statistic"):
                return statistic(*parts)

        with t.span("bootstrap.replicate_values") as rec:
            t.pool_parent = rec.id
            try:
                return replicate_values(replicate, *args, **kwargs)
            finally:
                t.pool_parent = None

    t.replace(bootstrap, "replicate_values", traced_replicates)


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -np.inf
    for start, end in sorted(i for i in intervals if i[0] < i[1]):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def _tail(values: list[float]) -> float:
    """Highest order statistic with at least ten samples above it.

    Of n samples that is the (n - 10)-th smallest, the ``100 (n - 10) / n``
    percentile.  With ten samples or fewer none exists and the maximum stands in.
    """
    ordered = sorted(values)
    return ordered[max(len(ordered) - 11, 0)] if len(ordered) > 10 else ordered[-1]


def layer_metrics(spans: list[Span], families) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as ``name -> (value, unit)``.

    Times are busy time summed over threads; a self time is a span's duration
    minus the part of it that its child spans cover.  ``gof.statistic`` is the
    score of one bootstrap replicate, so its own time (the sorts ahead of each
    ``SortedSample``) counts to gof.  A layer or family a workload does not
    use reads 0.
    """
    named = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
        children[s.parent].append((s.start, s.end))

    def busy(*names):
        return sum((s.duration for name in names for s in named[name]), 0.0)

    def self_time(*names):
        return sum(
            s.duration - _covered([(max(a, s.start), min(b, s.end)) for a, b in children[s.id]])
            for name in names
            for s in named[name]
        )

    def attr_sum(name, key):
        return sum(s.attrs.get(key, 0) for s in named[name])

    def family_busy(name, family):
        return sum((s.duration for s in named[name] if s.attrs.get("family") == family), 0.0)

    esjs_ms = [1e3 * s.duration for s in named["divergence.esjs"]] or [0.0]
    replicate_ms = [1e3 * s.duration for s in named["gof.statistic"]] or [0.0]
    esjs_tail = _tail(esjs_ms)
    grid = attr_sum("divergence.esjs", "grid")
    esjs_s = busy("divergence.esjs")

    m: dict[str, tuple[float, str]] = {
        "cli.ingest_s": (busy("cli.ingest"), "s"),
        "cli.ingest_rows": (attr_sum("cli.ingest", "rows"), "count"),
        "cli.self_s": (self_time("cli.run"), "s"),
        "distributions.fit_s": (busy("distributions.fit"), "s"),
    }
    for fam in families:
        m[f"distributions.fit_s.{fam}"] = (family_busy("distributions.fit", fam), "s")
    m.update({
        "distributions.sample_s": (busy("distributions.sample"), "s"),
        "distributions.sample_points": (attr_sum("distributions.sample", "points"), "count"),
        "survival.build_s": (busy("survival.sort", "survival.build"), "s"),
        "survival.calls": (len(named["survival.build"]), "count"),
        "survival.steps_built": (attr_sum("survival.build", "steps"), "count"),
        "divergence.esjs_s": (esjs_s, "s"),
        "divergence.esjs_calls": (len(named["divergence.esjs"]), "count"),
        "divergence.grid_points": (grid, "count"),
        "divergence.ns_per_point": (1e9 * esjs_s / grid if grid else 0.0, "ns"),
        "divergence.esjs_ms.p50": (statistics.median(esjs_ms), "ms"),
        "divergence.esjs_ms.tail": (esjs_tail, "ms"),
        "bootstrap.ci_s": (busy("bootstrap.ci"), "s"),
        "bootstrap.self_s": (self_time("bootstrap.ci", "bootstrap.replicate_values"), "s"),
        "bootstrap.replicates": (len(named["gof.statistic"]), "count"),
        "bootstrap.replicate_ms": (statistics.median(replicate_ms), "ms"),
        "bootstrap.resample_s": (busy("bootstrap.resample"), "s"),
        "seeds.derive_seed_calls": (len(named["seeds.derive_seed"]), "count"),
        "seeds.derive_seed_s": (busy("seeds.derive_seed"), "s"),
    })
    for fam in families:
        m[f"gof.fit_report_s.{fam}"] = (family_busy("gof.fit_report", fam), "s")
    m["gof.self_s"] = (self_time(
        "gof.compare_families", "gof.simulate_experiment", "gof.fit_report", "gof.statistic"), "s")
    return m


#: Counts that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = (
    "cli.ingest_rows",
    "distributions.sample_points",
    "survival.calls",
    "survival.steps_built",
    "divergence.esjs_calls",
    "divergence.grid_points",
    "bootstrap.replicates",
    "seeds.derive_seed_calls",
)
