"""Per-layer tracing from outside the program.

``traced(sc)`` wraps the layer entry points the way ``repro.core.affidavit``
binds them (plus ``blocking.state_overlap``, which the search calls through
its module) for the duration of a ``with`` block. Each call is a span with
its own Spark job group; spans are kept in memory and resolved when the
block ends: a layer's self time is its span time minus its child spans, and
its jobs are the jobs submitted under its spans' groups. The search itself
is the root span ``affidavit``, whose self time and jobs are what the search
does outside every wrapped call.

Jobs are counted after the search, once Spark's listener bus has delivered
every job event; the benchmark's session retains enough jobs for that.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

from pyspark import SparkContext

import repro.core.affidavit as affidavit
import repro.core.blocking as blocking

ROOT = "affidavit"

# name bound in repro.core.affidavit -> layer (module.function)
LAYERS = {
    "with_block_key": "blocking.with_block_key",
    "indeterminacy": "blocking.indeterminacy",
    "evaluate_pairs": "blocking.evaluate_pairs",
    "sample_examples": "candidates.sample_examples",
    "induce_attr_candidates": "candidates.induce_attr_candidates",
    "greedy_maps_bulk": "alignment.greedy_maps_bulk",
    "greedy_map": "alignment.greedy_map",
    "overlap_start_state": "overlap_init.overlap_start_state",
    "explanation_from_state": "explanation.explanation_from_state",
}
STATE_OVERLAP = "blocking.state_overlap"
# Layers that run no Spark job: with_block_key only builds a lazy plan (its
# per-row UDF cost lands in the jobs of later layers), and candidate
# induction is driver CPU.
DRIVER_ONLY = {"blocking.with_block_key", "candidates.induce_attr_candidates"}

# layer -> (counter name, work done by one call from its arguments/result)
COUNTERS: dict[str, tuple[str, Callable]] = {
    "blocking.evaluate_pairs": ("pairs", lambda args, out: len(args[3])),
    "candidates.induce_attr_candidates": ("candidates", lambda args, out: len(out)),
}

_run_ids = itertools.count()


@dataclass
class Span:
    layer: str
    group: str
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)


def wait_for_job_events(sc: SparkContext) -> None:
    """Block until the listener bus has delivered every queued event, so the
    status tracker knows every job submitted so far."""
    sc._jsc.sc().listenerBus().waitUntilEmpty()


class Tracer:
    def __init__(self, sc: SparkContext):
        self.sc = sc
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._prefix = f"perfbench-trace-{next(_run_ids)}-"

    @contextlib.contextmanager
    def span(self, layer: str):
        parent = self._stack[-1] if self._stack else None
        sp = Span(layer, f"{self._prefix}{len(self.spans)}", parent)
        self.spans.append(sp)
        self._stack.append(sp)
        self.sc.setJobGroup(sp.group, layer)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent.child_s += sp.end - sp.start
                self.sc.setJobGroup(parent.group, parent.layer)

    def wrap(self, layer: str, fn: Callable) -> Callable:
        counter = COUNTERS.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(layer) as sp:
                out = fn(*args, **kwargs)
                if counter is not None:
                    sp.counts[counter[0]] = counter[1](args, out)
                return out

        return wrapper

    def job_ids(self) -> dict[str, list[int]]:
        """Span group -> ids of the jobs it submitted."""
        wait_for_job_events(self.sc)
        tracker = self.sc.statusTracker()
        return {sp.group: list(tracker.getJobIdsForGroup(sp.group)) for sp in self.spans}

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, self_s, jobs and the layer's own counters."""
        jobs = self.job_ids()
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "jobs": 0}
        )
        for sp in self.spans:
            t = out[sp.layer]
            t["calls"] += 1
            t["self_s"] += sp.end - sp.start - sp.child_s
            t["jobs"] += len(jobs[sp.group])
            for k, v in sp.counts.items():
                t[k] = t.get(k, 0) + v
        return dict(out)


@contextlib.contextmanager
def traced(sc: SparkContext):
    """Wrap the layer entry points for the block's duration; yields the
    tracer. The caller opens the root span around the search."""
    tracer = Tracer(sc)
    saved = {name: getattr(affidavit, name) for name in LAYERS}
    saved_overlap = blocking.state_overlap
    try:
        for name, layer in LAYERS.items():
            setattr(affidavit, name, tracer.wrap(layer, saved[name]))
        blocking.state_overlap = tracer.wrap(STATE_OVERLAP, saved_overlap)
        yield tracer
    finally:
        for name, fn in saved.items():
            setattr(affidavit, name, fn)
        blocking.state_overlap = saved_overlap
