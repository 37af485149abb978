"""Affidavit — Algorithm 1 of the paper, orchestrating the Spark substrate.

Best-first search over partial attribute-function assignments. The driver
holds the bounded frontier (queue width rho) and, for each polled state,
one collected block histogram: counts per (side, block, undecided
attribute, value), made by a single Spark aggregation
(``blocking.block_histogram``). Everything the poll needs follows from it
in pandas:

* attribute ordering  -> blocking.indeterminacy
* example sampling    -> candidates.sample_examples
* greedy value maps   -> alignment.greedy_maps_bulk
* candidate scoring   -> blocking.evaluate_pairs

Finalize collects one histogram per MAP_MARKER attribute (alignment.
greedy_map) and takes the end state's M(H) from the last one; the start
states are costed from a histogram too. The two remaining steps are one
collected Spark query each, finished in pandas on the driver:

* Hs initialization   -> overlap_init.overlap_start_state (the best
  a-priori target per source record: |S| rows)
* final conversion    -> explanation.explanation_from_state (Prop. 3.6:
  (side, record id, full-tuple key) for |S| + |T| rows)

Nothing the search computes is cached in Spark.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from .alignment import greedy_map, greedy_maps_bulk
from .blocking import (
    Histogram,
    block_histogram,
    evaluate_pairs,
    indeterminacy,
    with_block_key,
)
from .candidates import ExampleSample, induce_attr_candidates, sample_examples, scaled_support
from .explanation import Explanation, explanation_from_state, trivial_explanation
from .functions import Identity, TransformFunction
from .overlap_init import overlap_start_state
from .queue import BoundedLevelQueue
from .state import MAP_MARKER, UNDECIDED, Problem, SearchState, state_cost
from .stats import sample_size_for_support

__all__ = ["AffidavitConfig", "SearchDiagnostics", "run_affidavit"]


@dataclass
class AffidavitConfig:
    """Paper parameters (§5.2) plus implementation bounds.

    ``start``: 'id' (H^id), 'overlap' (H^s), or 'empty' (H^0).
    ``beta``: branching factor; ``queue_width``: the paper's rho (queue
    bound); ``theta``: estimated fraction of target records showing a
    function's effect; ``confidence``: the paper's ρ.
    """

    alpha: float = 0.5
    beta: int = 2
    queue_width: int = 5
    theta: float = 0.1
    confidence: float = 0.95
    start: str = "id"
    max_block_size: int = 100_000
    seed: int = 0
    max_polls: int = 1000


@dataclass
class SearchDiagnostics:
    """What one search did. ``end_state`` is the polled end state the
    explanation is built from; None means no end state was polled (``max_polls``
    ran out, or the queue emptied) and the trivial explanation was returned."""

    polls: int = 0
    generated: int = 0
    runtime_s: float = 0.0
    init_runtime_s: float = 0.0
    end_state: SearchState | None = None
    start_states: int = 0
    finalized: int = 0
    # rows of every block histogram collected to the driver, in order
    hist_rows: list[int] = field(default_factory=list)


class _Search:
    def __init__(self, problem: Problem, config: AffidavitConfig):
        self.p = problem
        self.cfg = config
        self.k = sample_size_for_support(config.theta, config.confidence)
        self.diag = SearchDiagnostics()
        self._seed_ctr = 0

    def _seed(self) -> int:
        self._seed_ctr += 1
        return self.cfg.seed * 10_007 + self._seed_ctr

    def _cost(self, cf: int, overlap: int) -> float:
        return state_cost(self.p, cf, overlap, self.cfg.alpha)

    def _histogram(
        self, state: SearchState, indices: Iterable[int]
    ) -> tuple[Histogram, Histogram]:
        """Block histogram of ``state`` over the attributes at ``indices``."""
        attrs = self.p.attrs
        s_keyed = with_block_key(self.p.source, state, attrs, is_source=True)
        t_keyed = with_block_key(self.p.target, state, attrs, is_source=False)
        src, tgt = block_histogram(s_keyed, t_keyed, [attrs[i] for i in indices])
        self.diag.hist_rows.append(sum(len(h) for side in (src, tgt) for h in side.values()))
        return src, tgt

    # ------------------------------------------------------------------
    # Initialization (§4.2)
    # ------------------------------------------------------------------
    def init_start_states(self) -> list[SearchState]:
        d = self.p.n_attrs
        empty = SearchState(tuple(UNDECIDED for _ in range(d)))
        if self.cfg.start == "empty":
            m = min(self.p.n_source, self.p.n_target)  # single block
            return [empty.with_cost(self._cost(0, m), m)]
        if self.cfg.start == "id":
            pairs = [(i, Identity()) for i in range(d)]
            overlaps = evaluate_pairs(self.p, *self._histogram(empty, range(d)), pairs)
            states = []
            for (i, f), m in zip(pairs, overlaps):
                st = empty.extend(i, f)
                states.append(st.with_cost(self._cost(st.cf(), m), m))
            return states
        if self.cfg.start == "overlap":
            st = overlap_start_state(self.p, max_block_size=self.cfg.max_block_size)
            if not st.decided():  # nothing survived the threshold
                m = min(self.p.n_source, self.p.n_target)
                return [empty.with_cost(self._cost(0, m), m)]
            # M(Hs) as the extension of Hs-without-its-last-id by that id
            j, f = st.decided()[-1]
            parent = SearchState(st.assignments[:j] + (UNDECIDED,) + st.assignments[j + 1 :])
            (m,) = evaluate_pairs(self.p, *self._histogram(parent, [j]), [(j, f)])
            return [st.with_cost(self._cost(st.cf(), m), m)]
        raise ValueError(f"unknown start strategy {self.cfg.start!r}")

    # ------------------------------------------------------------------
    # Extensions (Algorithm 1)
    # ------------------------------------------------------------------
    def extensions(self, h: SearchState) -> list[SearchState]:
        attrs = self.p.attrs
        und = h.undecided_indices()
        und_names = [attrs[i] for i in und]
        src, tgt = self._histogram(h, und)
        ind = indeterminacy(src, tgt, und_names)
        ordered = sorted(und, key=lambda i: (ind[attrs[i]], i))
        greedy = greedy_maps_bulk(src, tgt, und_names, seed=self._seed())
        sample = sample_examples(src, tgt, und_names, k=self.k, seed=self._seed())
        support = scaled_support(min(len(sample.targets), sample.population), self.k)

        def extend(i: int) -> list[SearchState]:
            return self._extend_attr(h, i, src, tgt, greedy[attrs[i]], sample, support)

        # The first beta attributes in indeterminacy order; failing those,
        # the first later attribute with an extension.
        exts = [e for i in ordered[: self.cfg.beta] for e in extend(i)]
        for i in ordered[self.cfg.beta :]:
            if exts:
                break
            exts = extend(i)
        if exts:
            return exts
        # Every undecided attribute needs a value mapping: mark and
        # finalize (Algorithm 1's last branch).
        st = h
        for i in und:
            st = st.extend(i, MAP_MARKER)
        return [self.finalize(st)]

    def _extend_attr(
        self,
        h: SearchState,
        i: int,
        src: Histogram,
        tgt: Histogram,
        g: TransformFunction,
        sample: ExampleSample,
        support: int,
    ) -> list[SearchState]:
        """The (at most beta) cheapest extensions of ``h`` on attribute i by
        an induced candidate that beats the greedy map ``g``."""
        cands = [
            f for f, _ in induce_attr_candidates(sample, self.p.attrs[i], min_support=support)
        ]
        g_m, *ms = evaluate_pairs(self.p, src, tgt, [(i, f) for f in [g, *cands]])
        g_cost = self._cost(h.cf() + g.psi, g_m)
        scored = []
        for f, m in zip(cands, ms):
            cost = self._cost(h.cf() + f.psi, m)
            if cost < g_cost:
                scored.append((cost, m, f))
        scored.sort(key=lambda cmf: (cmf[0], cmf[2].psi, cmf[2].signature()))
        return [h.extend(i, f).with_cost(cost, m) for cost, m, f in scored[: self.cfg.beta]]

    # ------------------------------------------------------------------
    # Finalize (§4.3): resolve MAP_MARKER slots with greedy maps
    # ------------------------------------------------------------------
    def finalize(self, st: SearchState) -> SearchState:
        """Resolve the markers one after another, each from a histogram of
        the state with the previous ones resolved; M of the end state is
        the last greedy map's overlap."""
        for i in st.marker_indices():
            src, tgt = self._histogram(st, [i])
            g = greedy_map(src, tgt, self.p.attrs[i], seed=self._seed())
            (m,) = evaluate_pairs(self.p, src, tgt, [(i, g)])
            st = st.extend(i, g)
        self.diag.finalized += 1
        return st.with_cost(self._cost(st.cf(), m), m)

    # ------------------------------------------------------------------
    # Main loop (Algorithm 1)
    # ------------------------------------------------------------------
    def run(self) -> tuple[Explanation, SearchDiagnostics]:
        t0 = time.perf_counter()
        q = BoundedLevelQueue(self.cfg.queue_width)
        seen: set = set()
        for st in self.init_start_states():
            seen.add(st.signature())
            q.push(st, st.cost, st.level)
            self.diag.start_states += 1
        self.diag.init_runtime_s = time.perf_counter() - t0

        end: SearchState | None = None
        while len(q) and self.diag.polls < self.cfg.max_polls:
            h = q.poll()
            self.diag.polls += 1
            if h.is_end:
                end = h
                break
            for ext in self.extensions(h):
                sig = ext.signature()
                if sig in seen:
                    continue
                seen.add(sig)
                self.diag.generated += 1
                q.push(ext, ext.cost, ext.level)

        if end is None:
            expl = trivial_explanation(self.p)
        else:
            expl = explanation_from_state(self.p, end)
        self.diag.end_state = end
        self.diag.runtime_s = time.perf_counter() - t0
        return expl, self.diag


def run_affidavit(
    problem: Problem, config: AffidavitConfig | None = None
) -> tuple[Explanation, SearchDiagnostics]:
    """Solve one Explain-Table-Delta instance; returns the explanation the
    search affirms plus diagnostics (polls, runtime, end state)."""
    return _Search(problem, config or AffidavitConfig()).run()
