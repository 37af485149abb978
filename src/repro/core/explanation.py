"""Explanations (paper §3) and the Prop. 3.6 construction.

Given attribute functions F^E, a valid explanation follows by applying F^E
to every source record, matching transformed source tuples with identical
target tuples, and enforcing a bijection: within each identical full-tuple
group the i-th source record (in random-but-deterministic order) matches
the i-th target record. Unmatched source records are deletions (S^E-),
unmatched target records insertions (T^E+).

One Spark query keys both snapshots (the full-tuple key is the block key
of the end state) and collects |S| + |T| rows of (side, ``__rid``, key);
the bijection is drawn on the driver from rows sorted by ``__rid``, so a
seed gives the same pairs at any partitioning. The pairs come back as a
local, uncached DataFrame: callers have nothing to release.

Costs (Def. 3.10, ``state.explanation_cost``): c(E) = 2*alpha*|A|*|T^E+| +
2*(1-alpha)*sum_a psi(f_a).
The trivial explanation E_empty (everything deleted+inserted, identity
functions) costs 2*alpha*|A|*|T| and upper-bounds every search result.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .blocking import BK, with_block_key
from .functions import Identity, TransformFunction
from .state import RID, Problem, SearchState, explanation_cost

__all__ = ["Explanation", "explanation_from_functions", "trivial_explanation"]


@dataclass
class Explanation:
    """A valid explanation E = (S^E-, T^E+, F^E) plus the implied record
    alignment (pairs of source/target ``__rid``)."""

    functions: tuple[TransformFunction, ...]
    n_attrs: int
    core_size: int
    n_deleted: int
    n_inserted: int
    core_pairs: DataFrame | None = None  # columns: s_rid, t_rid

    def cost(self, alpha: float = 0.5) -> float:
        psi = sum(f.psi for f in self.functions)
        return explanation_cost(self.n_attrs, self.n_inserted, psi, alpha)


def explanation_from_functions(
    problem: Problem,
    functions: tuple[TransformFunction, ...],
    *,
    seed: int = 0,
) -> Explanation:
    """Prop. 3.6: build the (unique up to interchangeable duplicates)
    maximal valid explanation for the given attribute functions. ``seed``
    orders the records within each group of identical full tuples."""
    if len(functions) != problem.n_attrs:
        raise ValueError("need one function per attribute")
    # The full-tuple key is the block key of the end state F.
    end = SearchState(tuple(functions))
    keyed = [
        with_block_key(df, end, problem.attrs, is_source=side == 0).select(
            F.lit(side).alias("side"), RID, BK
        )
        for side, df in ((0, problem.source), (1, problem.target))
    ]
    rows = keyed[0].unionByName(keyed[1]).toPandas()
    rows = rows.sort_values(["side", RID], ignore_index=True)
    rows["u"] = np.random.default_rng(seed).random(len(rows))
    rows["rn"] = rows.groupby(["side", BK])["u"].rank(method="first")
    s, t = (
        rows.loc[rows["side"] == side, [RID, BK, "rn"]].rename(columns={RID: rid})
        for side, rid in ((0, "s_rid"), (1, "t_rid"))
    )
    pairs = s.merge(t, on=[BK, "rn"])[["s_rid", "t_rid"]]
    core = len(pairs)
    return Explanation(
        functions=tuple(functions),
        n_attrs=problem.n_attrs,
        core_size=core,
        n_deleted=problem.n_source - core,
        n_inserted=problem.n_target - core,
        core_pairs=problem.spark.createDataFrame(pairs, "s_rid bigint, t_rid bigint"),
    )


def explanation_from_state(problem: Problem, state: SearchState) -> Explanation:
    """Convert an end state of the search into its explanation."""
    if not state.is_end:
        raise ValueError("state is not an end state")
    return explanation_from_functions(problem, tuple(state.assignments))


def trivial_explanation(problem: Problem) -> Explanation:
    """E_empty: everything deleted and inserted, identity functions
    (cost 2*alpha*|A|*|T|; = |A|*|T| at alpha = 0.5 as in the paper)."""
    return Explanation(
        functions=tuple(Identity() for _ in problem.attrs),
        n_attrs=problem.n_attrs,
        core_size=0,
        n_deleted=problem.n_source,
        n_inserted=problem.n_target,
        core_pairs=None,
    )
