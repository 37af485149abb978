"""Overlap-score start state Hs (paper §4.2).

Independently assume every attribute unchanged and link records sharing a
value on it. Value overlaps whose source-count x target-count pair
product exceeds ``max_block_size`` are ignored (too-frequent values would
generate an enormous number of pairs — and, on low-cardinality datasets,
this is exactly what silently reduces the a-priori matching to an
artificial key, the failure mode Table 2 shows for chess/letter/nursery).

For each source record the target record with the highest overlap score
(ties: the lowest target ``__rid``) forms the a-priori alignment; k' = the
most frequent overlap score among those pairs (ties: the higher score);
the k' attributes whose values overlap most often on the pairs (ties: by
name) are assigned ``id`` in the single start state.

The a-priori pairs stay in Spark: their number grows with the square of
the value frequencies (35.6 M on the full adult data set at the default
threshold). One lazy, uncached query generates and scores them and keeps
each source record's best target; only those |S| rows of (score,
overlapping attributes) are collected, and k' and the attribute ranking
are pandas on the driver.
"""
from __future__ import annotations

from pyspark.sql import Window
from pyspark.sql import functions as F

from .functions import Identity
from .state import RID, UNDECIDED, Problem, SearchState

__all__ = ["overlap_start_state"]


def overlap_start_state(
    problem: Problem, *, max_block_size: int = 100_000
) -> SearchState:
    """Compute Hs. Falls back to the all-undecided state when no value
    overlap survives the block-size threshold."""
    attrs = problem.attrs
    melted = [
        df.unpivot([RID], attrs, "attr", "val")
        .where(F.col("val").isNotNull())
        .withColumn("side", F.lit(side))
        for side, df in ((0, problem.source), (1, problem.target))
    ]
    # One shuffle gathers, per (attribute, value), the source and the target
    # records holding it; the value's a-priori pairs are their cross
    # product. A second shuffle, on s_rid, serves both the pair scores and
    # the best-target window.
    rid_lists = [
        F.collect_list(F.when(F.col("side") == side, F.col(RID))).alias(name)
        for side, name in ((0, "s_rids"), (1, "t_rids"))
    ]
    n_pairs = F.size("s_rids").cast("long") * F.size("t_rids")
    scores = (
        melted[0]
        .unionByName(melted[1])
        .groupBy("attr", "val")
        .agg(*rid_lists)
        .where(n_pairs.between(1, max_block_size))
        .select("attr", F.explode("s_rids").alias("s_rid"), "t_rids")
        .select("attr", "s_rid", F.explode("t_rids").alias("t_rid"))
        .repartition("s_rid")
        .groupBy("s_rid", "t_rid")
        .agg(F.count("*").alias("score"), F.collect_list("attr").alias("attrs"))
    )
    w = Window.partitionBy("s_rid").orderBy(F.desc("score"), F.asc("t_rid"))
    best = (
        scores.withColumn("__r", F.row_number().over(w))
        .where(F.col("__r") == 1)
        .select("score", "attrs")
        .toPandas()
    )
    if best.empty:
        return SearchState(tuple(UNDECIDED for _ in attrs))
    by_score = best.groupby("score").size()
    k_prime = max(by_score.items(), key=lambda sn: (sn[1], sn[0]))[0]
    attr_freq = best["attrs"].explode().value_counts()
    ranked = sorted(attr_freq.items(), key=lambda an: (-an[1], an[0]))
    a_id = {a for a, _ in ranked[:k_prime]}
    return SearchState(tuple(Identity() if a in a_id else UNDECIDED for a in attrs))
