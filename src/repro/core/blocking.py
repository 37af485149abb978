"""Blocking substrate (paper §4.1, Defs. 4.3/4.4) and the per-state block
histogram.

Decided attributes of a search state define a *blocking index* per record:
source records are projected through their assigned functions (vectorized
pandas UDFs), target records through their raw values. The key is the JSON
array of those values, so a separator inside a value cannot merge two
tuples and a null stays a null, distinct from every string. Records with
equal keys share a block.

A search state needs one Spark aggregation, ``block_histogram``: the
number of records per (side, block, attribute, value) over both keyed
snapshots, collected to the driver as one pandas frame per side and
attribute. Everything else is pandas over that histogram:

* ``indeterminacy``  — per attribute, the exact maximum number of distinct
  non-null source values over mixed blocks (blocks holding source and
  target records), §4.3's attribute ordering;
* ``evaluate_pairs`` — M(H + {a := f}) for many (attribute, function)
  pairs: f is applied to the attribute's distinct source values only, and
  min(#source, #target) is summed over the refined (block, value) blocks.
  This is the exact §4.4.3 histogram-overlap ranking fused with the
  Def. 4.6 cost computation.

``block_overlap``/``state_overlap`` compute M(H) = sum over blocks of
min(#source, #target) directly in Spark; the tests hold the histogram path
to them.
"""
from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .functions import Identity, TransformFunction
from .state import Problem, SearchState

__all__ = [
    "BK",
    "Histogram",
    "with_block_key",
    "block_overlap",
    "state_overlap",
    "block_histogram",
    "block_rows",
    "mixed_blocks",
    "indeterminacy",
    "evaluate_pairs",
]

BK = "__bk"

# One side's histogram: attribute -> frame of (block, val, n), one row per
# distinct (block, value), sorted by block then value (nulls last). Block
# ids are shared by the two sides of one histogram.
Histogram = dict[str, pd.DataFrame]


def _transform_udf(f: TransformFunction):
    """Vectorized string->string pandas UDF applying one attribute function."""

    def _apply(s: pd.Series) -> pd.Series:
        return f.apply_series(s)

    return F.pandas_udf(_apply, "string")


def with_block_key(
    df: DataFrame,
    state: SearchState,
    attrs: Sequence[str],
    *,
    is_source: bool,
) -> DataFrame:
    """Add the blocking-index column ``__bk`` under ``state`` (Def. 4.3).

    Source values flow through the assigned functions; target values are
    used raw. States with no decided attribute put every record in one
    block.
    """
    cols = []
    for i, f in state.decided():
        c = F.col(attrs[i])
        if is_source and not isinstance(f, Identity):
            c = _transform_udf(f)(c)
        cols.append(c)
    return df.withColumn(BK, F.to_json(F.array(*cols)) if cols else F.lit("[]"))


def block_overlap(s_keyed: DataFrame, t_keyed: DataFrame) -> int:
    """M(H): sum over blocks of min(source count, target count)."""
    sc = s_keyed.groupBy(BK).agg(F.count("*").alias("__sc"))
    tc = t_keyed.groupBy(BK).agg(F.count("*").alias("__tc"))
    row = (
        sc.join(tc, BK)
        .agg(F.sum(F.least("__sc", "__tc")).alias("m"))
        .first()
    )
    return int(row["m"] or 0)


def state_overlap(problem: Problem, state: SearchState) -> int:
    """M(H) computed from scratch for an arbitrary state."""
    s_keyed = with_block_key(problem.source, state, problem.attrs, is_source=True)
    t_keyed = with_block_key(problem.target, state, problem.attrs, is_source=False)
    return block_overlap(s_keyed, t_keyed)


def block_histogram(
    s_keyed: DataFrame, t_keyed: DataFrame, attrs: Iterable[str]
) -> tuple[Histogram, Histogram]:
    """Collect the (source, target) histograms of the keyed snapshots over
    ``attrs`` (at least one) in one Spark aggregation.

    The result has at most (|S| + |T|) x |attrs| rows. It is sorted into a
    fixed order on the driver, so draws made from it with a given seed do
    not depend on Spark's partitioning.
    """
    attrs = list(attrs)
    melted = [
        df.select(F.lit(side).alias("side"), BK, *attrs).unpivot(
            ["side", BK], attrs, "attr", "val"
        )
        for side, df in ((0, s_keyed), (1, t_keyed))
    ]
    pdf = (
        melted[0]
        .unionByName(melted[1])
        .groupBy("side", BK, "attr", "val")
        .agg(F.count("*").alias("n"))
        .toPandas()
    )
    pdf["block"] = pd.factorize(pdf[BK], sort=True)[0]
    pdf = pdf.sort_values(
        ["side", "attr", "block", "val"], na_position="last", ignore_index=True
    )
    empty = pd.DataFrame(
        {"block": np.zeros(0, "int64"), "val": np.zeros(0, object), "n": np.zeros(0, "int64")}
    )
    sides = []
    for side in (0, 1):
        part = pdf[pdf["side"] == side]
        by_attr = {
            a: g[["block", "val", "n"]].reset_index(drop=True)
            for a, g in part.groupby("attr", sort=False)
        }
        sides.append({a: by_attr.get(a, empty) for a in attrs})
    return sides[0], sides[1]


def block_rows(hist: Histogram) -> pd.Series:
    """Records per block (block id -> count) of one side's histogram."""
    return next(iter(hist.values())).groupby("block")["n"].sum()


def mixed_blocks(src_hist: Histogram, tgt_hist: Histogram) -> np.ndarray:
    """Sorted ids of the blocks holding both source and target records."""
    return np.intersect1d(block_rows(src_hist).index, block_rows(tgt_hist).index)


def indeterminacy(
    src_hist: Histogram, tgt_hist: Histogram, attrs: Iterable[str]
) -> dict[str, float]:
    """Max #distinct non-null source values per attribute over mixed blocks.

    Attributes for which no mixed block exists get +inf (least determined).
    """
    attrs = list(attrs)
    if not attrs:
        return {}
    mixed = mixed_blocks(src_hist, tgt_hist)
    if not len(mixed):
        return {a: float("inf") for a in attrs}
    out = {}
    for a in attrs:
        s = src_hist[a]
        per_block = s[s["block"].isin(mixed) & s["val"].notna()].groupby("block").size()
        out[a] = float(per_block.max()) if len(per_block) else 0.0
    return out


def evaluate_pairs(
    problem: Problem,
    src_hist: Histogram,
    tgt_hist: Histogram,
    pairs: Sequence[tuple[int, TransformFunction]],
) -> list[int]:
    """Exact overlap M(H + {attr_i := f_i}) for every candidate extension,
    aligned with the input order. A null is a value of its own: a source
    value f maps to null meets the target nulls of its block."""
    out = []
    for i, f in pairs:
        s, t = src_hist[problem.attrs[i]], tgt_hist[problem.attrs[i]]
        codes, uniques = pd.factorize(s["val"], use_na_sentinel=False)
        f_vals = f.apply_series(pd.Series(uniques, dtype=object)).to_numpy(dtype=object)[codes]
        val_codes = pd.factorize(
            np.concatenate([f_vals, t["val"].to_numpy(dtype=object)]),
            use_na_sentinel=False,
        )[0]
        src = (
            pd.DataFrame({"block": s["block"], "v": val_codes[: len(s)], "n": s["n"]})
            .groupby(["block", "v"], as_index=False)["n"]
            .sum()
        )
        tgt = pd.DataFrame({"block": t["block"], "v": val_codes[len(s):], "n": t["n"]})
        both = src.merge(tgt, on=["block", "v"])
        out.append(int(np.minimum(both["n_x"], both["n_y"]).sum()))
    return out
