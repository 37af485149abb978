"""Random block-respecting alignments and greedy value maps (paper §4.3).

``Sample-Random-Alignment`` pairs source and target records uniformly at
random *within* each block of the current blocking result. A greedy map
looks at one attribute, so the pairing is drawn per attribute from the
state's collected block histogram (``blocking.block_histogram``): every
record of the block gets a random rank on its side, and the ranks are
matched, giving min(#source, #target) pairs per block. For one attribute
this is the distribution of the record-level alignment.

``Induce-Greedy-Map`` turns such an alignment into a value mapping for one
attribute by mapping every source value to the target value with the
highest co-occurrence among the aligned pairs (ties: the smallest target
value; nulls on either side carry no mapping information and are left
out). The map's cost (psi = 2n) is the yardstick induced functions must
beat to be kept as extensions, and it is the fallback Finalize uses to
resolve MAP_MARKER attributes.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .blocking import Histogram
from .functions import ValueMapping

__all__ = ["greedy_maps_bulk", "greedy_map"]


def _ranked_records(hist: pd.DataFrame, rng: np.random.Generator) -> pd.DataFrame:
    """One row per record of a one-attribute histogram: (block, rank, val),
    the ranks a uniformly random order of the records within each block."""
    block = np.repeat(hist["block"].to_numpy(), hist["n"].to_numpy())
    rank = pd.Series(rng.random(len(block))).groupby(block).rank(method="first")
    return pd.DataFrame(
        {
            "block": block,
            "rank": rank.to_numpy(dtype="int64"),
            "val": np.repeat(hist["val"].to_numpy(dtype=object), hist["n"].to_numpy()),
        }
    )


def greedy_maps_bulk(
    src_hist: Histogram,
    tgt_hist: Histogram,
    attrs: list[str],
    *,
    seed: int,
) -> dict[str, ValueMapping]:
    """Greedy maps for several attributes, each from its own random
    within-block pairing: count (source value, target value)
    co-occurrences and take the argmax target value per source value."""
    rng = np.random.default_rng(seed)
    out = {}
    for a in attrs:
        pairs = _ranked_records(src_hist[a], rng).merge(
            _ranked_records(tgt_hist[a], rng), on=["block", "rank"]
        )
        pairs = pairs[pairs["val_x"].notna() & pairs["val_y"].notna()]
        best = (
            pairs.groupby(["val_x", "val_y"]).size().reset_index(name="n")
            .sort_values(["val_x", "n", "val_y"], ascending=[True, False, True])
            .drop_duplicates("val_x")
        )
        out[a] = ValueMapping(tuple(zip(best["val_x"], best["val_y"])))
    return out


def greedy_map(
    src_hist: Histogram, tgt_hist: Histogram, attr: str, *, seed: int
) -> ValueMapping:
    """The greedy map of one attribute (used by Finalize, which collects a
    fresh histogram after every assignment)."""
    return greedy_maps_bulk(src_hist, tgt_hist, [attr], seed=seed)[attr]
