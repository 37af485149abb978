"""Candidate induction from noisy in-block examples (paper §4.4.2–4.4.3).

Affidavit samples k target records from *mixed* blocks (blocks containing
both source and target records), where k is the smallest sample size for
which a function visible in a theta-fraction of targets is generated >= 5
times with confidence rho (``stats.sample_size_for_support``). For every
sampled target record and attribute, candidate functions are induced from
each source value in the same block; a candidate's *support* is the number
of distinct sampled targets that generated it. Candidates below the
(proportionally scaled) support threshold are filtered out.

The sample is drawn on the driver from the state's collected block
histogram (``blocking.block_histogram``). Induction looks at one attribute
at a time, so only each attribute's (block, value) draw matters: the
blocks of the k targets are drawn from the mixed blocks' record counts
without replacement, then each attribute's target values within each block,
and at most ``max_block_rows`` source rows per block, likewise. Per
attribute this is the distribution of drawing whole records.

Ranking uses block-level histogram overlap, computed exactly from the same
histogram by ``blocking.evaluate_pairs``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import pandas as pd

from .blocking import BK, Histogram, block_rows, mixed_blocks
from .functions import TransformFunction, induce_candidates

__all__ = [
    "ExampleSample",
    "sample_examples",
    "induce_attr_candidates",
    "scaled_support",
]


@dataclass
class ExampleSample:
    """Sampled target records plus the (capped) distinct source values of
    their blocks, for a set of attributes."""

    targets: list[dict]  # each: {attr: value, BK: block id}
    block_source_values: dict[int, dict[str, list]]  # block -> attr -> values
    population: int  # number of sampled targets, min(k, mixed-block targets)


def _draw(rng: np.random.Generator, block: pd.DataFrame, size: int) -> np.ndarray:
    """``size`` of the block's records drawn without replacement, as the
    values they hold (``block`` is one block's rows of a histogram)."""
    counts = block["n"].to_numpy()
    if size < counts.sum():
        counts = rng.multivariate_hypergeometric(counts, size)
    return np.repeat(block["val"].to_numpy(dtype=object), counts)


def _by_block(hist: pd.DataFrame, blocks: pd.Index) -> dict[int, pd.DataFrame]:
    """The rows of a one-attribute histogram for each of ``blocks``."""
    return dict(tuple(hist[hist["block"].isin(blocks)].groupby("block")))


def sample_examples(
    src_hist: Histogram,
    tgt_hist: Histogram,
    attrs: list[str],
    *,
    k: int,
    seed: int,
    max_block_rows: int = 50,
) -> ExampleSample:
    """Draw up to k target records from mixed blocks together with the
    source values of their blocks (at most ``max_block_rows`` source rows
    per block are considered, keeping the driver-side work bounded on
    coarse early-search blockings)."""
    mixed = mixed_blocks(src_hist, tgt_hist) if attrs else []
    if not len(mixed):
        return ExampleSample([], {}, 0)
    rng = np.random.default_rng(seed)
    sizes = block_rows(tgt_hist).loc[mixed]
    pop = min(k, int(sizes.sum()))
    per_block = pd.Series(rng.multivariate_hypergeometric(sizes.to_numpy(), pop), sizes.index)
    per_block = per_block[per_block > 0]
    targets = [{BK: b} for b, c in per_block.items() for _ in range(c)]
    block_vals: dict[int, dict[str, list]] = {b: {} for b in per_block.index}
    for a in attrs:
        t_groups = _by_block(tgt_hist[a], per_block.index)
        s_groups = _by_block(src_hist[a], per_block.index)
        row = 0
        for b, c in per_block.items():
            for v in _draw(rng, t_groups[b], c):
                targets[row][a] = v
                row += 1
            vals = pd.unique(_draw(rng, s_groups[b], max_block_rows))
            block_vals[b][a] = [v for v in vals if pd.notna(v)]
    return ExampleSample(targets, block_vals, pop)


def scaled_support(n_sampled: int, k: int, base_support: int = 5) -> int:
    """Support threshold, scaled down proportionally when fewer than k
    targets exist (DESIGN.md note 3)."""
    if n_sampled >= k:
        return base_support
    return max(2, math.ceil(base_support * n_sampled / max(1, k)))


def induce_attr_candidates(
    sample: ExampleSample,
    attr: str,
    *,
    min_support: int,
    max_candidates: int = 24,
) -> list[tuple[TransformFunction, int]]:
    """Candidate functions for one attribute with their support, filtered
    and sorted by support (descending). Value mappings are never induced
    here (§4.4.1: they are resolved at the end of the search)."""
    support: dict[TransformFunction, int] = {}
    for t in sample.targets:
        out_v = t[attr]
        if out_v is None:
            continue
        gen_here: set[TransformFunction] = set()
        for in_v in sample.block_source_values.get(t[BK], {}).get(attr, []):
            gen_here.update(induce_candidates(in_v, out_v))
        for f in gen_here:
            support[f] = support.get(f, 0) + 1
    kept = [(f, n) for f, n in support.items() if n >= min_support]
    kept.sort(key=lambda fn: (-fn[1], fn[0].psi, fn[0].signature()))
    return kept[:max_candidates]
