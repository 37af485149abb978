"""Benchmark workloads: each builds, from a seed, the searches one round runs.

A workload is a list of whole Affidavit searches (``run_affidavit`` calls)
together with the reference explanation each result is scored against
(the paper's Δcosts, Δcore and cell accuracy, §5.2).

* ``fig1`` — the paper's running example I1 (Figure 1) with the Hs
  configuration of §5.2, search seed 1, as ``jobs/running_example.py`` runs
  it. The input is the paper's fixed table, so ``--seed`` does not change
  it. The data is negligible: wall time is roughly Spark jobs x per-job
  latency, and the reference is the paper's E1 (cost 77, core 13).
* ``adult-hs`` — the adult stand-in (mixed profile: categories, codes,
  integers, dates) with four attributes plus the artificial key, η = τ =
  0.3, the Hs configuration with the harness's Hs block-size rule
  (rows/48 842)²·100 000 applied to the generated row count. ``--seed``
  draws the records and the search seed; the instance generator's
  transformation draw uses a fixed seed (a value mapping on the category
  attribute, an Addition on the integer attribute, a value mapping on the
  key), so every seed poses the same search. The a-priori alignment in
  ``overlap_init`` and per-row work in ``evaluate_pairs`` and the Prop. 3.6
  conversion weigh next to job latency.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from pyspark.sql import SparkSession

from repro.bench.datasets import DATASETS, make_dataset
from repro.bench.instances import make_instance
from repro.bench.metrics import evaluate_explanation
from repro.bench.running_example import (
    E1_CORE_SIZE,
    E1_COST,
    SOURCE_ROWS,
    TARGET_ROWS,
    running_example_problem,
)
from repro.core import AffidavitConfig, Explanation, Problem

ALPHA = 0.5

# Figure 1's reference explanation E1 aligns these records (the paper's
# colored rows); S04, S10, S14, S16 are deleted and T01, T05, T16 inserted.
E1_PAIRS = [
    ("S01", "T07"), ("S02", "T02"), ("S03", "T06"), ("S05", "T04"),
    ("S06", "T03"), ("S07", "T09"), ("S08", "T10"), ("S09", "T08"),
    ("S11", "T13"), ("S12", "T14"), ("S13", "T15"), ("S15", "T11"),
    ("S17", "T12"),
]

ADULT_ROWS = 8_000
ADULT_ATTRS = 4  # plus the artificial key the generator adds
ADULT_INSTANCE_SEED = 5  # fixes the transformation draw, not the records


@dataclass
class Scores:
    dcosts: float
    dcore: float
    acc: float


@dataclass
class Search:
    """One ``run_affidavit`` call plus the scorer of its result."""

    name: str
    problem: Problem
    config: AffidavitConfig
    score: Callable[[Explanation], Scores]


def _fig1_acc(expl: Explanation) -> float:
    """Share of E1-core cells the result translates as E1 does: for each
    aligned pair (s, t), F_res(s)[a] must equal t[a]."""
    src = {r[0]: r for r in SOURCE_ROWS}
    tgt = {r[0]: r for r in TARGET_ROWS}
    correct = total = 0
    for s_label, t_label in E1_PAIRS:
        s, t = src[s_label], tgt[t_label]
        for j, f in enumerate(expl.functions):
            total += 1
            correct += f.apply(s[j]) == t[j]
    return correct / total


def _fig1_score(expl: Explanation) -> Scores:
    return Scores(
        dcosts=expl.cost(ALPHA) / E1_COST,
        dcore=expl.core_size / E1_CORE_SIZE,
        acc=_fig1_acc(expl),
    )


def build_fig1(spark: SparkSession, seed: int) -> list[Search]:
    del seed  # the paper's fixed example
    problem = running_example_problem(spark)
    config = AffidavitConfig(start="overlap", beta=1, queue_width=1, seed=1)
    return [Search("fig1-hs", problem, config, _fig1_score)]


def build_adult_hs(spark: SparkSession, seed: int) -> list[Search]:
    pdf = make_dataset("adult", n_rows=ADULT_ROWS, n_attrs=ADULT_ATTRS, seed=seed)
    inst = make_instance(spark, pdf, eta=0.3, tau=0.3, seed=ADULT_INSTANCE_SEED)
    config = AffidavitConfig(
        start="overlap",
        beta=1,
        queue_width=1,
        max_block_size=round(100_000 * (ADULT_ROWS / DATASETS["adult"].n_rows) ** 2),
        seed=seed,
    )

    def score(expl: Explanation) -> Scores:
        r = evaluate_explanation(inst, expl, runtime_s=0.0, alpha=ALPHA)
        return Scores(dcosts=r.dcosts, dcore=r.dcore, acc=r.acc)

    return [Search("adult-hs", inst.problem, config, score)]


# workload name -> function making one round's searches from (session, seed)
WORKLOADS: dict[str, Callable[[SparkSession, int], list[Search]]] = {
    "fig1": build_fig1,
    "adult-hs": build_adult_hs,
}
