"""Tests of the benchmark itself (not part of the program's test suite).

    PYTHONPATH=src python -m pytest perfbench -q -p no:cacheprovider

They use the repository's ``spark`` fixture (conftest.py) and take a few
minutes: the Figure 1 Hid search and one traced benchmark run dominate.
"""
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.running_example import (
    ATTRS,
    E1_CORE_SIZE,
    E1_COST,
    SOURCE_ROWS,
    TARGET_ROWS,
    running_example_problem,
)
from repro.core import AffidavitConfig, Identity, run_affidavit
from repro.core.explanation import explanation_from_functions
from repro.core.functions import ConstantValue, PrefixReplacement, Scale, ValueMapping
from validity import explanation_errors
from workloads import E1_PAIRS, _fig1_acc

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _e1_functions():
    """The paper's E1: value maps on the two ids, taken from E1's pairs."""
    src = {r[0]: r for r in SOURCE_ROWS}
    tgt = {r[0]: r for r in TARGET_ROWS}
    maps = [
        ValueMapping(tuple(sorted((src[s][j], tgt[t][j]) for s, t in E1_PAIRS)))
        for j in (0, 1)
    ]
    return (
        *maps,
        PrefixReplacement("9999123", "2018070"),
        Identity(),
        Scale(1.0 / 1000),
        ConstantValue("k $"),
        Identity(),
    )


@pytest.fixture(scope="module")
def i1(spark):
    return running_example_problem(spark)


@pytest.fixture(scope="module")
def e1(i1):
    expl = explanation_from_functions(i1, _e1_functions())
    yield expl
    expl.core_pairs.unpersist()


def _with_pairs(spark, expl, pdf):
    return dataclasses.replace(expl, core_pairs=spark.createDataFrame(pdf))


def test_e1_is_valid_and_scores_exactly(i1, e1):
    assert i1.attrs == ATTRS
    assert (e1.cost(0.5), e1.core_size) == (E1_COST, E1_CORE_SIZE)
    assert explanation_errors(i1, e1) == []
    assert _fig1_acc(e1) == 1.0


def test_swapped_pair_fails(spark, i1, e1):
    pdf = e1.core_pairs.toPandas().sort_values("s_rid").reset_index(drop=True)
    pdf.loc[[0, 1], "t_rid"] = pdf.loc[[1, 0], "t_rid"].to_numpy()
    errors = explanation_errors(i1, _with_pairs(spark, e1, pdf))
    assert any("off their target" in e for e in errors)


def test_repeated_record_fails(spark, i1, e1):
    pdf = e1.core_pairs.toPandas()
    pdf.loc[0, "t_rid"] = pdf.loc[1, "t_rid"]
    errors = explanation_errors(i1, _with_pairs(spark, e1, pdf))
    assert "core_pairs is not a bijection" in errors


def test_dropped_pair_is_not_maximal(spark, i1, e1):
    pdf = e1.core_pairs.toPandas().iloc[1:]
    bad = dataclasses.replace(
        _with_pairs(spark, e1, pdf),
        core_size=e1.core_size - 1,
        n_deleted=e1.n_deleted + 1,
        n_inserted=e1.n_inserted + 1,
    )
    errors = explanation_errors(i1, bad)
    assert errors == ["1 unpaired source records match an unpaired target"]


@pytest.mark.parametrize(
    "field, value",
    [("core_size", E1_CORE_SIZE - 1), ("n_inserted", 2), ("n_deleted", 5)],
)
def test_wrong_counts_fail(i1, e1, field, value):
    errors = explanation_errors(i1, dataclasses.replace(e1, **{field: value}))
    assert errors


def test_fig1_hid_returns_e1(i1):
    """The paper's flagship result: Hid on I1 finds E1 (cost 77, core 13)."""
    expl, diag = run_affidavit(i1, AffidavitConfig(start="id", beta=2, queue_width=5, seed=1))
    try:
        assert diag.end_state is not None
        assert (expl.cost(0.5), expl.core_size) == (E1_COST, E1_CORE_SIZE)
        assert explanation_errors(i1, expl) == []
    finally:
        expl.core_pairs.unpersist()


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_traced_fig1_jobs_sum_to_untraced_jobs():
    """A traced fig1 run passes its own checks (per-layer jobs plus the
    search's residual equal the untraced search's jobs) and prints every
    per-layer metric declared in BENCHMARK.json."""
    out = _run_bench(ROOT, "--workload", "fig1", "--seed", "1", "--seconds", "1", "--trace", "1")
    assert out.returncode == 0, out.stdout + out.stderr[-2000:]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(metrics) == {m["name"] for m in declared}
    layer_jobs = sum(
        v["value"] for k, v in metrics.items() if k.endswith(".jobs") and k != "spark.jobs"
    )
    assert layer_jobs == metrics["spark.jobs"]["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _run_bench(tmp_path, "--workload", "fig1", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
