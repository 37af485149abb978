"""Candidate induction from in-block examples (§4.4.2), sampled from the
collected block histogram."""
import pytest

from repro.core.blocking import BK, block_histogram, mixed_blocks, with_block_key
from repro.core.candidates import (
    induce_attr_candidates,
    sample_examples,
    scaled_support,
)
from repro.core.functions import Identity, Scale, Uppercasing
from repro.core.state import UNDECIDED, SearchState

from .util import make_problem

ATTRS = ["g", "v"]
# every source v is 1000x its target counterpart within the same g-block;
# 7*(i+1) keeps values from being round thousands, so division is the only
# cheap function explaining all pairs (canonical formatting via str()).
SRC = [(str(i % 4), str(7000 * (i + 1))) for i in range(40)]
TGT = [(str(i % 4), str(7 * (i + 1))) for i in range(40)]


def _hist(spark, src, tgt):
    """Histogram over v under identity on g."""
    p = make_problem(spark, ATTRS, src, tgt)
    st = SearchState((Identity(), UNDECIDED))
    s = with_block_key(p.source, st, p.attrs, is_source=True)
    t = with_block_key(p.target, st, p.attrs, is_source=False)
    return block_histogram(s, t, ["v"])


@pytest.fixture(scope="module")
def hist(spark):
    return _hist(spark, SRC, TGT)


def test_sample_examples_collects_block_values(hist):
    sample = sample_examples(*hist, ["v"], k=10, seed=1)
    assert len(sample.targets) == 10
    for tr in sample.targets:
        assert tr[BK] in sample.block_source_values
        assert sample.block_source_values[tr[BK]]["v"]


def test_sample_examples_empty_when_no_mixed_blocks(spark):
    sample = sample_examples(*_hist(spark, [("x", "1")], [("y", "1")]), ["v"], k=5, seed=0)
    assert sample.targets == [] and sample.population == 0


def test_sample_examples_only_from_mixed_blocks(spark):
    # block "t" is target-only, block "s" source-only
    src = [("m", f"s{i}") for i in range(5)] + [("s", "src-only")]
    tgt = [("m", f"t{i}") for i in range(3)] + [("t", f"tgt-only{i}") for i in range(30)]
    src_hist, tgt_hist = _hist(spark, src, tgt)
    (mixed,) = mixed_blocks(src_hist, tgt_hist)
    for seed in range(5):
        sample = sample_examples(src_hist, tgt_hist, ["v"], k=10, seed=seed)
        assert {tr[BK] for tr in sample.targets} == {mixed}
        assert sorted(tr["v"] for tr in sample.targets) == ["t0", "t1", "t2"]
        assert sorted(sample.block_source_values[mixed]["v"]) == [f"s{i}" for i in range(5)]


def test_sample_examples_size_is_min_of_k_and_population(hist):
    for k in (1, 39, 40, 200):
        sample = sample_examples(*hist, ["v"], k=k, seed=k)
        assert len(sample.targets) == sample.population == min(k, len(TGT))
    # the 40 targets are distinct, so a full draw returns each exactly once
    full = sample_examples(*hist, ["v"], k=200, seed=0)
    assert sorted(tr["v"] for tr in full.targets) == sorted(v for _, v in TGT)


def test_sample_examples_caps_source_rows_per_block(spark):
    src = [("m", f"s{i}") for i in range(100)]
    src_hist, tgt_hist = _hist(spark, src, [("m", "t")])
    sample = sample_examples(src_hist, tgt_hist, ["v"], k=5, seed=0, max_block_rows=7)
    (vals,) = [bv["v"] for bv in sample.block_source_values.values()]
    assert len(vals) == 7 and set(vals) <= {v for _, v in src}


def test_sample_examples_deterministic_in_seed(hist):
    a = sample_examples(*hist, ["v"], k=10, seed=4, max_block_rows=3)
    b = sample_examples(*hist, ["v"], k=10, seed=4, max_block_rows=3)
    assert a == b


def test_scaled_support():
    assert scaled_support(100, 89) == 5
    assert scaled_support(89, 89) == 5
    assert scaled_support(20, 89) == 2
    assert scaled_support(45, 89) == 3
    assert scaled_support(0, 89) == 2


def test_induce_attr_candidates_finds_scale(hist):
    sample = sample_examples(*hist, ["v"], k=40, seed=2)
    cands = induce_attr_candidates(sample, "v", min_support=5)
    funcs = [f for f, _ in cands]
    assert Scale(1.0 / 1000) in funcs
    # the true function is generated from every sampled target
    support = dict((f.signature(), n) for f, n in cands)
    assert support[Scale(1.0 / 1000).signature()] == len(sample.targets)


def test_induce_attr_candidates_support_filter(hist):
    sample = sample_examples(*hist, ["v"], k=40, seed=2)
    cands = induce_attr_candidates(sample, "v", min_support=10_000)
    assert cands == []


def test_induce_attr_candidates_max_candidates(hist):
    sample = sample_examples(*hist, ["v"], k=40, seed=2)
    cands = induce_attr_candidates(sample, "v", min_support=1, max_candidates=3)
    assert len(cands) <= 3

