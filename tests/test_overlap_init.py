"""Overlap-score start state Hs (§4.2), including the block-size-threshold
failure mode on low-cardinality data, checked against a plain-pandas
reference."""
import random

import pandas as pd
import pytest

from repro.core.functions import Identity
from repro.core.overlap_init import overlap_start_state
from repro.core.state import UNDECIDED

from .util import make_problem


def _assigned(problem, state):
    return {problem.attrs[i] for i, _ in state.decided()}


def test_unchanged_attributes_get_id(spark):
    # k and v unchanged; w permuted per record (acts like a reassigned key)
    src = [(f"k{i}", f"v{i % 5}", f"w{i}") for i in range(20)]
    tgt = [(f"k{i}", f"v{i % 5}", f"w{(i + 7) % 20}") for i in range(20)]
    p = make_problem(spark, ["k", "v", "w"], src, tgt)
    st = overlap_start_state(p, max_block_size=100_000)
    assigned = _assigned(p, st)
    assert "k" in assigned
    for i, h in st.decided():
        assert isinstance(h, Identity)


def test_block_size_threshold_excludes_frequent_values(spark):
    """With every informative value too frequent, only the permuted
    key survives — Hs locks onto the wrong alignment (chess/letter/nursery
    failure mode)."""
    n = 30
    src = [("c", str(i)) for i in range(n)]
    tgt = [("c", str((i + 11) % n)) for i in range(n)]
    p = make_problem(spark, ["cat", "pk"], src, tgt)
    st = overlap_start_state(p, max_block_size=100)  # 30*30=900 > 100
    assigned = _assigned(p, st)
    assert assigned == {"pk"}


def test_no_overlap_returns_all_undecided(spark):
    p = make_problem(spark, ["a"], [("x",), ("y",)], [("p",), ("q",)])
    st = overlap_start_state(p)
    assert all(h == UNDECIDED for h in st.assignments)


def test_changed_attribute_not_assigned(spark):
    src = [(f"k{i}", str(i)) for i in range(12)]
    tgt = [(f"k{i}", str(i + 1000)) for i in range(12)]  # v fully changed
    p = make_problem(spark, ["k", "v"], src, tgt)
    st = overlap_start_state(p)
    assert _assigned(p, st) == {"k"}


def test_mode_score_limits_attribute_count(spark):
    # two unchanged attrs -> pairs overlap on 2 attrs -> k' = 2
    src = [(f"k{i}", f"u{i % 3}", f"z{i}") for i in range(15)]
    tgt = [(f"k{i}", f"u{i % 3}", f"z{(i + 4) % 15}") for i in range(15)]
    p = make_problem(spark, ["k", "u", "z"], src, tgt)
    st = overlap_start_state(p)
    assert len(_assigned(p, st)) == 2
    assert "z" not in _assigned(p, st)


def _hs_reference(attrs, src, tgt, max_block_size):
    """The attributes Hs assigns ``id``, from the §4.2 definition in plain
    pandas: a-priori pairs on shared non-null values whose count product is
    within the threshold; per source record the best target (score, then
    lowest target position); k' = the most frequent best score (ties: the
    higher); the k' attributes most frequent on the best pairs (ties: by
    name)."""

    def melt(rows):
        df = pd.DataFrame(rows, columns=attrs, dtype="object")
        df["rid"] = range(len(df))
        return df.melt(id_vars="rid", var_name="attr", value_name="val").dropna()

    s, t = melt(src), melt(tgt)
    counts = s.groupby(["attr", "val"]).size() * t.groupby(["attr", "val"]).size()
    ok = counts[counts <= max_block_size].reset_index()[["attr", "val"]]
    links = s.merge(ok, on=["attr", "val"]).merge(t, on=["attr", "val"], suffixes=("_s", "_t"))
    if links.empty:
        return set()
    score = links.groupby(["rid_s", "rid_t"]).size().rename("score").reset_index()
    best = score.sort_values(
        ["rid_s", "score", "rid_t"], ascending=[True, False, True]
    ).drop_duplicates("rid_s")
    n_by_score = best["score"].value_counts()
    k = max(n_by_score.index, key=lambda sc: (n_by_score[sc], sc))
    on_best = links.merge(best[["rid_s", "rid_t"]], on=["rid_s", "rid_t"])
    n_by_attr = on_best["attr"].value_counts()
    return set(sorted(n_by_attr.index, key=lambda a: (-n_by_attr[a], a))[:k])


def _random_instance(seed):
    rng = random.Random(seed)
    attrs = ["z", "m", "b", "q"][: rng.randint(2, 4)]
    alphabet = ["a", "b", "c", "d", None]

    def rows(n):
        return [tuple(rng.choice(alphabet) for _ in attrs) for _ in range(n)]

    return attrs, rows(rng.randint(3, 9)), rows(rng.randint(3, 9)), rng.randint(2, 12)


HAND_CASES = {
    # s0 scores 1 with t0 (on b) and with t1 (on a): the lowest target wins.
    "tied_best_target": (["a", "b"], [("x", "y")], [("p", "y"), ("x", "q")], 100),
    # one best pair scores 1, one scores 2: the mode is the higher score.
    "tied_mode": (
        ["a", "b", "c"],
        [("x", "y", "w"), ("u", "v", "r")],
        [("x", "y", "o"), ("u", "o", "o")],
        100,
    ),
    # k' = 1 and z, m each overlap once on the best pairs: m wins by name.
    "tied_attr_frequency": (["z", "m"], [("x", "o"), ("o", "y")], [("x", "p"), ("p", "y")], 100),
    # nulls are no value: they never link records.
    "nulls": (
        ["a", "b"],
        [(None, "x"), (None, "x"), ("k", None)],
        [(None, "x"), (None, "q"), ("k", None)],
        100,
    ),
    # v: 2 source x 3 target = 6 pairs, one over the threshold; k still links.
    "just_over_threshold": (
        ["v", "k"],
        [("c", "k0"), ("c", "k1")],
        [("c", "k9"), ("c", "k8"), ("c", "k1")],
        5,
    ),
}


@pytest.mark.parametrize(
    "case",
    [*HAND_CASES.values(), *(_random_instance(seed) for seed in range(12))],
    ids=[*HAND_CASES, *(f"random{seed}" for seed in range(12))],
)
def test_matches_pandas_reference(spark, case):
    attrs, src, tgt, max_block_size = case
    p = make_problem(spark, attrs, src, tgt)
    st = overlap_start_state(p, max_block_size=max_block_size)
    assert _assigned(p, st) == _hs_reference(attrs, src, tgt, max_block_size)


def test_reference_tie_breaks_and_threshold():
    """The hand cases pin the tie-breaks and the threshold themselves."""
    want = {
        "tied_best_target": {"b"},
        "tied_mode": {"a", "b"},
        "tied_attr_frequency": {"m"},
        "nulls": {"b"},
        "just_over_threshold": {"k"},
    }
    assert {name: _hs_reference(*case) for name, case in HAND_CASES.items()} == want
    attrs, src, tgt, _ = HAND_CASES["just_over_threshold"]
    assert _hs_reference(attrs, src, tgt, 6) == {"k", "v"}


def test_job_budget(spark):
    """One call is one collected query: at most 8 Spark jobs."""
    src = [(f"k{i}", f"v{i % 5}", f"w{i}") for i in range(20)]
    tgt = [(f"k{i}", f"v{i % 5}", f"w{(i + 7) % 20}") for i in range(20)]
    p = make_problem(spark, ["k", "v", "w"], src, tgt)
    sc = spark.sparkContext
    group = "test-overlap-start-state-job-budget"
    sc.setJobGroup(group, "one overlap_start_state() call")
    try:
        overlap_start_state(p)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    assert 1 <= len(sc.statusTracker().getJobIdsForGroup(group)) <= 8
