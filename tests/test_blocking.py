"""Blocking substrate (Defs. 4.3/4.4) and the per-state block histogram —
the Spark aggregations are cross-checked against the DuckDB oracle, and the
histogram-derived overlaps against the direct Spark M(H)."""
import pandas as pd
import pytest

from repro.core.blocking import (
    BK,
    block_histogram,
    block_overlap,
    evaluate_pairs,
    indeterminacy,
    state_overlap,
    with_block_key,
)
from repro.core.functions import (
    ConstantValue,
    Identity,
    Lowercasing,
    Scale,
    Uppercasing,
    ValueMapping,
)
from repro.core.state import UNDECIDED, SearchState
from repro.oracle import assert_equivalent

from .util import make_problem

ATTRS = ["a", "b", "c"]
SRC = [
    ("x", "1", "p"),
    ("x", "2", "p"),
    ("y", "3", "q"),
    ("y", "4", "q"),
    ("z", "5", "r"),
]
TGT = [
    ("x", "10", "P"),
    ("x", "20", "P"),
    ("x", "99", "P"),
    ("y", "30", "Q"),
    ("w", "70", "W"),
]


@pytest.fixture(scope="module")
def problem(spark):
    return make_problem(spark, ATTRS, SRC, TGT)


def _keyed(problem, state):
    s = with_block_key(problem.source, state, problem.attrs, is_source=True)
    t = with_block_key(problem.target, state, problem.attrs, is_source=False)
    return s, t


def _hist(problem, state, attrs):
    return block_histogram(*_keyed(problem, state), attrs)


def test_empty_state_single_block(problem):
    state = SearchState((UNDECIDED, UNDECIDED, UNDECIDED))
    s, t = _keyed(problem, state)
    assert s.select(BK).distinct().count() == 1
    assert block_overlap(s, t) == min(len(SRC), len(TGT))


def test_block_overlap_identity_matches_oracle(problem, spark):
    state = SearchState((Identity(), UNDECIDED, UNDECIDED))
    s, t = _keyed(problem, state)
    m = block_overlap(s, t)
    sql = """
        WITH s AS (SELECT a, count(*) AS c FROM src GROUP BY a),
             t AS (SELECT a, count(*) AS c FROM tgt GROUP BY a)
        SELECT CAST(coalesce(sum(least(s.c, t.c)), 0) AS BIGINT) AS m
        FROM s JOIN t USING (a)
    """
    spark_df = spark.createDataFrame([(m,)], "m bigint")
    assert_equivalent(
        spark_df,
        sql,
        src=pd.DataFrame(SRC, columns=ATTRS),
        tgt=pd.DataFrame(TGT, columns=ATTRS),
    )


def test_block_overlap_applies_source_functions(problem):
    # uppercasing attribute c makes source p/q match target P/Q
    st_raw = SearchState((UNDECIDED, UNDECIDED, Identity()))
    st_up = SearchState((UNDECIDED, UNDECIDED, Uppercasing()))
    assert state_overlap(problem, st_raw) == 0
    # blocks P (2 src vs 3 tgt -> 2) and Q (2 src vs 1 tgt -> 1)
    assert state_overlap(problem, st_up) == 3


def test_block_overlap_counts_min_per_block(problem):
    st = SearchState((Identity(), UNDECIDED, UNDECIDED))
    # block x: 2 src vs 3 tgt -> 2 ; block y: 2 vs 1 -> 1 ; z/w unmatched
    assert state_overlap(problem, st) == 3


def test_cs_minus_delta_equals_ct(problem, spark):
    """DESIGN.md note 2: blocks partition S and T, hence cs - Delta = ct."""
    state = SearchState((Identity(), UNDECIDED, UNDECIDED))
    s, t = _keyed(problem, state)
    sc = s.groupBy(BK).count().toPandas().set_index(BK)["count"]
    tc = t.groupBy(BK).count().toPandas().set_index(BK)["count"]
    keys = set(sc.index) | set(tc.index)
    cs = sum(max(0, sc.get(k, 0) - tc.get(k, 0)) for k in keys)
    ct = sum(max(0, tc.get(k, 0) - sc.get(k, 0)) for k in keys)
    delta = len(SRC) - len(TGT)
    assert cs - delta == ct
    assert ct == len(TGT) - block_overlap(s, t)


def test_histogram_matches_oracle(problem):
    """Counts per (side, block, attribute, value); block ids number the
    blocks in key order, which for one plain-letter key is value order."""
    src, tgt = _hist(problem, SearchState((Identity(), UNDECIDED, UNDECIDED)), ["b", "c"])
    got = pd.concat(
        [
            h[a].assign(side=side, attr=a)
            for side, h in ((0, src), (1, tgt))
            for a in ("b", "c")
        ]
    )
    sql = """
        WITH u AS (SELECT 0 AS side, * FROM src UNION ALL SELECT 1 AS side, * FROM tgt),
             r AS (SELECT a, CAST(row_number() OVER (ORDER BY a) - 1 AS BIGINT) AS block
                   FROM (SELECT DISTINCT a FROM u)),
             m AS (SELECT side, a, 'b' AS attr, b AS val FROM u
                   UNION ALL SELECT side, a, 'c' AS attr, c AS val FROM u)
        SELECT side, block, attr, val, CAST(count(*) AS BIGINT) AS n
        FROM m JOIN r USING (a) GROUP BY side, block, attr, val
    """
    assert_equivalent(
        problem.source.sparkSession.createDataFrame(got),
        sql,
        src=pd.DataFrame(SRC, columns=ATTRS),
        tgt=pd.DataFrame(TGT, columns=ATTRS),
    )


def test_indeterminacy_mixed_blocks_only(problem):
    state = SearchState((Identity(), UNDECIDED, UNDECIDED))
    ind = indeterminacy(*_hist(problem, state, ["b", "c"]), ["b", "c"])
    # mixed blocks are x (2 distinct b) and y (2 distinct b); c has 1 each
    assert ind["b"] == 2.0
    assert ind["c"] == 1.0


def test_indeterminacy_no_mixed_blocks_is_inf(spark):
    p = make_problem(spark, ["a", "b"], [("x", "1")], [("y", "1")])
    state = SearchState((Identity(), UNDECIDED))
    assert indeterminacy(*_hist(p, state, ["b"]), ["b"]) == {"b": float("inf")}


def test_indeterminacy_all_null_is_zero(spark):
    """Exact distinct count: nulls are no value to tell records apart."""
    src = [("x", None), ("x", None), ("y", "2")]  # block y is not mixed
    p = make_problem(spark, ["a", "b"], src, [("x", "1")])
    state = SearchState((Identity(), UNDECIDED))
    assert indeterminacy(*_hist(p, state, ["b"]), ["b"]) == {"b": 0.0}


def test_evaluate_pairs_matches_individual_state_overlap(problem):
    base = SearchState((Identity(), UNDECIDED, UNDECIDED))
    pairs = [
        (2, Uppercasing()),
        (2, Identity()),
        (2, ConstantValue("P")),
        (1, Scale(10.0)),
    ]
    got = evaluate_pairs(problem, *_hist(problem, base, ["b", "c"]), pairs)
    want = [
        state_overlap(problem, base.extend(i, f)) for i, f in pairs
    ]
    assert got == want


def test_evaluate_pairs_oracle_check(problem, spark):
    """Identity extension on b under identity-on-a base == two-column
    group-count overlap in DuckDB."""
    base = SearchState((Identity(), UNDECIDED, UNDECIDED))
    (m,) = evaluate_pairs(problem, *_hist(problem, base, ["b"]), [(1, Identity())])
    sql = """
        WITH s AS (SELECT a, b, count(*) AS c FROM src GROUP BY a, b),
             t AS (SELECT a, b, count(*) AS c FROM tgt GROUP BY a, b)
        SELECT CAST(coalesce(sum(least(s.c, t.c)), 0) AS BIGINT) AS m
        FROM s JOIN t USING (a, b)
    """
    assert_equivalent(
        spark.createDataFrame([(m,)], "m bigint"),
        sql,
        src=pd.DataFrame(SRC, columns=ATTRS),
        tgt=pd.DataFrame(TGT, columns=ATTRS),
    )


def test_evaluate_pairs_with_nulls_matches_state_overlap(spark):
    """Null is a value of its own on both sides, in the block key and in
    the refined (block, value) blocks."""
    src = [("x", None, "p"), ("x", None, "p"), (None, "1", None), (None, None, "q"), ("y", "2", "Q")]
    tgt = [("x", None, "P"), (None, "1", None), (None, "3", "Q"), ("y", None, "Q"), ("y", "2", None)]
    p = make_problem(spark, ATTRS, src, tgt)
    base = SearchState((Identity(), UNDECIDED, UNDECIDED))
    pairs = [
        (1, Identity()),
        (1, ConstantValue("1")),
        (1, ValueMapping((("2", "3"),))),
        (2, Uppercasing()),
        (2, Lowercasing()),
        (2, Identity()),
    ]
    got = evaluate_pairs(p, *_hist(p, base, ["b", "c"]), pairs)
    assert got == [state_overlap(p, base.extend(i, f)) for i, f in pairs]
    assert got[0] == 3  # (x, null) once and (null, 1) and (y, 2)


def test_evaluate_pairs_empty(problem):
    hist = _hist(problem, SearchState((UNDECIDED,) * 3), ["a"])
    assert evaluate_pairs(problem, *hist, []) == []


def test_block_key_separator_in_values(spark):
    """("a\x1fb", "c") and ("a", "b\x1fc") are different blocks."""
    p = make_problem(spark, ["a", "b"], [("a\x1fb", "c")], [("a", "b\x1fc")])
    assert state_overlap(p, SearchState((Identity(), Identity()))) == 0


def test_block_key_null_sentinel_string_is_not_null(spark):
    p = make_problem(spark, ["a", "b"], [("\x00N", "v")], [(None, "v")])
    assert state_overlap(p, SearchState((Identity(), Identity()))) == 0


def test_null_values_block_consistently(spark):
    p = make_problem(spark, ["a", "b"], [(None, "1")], [(None, "1")])
    st = SearchState((Identity(), Identity()))
    assert state_overlap(p, st) == 1
