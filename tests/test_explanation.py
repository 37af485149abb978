"""Explanations, Prop. 3.6 construction, and Def. 3.10 costs — including
the paper's worked examples (c(E1) = 77, trivial cost |A|*|T| = 112)."""
import pandas as pd
import pytest

from repro.core.explanation import (
    explanation_from_functions,
    trivial_explanation,
)
from repro.core.functions import (
    ConstantValue,
    Identity,
    PrefixReplacement,
    Scale,
    ValueMapping,
)
from repro.core.state import RID, Problem
from repro.bench.running_example import (
    ATTRS,
    E1_CORE_SIZE,
    E1_COST,
    E1_DELETED,
    E1_INSERTED,
    SOURCE_ROWS,
    TARGET_ROWS,
    running_example_problem,
)
from repro.oracle import assert_equivalent

from .util import make_problem


@pytest.fixture(scope="module")
def i1(spark):
    return running_example_problem(spark)


def _e1_functions():
    # F^E1 from Figure 1 (ID1/ID2 as the 13-entry value mappings)
    id1 = ValueMapping(
        (
            ("S01", "T07"), ("S02", "T02"), ("S03", "T06"), ("S05", "T04"),
            ("S06", "T03"), ("S07", "T09"), ("S08", "T10"), ("S09", "T08"),
            ("S11", "T13"), ("S12", "T14"), ("S13", "T15"), ("S15", "T11"),
            ("S17", "T12"),
        )
    )
    id2 = ValueMapping(
        (
            ("0000", "0006"), ("0001", "0001"), ("0002", "0005"),
            ("0004", "0003"), ("0005", "0002"), ("0006", "0008"),
            ("0007", "0009"), ("0008", "0007"), ("0010", "0012"),
            ("0011", "0013"), ("0012", "0014"), ("0014", "0010"),
            ("0016", "0011"),
        )
    )
    return (
        id1,
        id2,
        PrefixReplacement("9999123", "2018070"),
        Identity(),
        Scale(1.0 / 1000),
        ConstantValue("k $"),
        Identity(),
    )


def test_e1_reconstructs_paper_explanation(i1):
    e = explanation_from_functions(i1, _e1_functions())
    assert e.core_size == E1_CORE_SIZE
    assert e.n_inserted == E1_INSERTED
    assert e.n_deleted == E1_DELETED
    assert e.cost(0.5) == E1_COST


def test_e1_worked_cost_components(i1):
    e = explanation_from_functions(i1, _e1_functions())
    assert sum(f.psi for f in e.functions) == 56
    assert e.n_attrs * e.n_inserted == 21


def test_trivial_explanation_cost(i1):
    e = trivial_explanation(i1)
    assert e.core_size == 0
    assert e.cost(0.5) == 7 * 16 == 112  # |A1| * |T1| as in the paper
    assert e.n_deleted == 17 and e.n_inserted == 16


def test_alpha_weighting(i1):
    e = explanation_from_functions(i1, _e1_functions())
    assert e.cost(1.0) == 2 * 21
    assert e.cost(0.0) == 2 * 56


def test_bijection_on_duplicate_tuples(spark):
    """Two identical source records can serve two identical targets, but a
    third target stays inserted (|S^E| = |T^E| bijection)."""
    p = make_problem(
        spark, ["a"], [("x",), ("x",)], [("x",), ("x",), ("x",)]
    )
    e = explanation_from_functions(p, (Identity(),))
    assert e.core_size == 2
    assert e.n_inserted == 1
    assert e.n_deleted == 0


@pytest.mark.parametrize(
    "src, tgt",
    [
        ([("a\x1fb", "c")], [("a", "b\x1fc")]),  # separator inside a value
        ([("\x00N", "v")], [(None, "v")]),  # the old null-sentinel string
    ],
)
def test_full_tuple_key_does_not_pair_distinct_tuples(spark, src, tgt):
    p = make_problem(spark, ["a", "b"], src, tgt)
    e = explanation_from_functions(p, (Identity(), Identity()))
    assert e.core_size == 0


def test_core_pairs_are_one_to_one(i1):
    e = explanation_from_functions(i1, _e1_functions())
    pdf = e.core_pairs.toPandas()
    assert pdf["s_rid"].is_unique and pdf["t_rid"].is_unique
    assert len(pdf) == e.core_size


def test_core_pairs_independent_of_shuffle_partitions(spark):
    """For one seed the bijection among duplicate tuples is the same at any
    partitioning of the snapshots."""
    src = [("x",)] * 6 + [("y",)] * 4 + [("z",)] * 2
    tgt = [("x",)] * 5 + [("y",)] * 5 + [("w",)]
    p = make_problem(spark, ["a"], src, tgt)
    p = Problem(spark, p.source.repartition(RID), p.target.repartition(RID), p.attrs)
    old = spark.conf.get("spark.sql.shuffle.partitions")
    pairs = []
    try:
        for n in (1, 8, 64):
            spark.conf.set("spark.sql.shuffle.partitions", str(n))
            e = explanation_from_functions(p, (Identity(),), seed=3)
            pairs.append({(r["s_rid"], r["t_rid"]) for r in e.core_pairs.collect()})
    finally:
        spark.conf.set("spark.sql.shuffle.partitions", old)
    assert len(pairs[0]) == 9
    assert pairs[0] == pairs[1] == pairs[2]


def test_empty_core_has_pair_columns(spark):
    p = make_problem(spark, ["a"], [("x",)], [("y",)])
    e = explanation_from_functions(p, (Identity(),))
    assert e.core_size == 0
    assert e.core_pairs.columns == ["s_rid", "t_rid"] and e.core_pairs.count() == 0


def test_validity_identity(i1):
    """|S| = |S^E| + |S^E-| and |T| = |T^E| + |T^E+| (Prop. 3.7)."""
    e = explanation_from_functions(i1, _e1_functions())
    assert e.core_size + e.n_deleted == len(SOURCE_ROWS)
    assert e.core_size + e.n_inserted == len(TARGET_ROWS)


def test_identity_functions_match_oracle_intersection(spark):
    """Core size under all-identity functions == DuckDB bag-intersection."""
    src = [("a", "1"), ("a", "1"), ("b", "2"), ("c", "3")]
    tgt = [("a", "1"), ("b", "2"), ("b", "2"), ("d", "4")]
    p = make_problem(spark, ["x", "y"], src, tgt)
    e = explanation_from_functions(p, (Identity(), Identity()))
    sql = """
        WITH s AS (SELECT x, y, count(*) AS c FROM src GROUP BY x, y),
             t AS (SELECT x, y, count(*) AS c FROM tgt GROUP BY x, y)
        SELECT CAST(coalesce(sum(least(s.c, t.c)), 0) AS BIGINT) AS core
        FROM s JOIN t USING (x, y)
    """
    assert_equivalent(
        spark.createDataFrame([(e.core_size,)], "core bigint"),
        sql,
        src=pd.DataFrame(src, columns=["x", "y"]),
        tgt=pd.DataFrame(tgt, columns=["x", "y"]),
    )


def test_wrong_arity_raises(i1):
    with pytest.raises(ValueError):
        explanation_from_functions(i1, (Identity(),))
