"""Classic keyed snapshot diff: correct under stable keys (DuckDB-checked),
useless under reassigned keys — the paper's motivation."""
import pandas as pd
import pytest

from repro.baselines import keyed_diff
from repro.oracle import assert_equivalent

ATTRS = ["pk", "a", "b"]
SRC = [
    ("1", "x", "p"),
    ("2", "y", "q"),
    ("3", "z", "r"),
    ("4", "w", "s"),
]
TGT = [
    ("1", "x", "p"),  # unchanged
    ("2", "y", "Q"),  # updated
    ("3", "Z", "r"),  # updated
    ("5", "n", "n"),  # inserted (4 deleted)
]


@pytest.fixture(scope="module")
def frames(spark):
    s = spark.createDataFrame(pd.DataFrame(SRC, columns=ATTRS))
    t = spark.createDataFrame(pd.DataFrame(TGT, columns=ATTRS))
    return s, t


def test_counts(frames):
    d = keyed_diff(*frames, key_attrs=["pk"])
    assert d.counts() == {
        "inserted": 1,
        "deleted": 1,
        "updated": 2,
        "unchanged": 1,
    }


def test_inserted_matches_oracle(frames):
    d = keyed_diff(*frames, key_attrs=["pk"])
    sql = "SELECT t.pk, t.a, t.b FROM tgt t ANTI JOIN src s USING (pk)"
    assert_equivalent(
        d.inserted,
        sql,
        src=pd.DataFrame(SRC, columns=ATTRS),
        tgt=pd.DataFrame(TGT, columns=ATTRS),
    )


def test_deleted_matches_oracle(frames):
    d = keyed_diff(*frames, key_attrs=["pk"])
    sql = "SELECT s.pk, s.a, s.b FROM src s ANTI JOIN tgt t USING (pk)"
    assert_equivalent(
        d.deleted,
        sql,
        src=pd.DataFrame(SRC, columns=ATTRS),
        tgt=pd.DataFrame(TGT, columns=ATTRS),
    )


def test_updated_matches_oracle(frames):
    d = keyed_diff(*frames, key_attrs=["pk"])
    sql = """
        SELECT s.pk, s.a AS s_a, s.b AS s_b, t.a AS t_a, t.b AS t_b
        FROM src s JOIN tgt t USING (pk)
        WHERE s.a IS DISTINCT FROM t.a OR s.b IS DISTINCT FROM t.b
    """
    assert_equivalent(
        d.updated,
        sql,
        src=pd.DataFrame(SRC, columns=ATTRS),
        tgt=pd.DataFrame(TGT, columns=ATTRS),
    )


def test_breaks_under_key_reassignment(spark):
    """Same records, keys rotated: the keyed diff reports every record as
    updated even though only the key changed — the failure Affidavit fixes."""
    n = 10
    src_rows = [(str(i), f"name{i}", f"city{i % 3}") for i in range(n)]
    tgt_rows = [(str((i + 1) % n), f"name{i}", f"city{i % 3}") for i in range(n)]
    s = spark.createDataFrame(pd.DataFrame(src_rows, columns=ATTRS))
    t = spark.createDataFrame(pd.DataFrame(tgt_rows, columns=ATTRS))
    d = keyed_diff(s, t, key_attrs=["pk"])
    c = d.counts()
    assert c["unchanged"] == 0
    assert c["updated"] == n  # all falsely flagged


def test_bad_key_raises(frames):
    with pytest.raises(ValueError):
        keyed_diff(*frames, key_attrs=["nope"])


def test_ignores_hidden_columns(spark):
    from pyspark.sql import functions as F

    s = spark.createDataFrame(pd.DataFrame(SRC, columns=ATTRS)).withColumn(
        "__rid", F.lit(1)
    )
    t = spark.createDataFrame(pd.DataFrame(TGT, columns=ATTRS))
    d = keyed_diff(s, t, key_attrs=["pk"])
    assert "__rid" not in d.inserted.columns

