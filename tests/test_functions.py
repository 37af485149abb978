"""Unit tests for the Table 1 meta-function library and single-example
induction (no Spark needed)."""
import os
import subprocess
import sys
from pathlib import Path

import pandas as pd
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.functions import (
    Addition,
    BackCharTrimming,
    BackMasking,
    ConstantValue,
    FrontCharTrimming,
    FrontMasking,
    Identity,
    Lowercasing,
    PrefixReplacement,
    Prefixing,
    Scale,
    SuffixReplacement,
    Suffixing,
    Uppercasing,
    ValueMapping,
    format_number,
    induce_candidates,
    parse_number,
)

# ---------------------------------------------------------------------------
# parse/format
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "s,expected",
    [
        ("80000", 80000.0),
        (" 6540 ", 6540.0),
        ("0.065", 0.065),
        ("-3.5", -3.5),
        ("1e3", 1000.0),
        ("", None),
        ("  ", None),
        ("abc", None),
        ("12a", None),
        ("inf", None),
        ("nan", None),
        (None, None),
    ],
)
def test_parse_number(s, expected):
    assert parse_number(s) == expected


@pytest.mark.parametrize(
    "v,expected",
    [
        (80.0, "80"),
        (0.065, "0.065"),
        (0.0, "0"),
        (-0.0, "0"),
        (9.8, "9.8"),
        (422.4, "422.4"),
        (425.00000000000006, "425"),  # float artifact collapses
        (3780.0, "3780"),
        (-12.5, "-12.5"),
    ],
)
def test_format_number(v, expected):
    assert format_number(v) == expected


# ---------------------------------------------------------------------------
# apply semantics (incl. the paper's identity fallbacks)
# ---------------------------------------------------------------------------

APPLY_CASES = [
    (Identity(), "x1", "x1"),
    (Uppercasing(), "ibm", "IBM"),
    (Lowercasing(), "IBM", "ibm"),
    (ConstantValue("k $"), "USD", "k $"),
    (Addition(5.0), "4", "9"),
    (Addition(-0.5), "10", "9.5"),
    (Addition(5.0), "abc", "abc"),  # non-numeric -> identity
    (Scale(0.001), "80000", "80"),
    (Scale(0.001), "65", "0.065"),
    (Scale(0.001), "0", "0"),
    (Scale(0.001), "USD", "USD"),  # non-numeric -> identity
    (FrontMasking("##"), "20130416", "##130416"),
    (FrontMasking("##"), "x", "x"),  # shorter than mask -> identity
    (BackMasking("##"), "20130416", "201304##"),
    (FrontCharTrimming("0"), "0004", "4"),
    (FrontCharTrimming("0"), "1004", "1004"),
    (BackCharTrimming("0"), "80000", "8"),
    (Prefixing("pre-"), "x", "pre-x"),
    (Suffixing("-suf"), "x", "x-suf"),
    (PrefixReplacement("9999123", "2018070"), "99991231", "20180701"),
    (PrefixReplacement("9999123", "2018070"), "20130416", "20130416"),  # no match
    (SuffixReplacement("USD", "EUR"), "10USD", "10EUR"),
    (SuffixReplacement("USD", "EUR"), "10GBP", "10GBP"),
    (ValueMapping((("a", "b"),)), "a", "b"),
    (ValueMapping((("a", "b"),)), "z", "z"),  # unmapped passes through
]


@pytest.mark.parametrize("f,x,expected", APPLY_CASES)
def test_apply(f, x, expected):
    assert f.apply(x) == expected


@pytest.mark.parametrize("f,x,expected", APPLY_CASES)
def test_apply_series_matches_apply(f, x, expected):
    s = pd.Series([x, None], dtype="object")
    out = f.apply_series(s)
    assert out.iloc[0] == expected
    assert out.iloc[1] is None or pd.isna(out.iloc[1])


@pytest.mark.parametrize(
    "f",
    [f for f, _, _ in APPLY_CASES],
)
def test_none_maps_to_none(f):
    assert f.apply(None) is None


# ---------------------------------------------------------------------------
# description lengths psi (Table 1 parameter counts)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "f,psi",
    [
        (Identity(), 0),
        (Uppercasing(), 0),
        (Lowercasing(), 0),
        (ConstantValue("c"), 1),
        (Addition(5.0), 1),
        (Scale(0.5), 1),
        (FrontMasking("##"), 1),
        (BackMasking("##"), 1),
        (FrontCharTrimming("0"), 1),
        (BackCharTrimming("0"), 1),
        (Prefixing("p"), 1),
        (Suffixing("s"), 1),
        (PrefixReplacement("a", "b"), 2),
        (SuffixReplacement("a", "b"), 2),
        (ValueMapping(()), 0),
        (ValueMapping((("a", "b"), ("c", "d"))), 4),  # 2 entries -> psi 4
    ],
)
def test_psi(f, psi):
    assert f.psi == psi


def test_e1_function_costs_sum_to_56():
    """The paper's worked example: L(F^E1) = 13*2 + 13*2 + 2 + 0 + 1 + 1 + 0."""
    f_id1 = ValueMapping(tuple((f"S{i:02d}", f"T{i:02d}") for i in range(1, 14)))
    f_id2 = ValueMapping(tuple((f"{i:04d}", f"{i + 1:04d}") for i in range(13)))
    fs = [
        f_id1,
        f_id2,
        PrefixReplacement("9999123", "2018070"),
        Identity(),
        Scale(0.001),
        ConstantValue("k $"),
        Identity(),
    ]
    assert sum(f.psi for f in fs) == 56


# ---------------------------------------------------------------------------
# induction
# ---------------------------------------------------------------------------


def _kinds(cands):
    return {type(f).__name__ for f in cands}


@pytest.mark.parametrize(
    "inp,out,expected_kind",
    [
        ("x", "x", "Identity"),
        ("ibm", "IBM", "Uppercasing"),
        ("IBM", "ibm", "Lowercasing"),
        ("USD", "k $", "ConstantValue"),
        ("4", "9", "Addition"),
        ("6540", "6.54", "Scale"),
        ("9800", "9.8", "Scale"),
        ("20130416", "##130416", "FrontMasking"),
        ("20130416", "201304##", "BackMasking"),
        ("0004", "4", "FrontCharTrimming"),
        ("80000", "8", "BackCharTrimming"),
        ("x", "pre-x", "Prefixing"),
        ("x", "x-suf", "Suffixing"),
        ("99991231", "20180701", "PrefixReplacement"),
        ("10USD", "10EUR", "SuffixReplacement"),
    ],
)
def test_induction_covers_meta_function(inp, out, expected_kind):
    assert expected_kind in _kinds(induce_candidates(inp, out))


def test_induction_verifies_candidates():
    """Every induced candidate must reproduce its generating example."""
    for inp, out in [
        ("6540", "6.54"),
        ("0", "9.8"),
        ("99991231", "20180701"),
        ("abc", "xabc"),
        ("", "x"),
        ("80000", "80"),
    ]:
        for f in induce_candidates(inp, out):
            assert f.apply(inp) == out, f


def test_induction_scale_snaps_to_exact_reciprocal():
    cands = induce_candidates("6540", "6.54")
    scales = [f for f in cands if isinstance(f, Scale)]
    assert scales and scales[0].factor == 1.0 / 1000


def test_induction_no_value_mappings():
    for inp, out in [("a", "b"), ("1", "2")]:
        assert "ValueMapping" not in _kinds(induce_candidates(inp, out))


def test_induction_none_inputs():
    assert induce_candidates(None, "x") == []
    assert induce_candidates("x", None) == []


def test_induction_identity_only_for_equal():
    assert "Identity" not in _kinds(induce_candidates("a", "b"))


@settings(max_examples=200, deadline=None)
@given(
    st.text(alphabet="abc019 $.", max_size=8),
    st.text(alphabet="abc019 $.", max_size=8),
)
def test_induction_property_all_candidates_verify(inp, out):
    for f in induce_candidates(inp, out):
        assert f.apply(inp) == out, (inp, out, f)


@settings(max_examples=100, deadline=None)
@given(st.integers(-10_000, 10_000), st.integers(1, 1000))
def test_numeric_roundtrip_property(v, div):
    s = format_number(float(v))
    f = Scale(1.0 / div)
    out = f.apply(s)
    assert parse_number(out) == pytest.approx(v / div)


def test_signature_stable_and_distinct():
    assert Identity().signature() == Identity().signature()
    assert Addition(5.0).signature() != Addition(6.0).signature()
    assert ValueMapping((("a", "b"),)).signature() == ValueMapping((("a", "b"),)).signature()
    assert (
        ValueMapping((("a", "b"),)).signature()
        != ValueMapping((("a", "c"),)).signature()
    )


def test_value_mapping_signature_stable_across_processes():
    """The signature must not depend on Python's per-process string-hash
    salt."""
    import repro

    code = (
        "from repro.core.functions import ValueMapping; "
        "print(ValueMapping((('S01', 'T07'), ('S02', 'T02'))).signature())"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    sigs = set()
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        sigs.add(out.stdout.strip())
    assert len(sigs) == 1


def test_functions_hashable_and_eq():
    assert Addition(5.0) == Addition(5.0)
    assert len({Addition(5.0), Addition(5.0), Scale(5.0)}) == 2
