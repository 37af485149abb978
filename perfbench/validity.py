"""Independent validity check of an explanation, in plain pandas.

Shares no code with ``repro.core.explanation``: it collects both snapshots
and the explanation's record alignment and confirms, from the definitions
(paper §3, Prop. 3.6, Def. 3.10), that

* ``core_pairs`` is a bijection between existing source and target records;
* F applied to each paired source record equals its target record;
* no unpaired source record maps onto an unpaired identical target record
  (the alignment is maximal for F);
* the core, insertion and deletion counts agree with the pairs;
* c(E) = 2·α·|A|·|T⁺| + 2·(1−α)·Σψ(f) recomputes to the reported cost.
"""
from __future__ import annotations

import pandas as pd

from repro.core import RID, Explanation, Problem

__all__ = ["explanation_errors"]


def _na_equal(a: pd.Series, b: pd.Series) -> pd.Series:
    return (a == b) | (a.isna() & b.isna())


def explanation_errors(
    problem: Problem, expl: Explanation, *, alpha: float = 0.5
) -> list[str]:
    """Every way ``expl`` fails to be a valid explanation; empty if valid."""
    attrs = problem.attrs
    if len(expl.functions) != len(attrs):
        return [f"{len(expl.functions)} functions for {len(attrs)} attributes"]
    src = problem.source.select(RID, *attrs).toPandas().set_index(RID)
    tgt = problem.target.select(RID, *attrs).toPandas().set_index(RID)
    if expl.core_pairs is None:
        pairs = pd.DataFrame({"s_rid": [], "t_rid": []}, dtype="int64")
    else:
        pairs = expl.core_pairs.select("s_rid", "t_rid").toPandas()

    errors = []
    if pairs["s_rid"].duplicated().any() or pairs["t_rid"].duplicated().any():
        errors.append("core_pairs is not a bijection")
    if not (pairs["s_rid"].isin(src.index).all() and pairs["t_rid"].isin(tgt.index).all()):
        return errors + ["core_pairs names records that do not exist"]

    core = len(pairs)
    for what, got, want in [
        ("core size", expl.core_size, core),
        ("deletions", expl.n_deleted, len(src) - core),
        ("insertions", expl.n_inserted, len(tgt) - core),
    ]:
        if got != want:
            errors.append(f"{what} is {got}, the pairs give {want}")

    mapped = pd.DataFrame(
        {a: f.apply_series(src[a]) for a, f in zip(attrs, expl.functions)},
        index=src.index,
    )
    s_rows = mapped.loc[pairs["s_rid"]].reset_index(drop=True)
    t_rows = tgt.loc[pairs["t_rid"]].reset_index(drop=True)
    for a in attrs:
        bad = int((~_na_equal(s_rows[a], t_rows[a])).sum())
        if bad:
            errors.append(f"F maps {bad} paired source values of {a!r} off their target")

    # Maximality: an unpaired source tuple equal (after F) to an unpaired
    # target tuple could have been paired.
    rest_s = mapped.drop(index=pairs["s_rid"]).fillna("\0null")
    rest_t = tgt.drop(index=pairs["t_rid"]).fillna("\0null")
    common = rest_s.merge(rest_t.drop_duplicates(), on=attrs, how="inner")
    if len(common):
        errors.append(f"{len(common)} unpaired source records match an unpaired target")

    psi = sum(f.psi for f in expl.functions)
    cost = 2 * alpha * len(attrs) * (len(tgt) - core) + 2 * (1 - alpha) * psi
    if abs(cost - expl.cost(alpha)) > 1e-9:
        errors.append(f"cost is {expl.cost(alpha)}, recomputed {cost}")
    return errors
