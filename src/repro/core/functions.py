"""Meta functions of Table 1 (paper §4.4.1) and single-example induction.

A *meta function* is a parameterized family of string transformations; a
*function* is one instantiation. ``psi`` is the description length: the
number of data values needed to instantiate the function from its meta
function (Def. 3.9 of the paper; a value mapping with n entries has
psi = 2n, matching the worked cost c(E1) = 77 in the paper).

Semantics follow the paper's running example: pattern functions fall back
to identity when the pattern does not match (``'9999123'x -> '2018070'x,
otherwise x -> x``); numeric functions behave as identity on values that do
not parse as numbers. All functions map ``str -> str`` and ``None -> None``.

Induction (`induce_candidates`) generates, from a single input-output
example, every instantiation of every supported meta function that maps the
input to the output — the primitive Affidavit applies to noisy examples
sampled from blocks (§4.4.2). Every emitted candidate is verified against
its generating example.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
import pandas as pd

__all__ = [
    "TransformFunction",
    "Identity",
    "Uppercasing",
    "Lowercasing",
    "ConstantValue",
    "Addition",
    "Scale",
    "FrontMasking",
    "BackMasking",
    "FrontCharTrimming",
    "BackCharTrimming",
    "Prefixing",
    "Suffixing",
    "PrefixReplacement",
    "SuffixReplacement",
    "ValueMapping",
    "parse_number",
    "format_number",
    "induce_candidates",
]


def parse_number(s: str | None) -> float | None:
    """Parse ``s`` as a finite float, else None. Rejects inf/nan spellings."""
    if s is None:
        return None
    s = s.strip()
    if not s:
        return None
    try:
        v = float(s)
    except ValueError:
        return None
    if not math.isfinite(v):
        return None
    return v


def format_number(v: float) -> str:
    """Canonical decimal rendering: shortest positional form, no trailing
    zeros, integers without a decimal point (80.0 -> '80', 0.065 -> '0.065').

    Values are first rounded to 12 significant digits so float artifacts
    (425000 * 0.001 = 425.00000000000006) collapse to the intended value.
    The instance generator and the induced functions share this formatter,
    so a function learned from one example reproduces every other target
    value exactly.
    """
    if v == 0:
        return "0"
    v = round(v, 12 - 1 - math.floor(math.log10(abs(v))))
    if v == 0:
        return "0"
    return np.format_float_positional(v, trim="-", unique=True)


def _snap(y: float) -> float:
    """Snap a parameter derived from float arithmetic to a nearby round
    value so that e.g. 6.54/6540 becomes exactly 1/1000."""
    r = round(y)
    if abs(y - r) <= 1e-9 * max(1.0, abs(y)):
        return float(r)
    if y != 0:
        inv = 1.0 / y
        ri = round(inv)
        if ri != 0 and abs(inv - ri) <= 1e-9 * abs(inv):
            return 1.0 / ri
    return y


@dataclass(frozen=True)
class TransformFunction:
    """Base class: one instantiated attribute function f: str -> str."""

    @property
    def psi(self) -> int:
        """Description length: number of instantiation parameters."""
        raise NotImplementedError

    def apply(self, x: str | None) -> str | None:
        raise NotImplementedError

    def __call__(self, x: str | None) -> str | None:
        return self.apply(x)

    def apply_series(self, s: pd.Series) -> pd.Series:
        """Vectorized application for pandas-UDF use; default maps apply."""
        return s.map(self.apply, na_action="ignore")

    def signature(self) -> str:
        """Stable identity string for deduplication and state signatures."""
        return repr(self)


@dataclass(frozen=True)
class Identity(TransformFunction):
    psi = 0

    def apply(self, x):
        return x

    def apply_series(self, s):
        return s


@dataclass(frozen=True)
class Uppercasing(TransformFunction):
    psi = 0

    def apply(self, x):
        return None if x is None else x.upper()

    def apply_series(self, s):
        return s.str.upper()


@dataclass(frozen=True)
class Lowercasing(TransformFunction):
    """Inverse variant of uppercasing."""

    psi = 0

    def apply(self, x):
        return None if x is None else x.lower()

    def apply_series(self, s):
        return s.str.lower()


@dataclass(frozen=True)
class ConstantValue(TransformFunction):
    c: str
    psi = 1

    def apply(self, x):
        return None if x is None else self.c


@dataclass(frozen=True)
class Addition(TransformFunction):
    """x -> x + y on numeric values; identity on non-numeric. Subtraction
    is the inverse variant (negative y)."""

    y: float
    psi = 1

    def apply(self, x):
        v = parse_number(x)
        return x if v is None else format_number(v + self.y)


@dataclass(frozen=True)
class Scale(TransformFunction):
    """x -> x * factor on numeric values; identity on non-numeric.
    Covers the paper's Division (factor = 1/y) and its inverse
    (multiplication)."""

    factor: float
    psi = 1

    def apply(self, x):
        v = parse_number(x)
        return x if v is None else format_number(v * self.factor)


@dataclass(frozen=True)
class FrontMasking(TransformFunction):
    """.{|m|} . x -> m . x : overwrite the first |m| characters with the
    mask m; identity when the value is shorter than the mask."""

    m: str
    psi = 1

    def apply(self, x):
        if x is None:
            return None
        return self.m + x[len(self.m):] if len(x) >= len(self.m) else x


@dataclass(frozen=True)
class BackMasking(TransformFunction):
    """Inverse variant: overwrite the last |m| characters."""

    m: str
    psi = 1

    def apply(self, x):
        if x is None:
            return None
        return x[: len(x) - len(self.m)] + self.m if len(x) >= len(self.m) else x


@dataclass(frozen=True)
class FrontCharTrimming(TransformFunction):
    """[c]* . x -> x : strip the leading run of character c."""

    c: str
    psi = 1

    def apply(self, x):
        return None if x is None else x.lstrip(self.c)


@dataclass(frozen=True)
class BackCharTrimming(TransformFunction):
    """Inverse variant: strip the trailing run of character c."""

    c: str
    psi = 1

    def apply(self, x):
        return None if x is None else x.rstrip(self.c)


@dataclass(frozen=True)
class Prefixing(TransformFunction):
    y: str
    psi = 1

    def apply(self, x):
        return None if x is None else self.y + x


@dataclass(frozen=True)
class Suffixing(TransformFunction):
    """Inverse variant of prefixing."""

    y: str
    psi = 1

    def apply(self, x):
        return None if x is None else x + self.y


@dataclass(frozen=True)
class PrefixReplacement(TransformFunction):
    """y . x -> z . x when the value starts with y, otherwise identity."""

    y: str
    z: str
    psi = 2

    def apply(self, x):
        if x is None:
            return None
        return self.z + x[len(self.y):] if x.startswith(self.y) else x


@dataclass(frozen=True)
class SuffixReplacement(TransformFunction):
    """Inverse variant: x . y -> x . z when the value ends with y."""

    y: str
    z: str
    psi = 2

    def apply(self, x):
        if x is None:
            return None
        return x[: len(x) - len(self.y)] + self.z if x.endswith(self.y) else x


@dataclass(frozen=True)
class ValueMapping(TransformFunction):
    """Explicit per-value map; unmapped values pass through unchanged.
    psi = 2n (each entry costs its source and its target value) — this is
    what makes maps the most expensive explanation and drives the MDL
    trade-off."""

    entries: tuple[tuple[str, str], ...] = field(default=())

    @property
    def psi(self) -> int:
        return 2 * len(self.entries)

    def _dict(self) -> dict[str, str]:
        return dict(self.entries)

    def apply(self, x):
        if x is None:
            return None
        return self._dict().get(x, x)

    def apply_series(self, s):
        d = self._dict()
        mapped = s.map(d)
        return mapped.where(mapped.notna(), s)

    def __repr__(self):
        # Entries can be large: keep signatures bounded. A content digest,
        # unlike the salted hash(), is the same in every process.
        h = hashlib.blake2b(repr(self.entries).encode(), digest_size=8).hexdigest()
        return f"ValueMapping(n={len(self.entries)}, h={h})"


def _common_suffix_len(a: str, b: str) -> int:
    n = 0
    while n < len(a) and n < len(b) and a[len(a) - 1 - n] == b[len(b) - 1 - n]:
        n += 1
    return n


def _common_prefix_len(a: str, b: str) -> int:
    n = 0
    while n < len(a) and n < len(b) and a[n] == b[n]:
        n += 1
    return n


def induce_candidates(in_v: str, out_v: str) -> list[TransformFunction]:
    """All meta-function instantiations learnable from the single example
    ``in_v -> out_v`` (§4.4.1: every supported meta function is learnable
    from one example). Each candidate is verified before being returned.
    Value mappings are deliberately *not* induced here — they are resolved
    from greedy alignments at the end of the search (§4.4.1 last para).
    """
    if in_v is None or out_v is None:
        return []
    cands: list[TransformFunction] = []

    if in_v == out_v:
        cands.append(Identity())
    if in_v != out_v:
        if out_v == in_v.upper():
            cands.append(Uppercasing())
        if out_v == in_v.lower():
            cands.append(Lowercasing())

    cands.append(ConstantValue(out_v))

    iv, ov = parse_number(in_v), parse_number(out_v)
    if iv is not None and ov is not None and in_v != out_v:
        y = _snap(ov - iv)
        if y != 0:
            cands.append(Addition(y))
        if iv != 0 and ov != 0:
            f = _snap(ov / iv)
            if f != 1:
                cands.append(Scale(f))

    if in_v != out_v:
        # Masking requires equal lengths; minimal mask = up to the longest
        # common suffix/prefix.
        if len(in_v) == len(out_v) and len(in_v) > 0:
            sl = _common_suffix_len(in_v, out_v)
            left = len(in_v) - sl
            if 1 <= left:
                cands.append(FrontMasking(out_v[:left]))
            pl = _common_prefix_len(in_v, out_v)
            right = len(in_v) - pl
            if 1 <= right:
                cands.append(BackMasking(out_v[pl:]))
        # Char trimming: in = c^k . out with maximal leading run of c.
        if len(in_v) > len(out_v) and in_v:
            c = in_v[0]
            if in_v.lstrip(c) == out_v:
                cands.append(FrontCharTrimming(c))
            c = in_v[-1]
            if in_v.rstrip(c) == out_v:
                cands.append(BackCharTrimming(c))
        # Prefixing / suffixing.
        if len(out_v) > len(in_v):
            if out_v.endswith(in_v):
                cands.append(Prefixing(out_v[: len(out_v) - len(in_v)]))
            if out_v.startswith(in_v):
                cands.append(Suffixing(out_v[len(in_v):]))
        # Prefix/suffix replacement from the longest common suffix/prefix
        # (minimal parameters; matches the paper's '9999123'x -> '2018070'x).
        sl = _common_suffix_len(in_v, out_v)
        if sl >= 1:
            y, z = in_v[: len(in_v) - sl], out_v[: len(out_v) - sl]
            if y and y != z:
                cands.append(PrefixReplacement(y, z))
        pl = _common_prefix_len(in_v, out_v)
        if pl >= 1:
            y, z = in_v[pl:], out_v[pl:]
            if y and y != z:
                cands.append(SuffixReplacement(y, z))

    return [f for f in cands if f.apply(in_v) == out_v]
