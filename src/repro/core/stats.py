"""Sample-size mathematics of §4.4.2/§4.4.3.

* ``sample_size_for_support``: smallest k with P(X >= support) >= rho for
  X ~ Binomial(k, theta) — the number of target records Affidavit samples
  per induction round so that a function visible in a theta-fraction of the
  targets is generated at least ``support`` times with confidence rho.

Candidate overlaps are computed exactly from the state's block histogram,
so the paper's Cochran-sized source sample for estimating them is not
used.
"""
from __future__ import annotations

import math

__all__ = ["binom_pmf", "binom_sf", "sample_size_for_support"]


def binom_pmf(n: int, k: int, p: float) -> float:
    """P(X = k) for X ~ Binomial(n, p)."""
    if k < 0 or k > n:
        return 0.0
    return math.comb(n, k) * p**k * (1 - p) ** (n - k)


def binom_sf(n: int, k: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    if k <= 0:
        return 1.0
    return 1.0 - sum(binom_pmf(n, i, p) for i in range(min(k, n + 1)))


def sample_size_for_support(theta: float, rho: float, support: int = 5) -> int:
    """Smallest k such that P(Binomial(k, theta) >= support) >= rho.

    With the paper's defaults theta=0.1, rho=0.95 this is 91.
    """
    if not 0 < theta <= 1:
        raise ValueError(f"theta must be in (0, 1], got {theta}")
    if not 0 < rho < 1:
        raise ValueError(f"rho must be in (0, 1), got {rho}")
    k = support
    while binom_sf(k, support, theta) < rho:
        k += 1
        if k > 1_000_000:  # theta pathologically small
            raise ValueError("sample size diverged; theta too small")
    return k

