"""Empirical survival functions, binned estimation, and survival entropy.

A survival function S(x) = P(X > x) is the complement of the CDF.  The
empirical survival function of a sample of size n drops by 1/n at every
observation (tied observations drop jointly) and is represented here as an
explicit step function, so that integrals of piecewise-constant integrands
can be evaluated exactly as finite sums.  The binned survival is the
empirical survival of the sample snapped up to the edges of an equal-width
grid, so it steps only at occupied edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_BINS",
    "SortedSample",
    "StepSurvival",
    "empirical_survival",
    "km_binned_survival",
    "survival_entropy",
]

#: Default bin count for binned (Kaplan-Meier style) survival estimation.
DEFAULT_BINS = 10**6


def _frozen_array(values, dtype=np.float64) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class SortedSample:
    """Order statistics of a real-valued sample.

    ``values`` must already be non-decreasing; use :meth:`from_data` to sort
    raw observations.  Instances are immutable and safe to share across
    threads.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64).ravel()
        if values.size == 0:
            raise ValueError("empty sample")
        if not np.all(np.isfinite(values)):
            raise ValueError("sample contains non-finite values")
        if np.any(values[1:] < values[:-1]):
            raise ValueError("sample values must be non-decreasing")
        object.__setattr__(self, "values", _frozen_array(values))

    @classmethod
    def from_data(cls, data) -> "SortedSample":
        """Sort raw observations into a sample."""
        return cls(np.sort(np.asarray(data, dtype=np.float64).ravel()))

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def min(self) -> float:
        return float(self.values[0])

    @property
    def max(self) -> float:
        return float(self.values[-1])


@dataclass(frozen=True, eq=False)
class StepSurvival:
    """Right-continuous piecewise-constant survival function.

    ``values[k]`` is S(x) on ``[breakpoints[k], breakpoints[k+1])``, S is 1
    to the left of the first breakpoint, and ``values[-1]`` extends to +inf.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = np.asarray(self.breakpoints, dtype=np.float64).ravel()
        vals = np.asarray(self.values, dtype=np.float64).ravel()
        if bp.size == 0:
            raise ValueError("step survival needs at least one breakpoint")
        if bp.size != vals.size:
            raise ValueError("breakpoints and values must have equal length")
        if not np.all(np.isfinite(bp)):
            raise ValueError("breakpoints must be finite")
        if not np.all(bp[1:] > bp[:-1]):
            raise ValueError("breakpoints must be strictly increasing")
        if not (0.0 <= vals.min() and vals.max() <= 1.0):
            raise ValueError("survival values must lie in [0, 1]")
        if vals.size > 1 and np.any(np.diff(vals) > 0):
            raise ValueError("survival values must be non-increasing")
        object.__setattr__(self, "breakpoints", _frozen_array(bp))
        # S with 1 in front, indexed by the count of breakpoints at or below x
        levels = _frozen_array(np.concatenate(([1.0], vals)))
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "values", levels[1:])

    def __call__(self, x):
        """Evaluate S at scalar or array ``x``."""
        arr = np.asarray(x, dtype=np.float64)
        out = self._levels[np.searchsorted(self.breakpoints, arr, side="right")]
        if arr.ndim == 0:
            return float(out)
        return out


def empirical_survival(sample: SortedSample) -> StepSurvival:
    """Empirical survival function S(x) = #{observations > x} / n.

    Duplicate observations collapse into a single breakpoint with the
    corresponding joint drop; the final value is exactly 0.
    """
    v = sample.values
    # each distinct value ends a run of equal values; comparing neighbours
    # rather than subtracting them cannot overflow
    ends = np.flatnonzero(np.append(v[1:] != v[:-1], True))
    return StepSurvival(v[ends], (sample.n - 1 - ends) / sample.n)


def _snap_up(x: np.ndarray, lo: float, hi: float, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Snap sorted ``x`` (at most ``hi``) up to the edges of an equal-width grid.

    The edges are those of ``np.linspace(lo, hi, bins + 1)``, computed only
    where needed.  Each value goes to the first edge at or above it (values
    below ``lo`` to the first edge after ``lo``).  Returns the occupied
    edges, increasing, and for each the index in ``x`` of the last value
    snapped to it, both new arrays.
    """
    step = (hi - lo) / bins
    if not 0.0 < step < math.inf:
        raise ValueError(f"cannot split ({lo}, {hi}) into {bins} float64 bins")

    def edge(k):
        # np.linspace(lo, hi, bins + 1)[k], bit for bit, written over k;
        # k is non-decreasing, so the indices equal to bins form a tail
        tail = np.searchsorted(k, bins)
        k *= step
        k += lo
        k[tail:] = hi
        return k

    # the arithmetic guess can be one edge off, because the edges carry
    # linspace's rounding; x is sorted, so k stays non-decreasing (whole
    # numbers in float64, so that no temporary is wider than one array)
    k = x - lo
    k /= step
    np.ceil(k, out=k)
    np.clip(k, 1, bins, out=k)
    k += edge(k.copy()) < x
    k -= (k > 1) & (edge(k - 1.0) >= x)
    # each occupied edge ends a run of equal k; the last run ends with x
    ends = np.flatnonzero(np.append(k[1:] != k[:-1], x.size > 0))
    return edge(k[ends]), ends


def km_binned_survival(
    sample: SortedSample,
    bins: int = DEFAULT_BINS,
    bounds: tuple[float, float] | None = None,
) -> StepSurvival:
    """Empirical survival sampled at the right edges of an equal-width grid.

    With fully observed data this is the (uncensored) Kaplan-Meier step
    estimate on the grid.  ``bounds`` defaults to the sample range.  The
    edges are ``np.linspace(lo, hi, bins + 1)[1:]``; each observation up to
    ``hi`` is snapped up to the first edge at or above it, and only the
    occupied edges become breakpoints, so the result has at most
    ``min(n, bins)`` steps and costs O(n) whatever ``bins`` is.
    Observations above ``hi`` stay in the tail value.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    lo, hi = bounds if bounds is not None else (sample.min, sample.max)
    if not lo < hi:
        raise ValueError(f"invalid range: need lo < hi, got ({lo}, {hi})")
    n = sample.n
    x = sample.values[: np.searchsorted(sample.values, hi, side="right")]
    edges, ends = _snap_up(x, lo, hi, bins)
    if ends.size == 0:
        # every observation lies above hi: S is 1 on the whole grid
        return StepSurvival(np.array([hi]), np.ones(1))
    return StepSurvival(edges, (n - 1 - ends) / n)


def survival_entropy(sample: SortedSample) -> float:
    """Entropy -integral S log S dx of the empirical survival function.

    Evaluated through the order-statistics spacings: the integrand is
    constant at level 1 - i/n between consecutive order statistics, so the
    integral reduces to a finite sum.  Natural logarithm; result carries the
    units of the observations and is 0 for n = 1 or an all-tied sample.
    """
    n = sample.n
    if n == 1:
        return 0.0
    e = math.frexp(max(-sample.min, sample.max))[1]  # gaps in units of 2^e cannot overflow
    gaps = np.diff(np.ldexp(sample.values, -e))
    tail = 1.0 - np.arange(1, n) / n
    return math.ldexp(float(-np.sum(gaps * tail * np.log(tail))), e) + 0.0
