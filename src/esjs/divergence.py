"""Empirical survival Jensen-Shannon divergence (ESJS).

The ESJS applies the Jensen-Shannon construction to survival functions: with
M the equal-weight mixture of P and Q,

    ESJS(P, Q) = 1/2 integral ( P log(P/M) + Q log(Q/M) ) dx.

All survival functions here are step functions, so the integral is evaluated
exactly as a finite sum over the union of breakpoints; a bootstrap replicate
sums over the pooled values its resampled positions occupy.  The square root
of the ESJS is a metric; the ratio of two ESJS scores against the same data
is an odds-ratio style model-comparison factor.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from .survival import SortedSample, StepSurvival, _snap_up

__all__ = [
    "EsjsFactor",
    "esjs",
]


#: Cells the kernel evaluates at a time, so that its float buffers stay in cache.
_CHUNK = 1 << 14


class _Workspace(threading.local):
    """Arrays that bootstrap replicates reuse, one set per thread that runs
    them, the calling thread included: arrays made for each replicate go back
    to the system when freed, and the next replicate faults their pages in
    again.  An array grows only when it is too short."""

    def array(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        arrays = vars(self)  # a threading.local keeps one such dict per thread
        if name not in arrays or arrays[name].size < size:
            arrays.pop(name, None)  # the old array goes before the new one is made
            arrays[name] = np.empty(size, dtype)
        return arrays[name][:size]


def _integrand(pv: np.ndarray, qv: np.ndarray, out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """1/2 (P log(P/M) + Q log(Q/M)) with M = (P+Q)/2 and 0 log 0 := 0, into ``out``.

    ``pv`` and ``qv`` are survival levels, so neither increases and the slots
    where one is 0 form a suffix, found by one search of its reversed view.
    Buffers: ``pv`` is overwritten, ``qv`` is read only, ``t`` is scratch and
    ``out`` holds the result; all four are float64, equally long and
    distinct.  The caller ignores numpy's divide and invalid warnings, which
    the zero suffixes raise before they are overwritten.
    """
    m = np.add(pv, qv, out=out)
    m *= 0.5
    # pv is spent once its term is in t, so q's term goes where pv was
    for v, term in ((pv, t), (qv, pv)):
        # v is searched before term overwrites it; a view, so nothing is copied
        zero = v.size - np.searchsorted(v[::-1], 0.0, side="right")
        np.log(np.divide(v, m, out=term), out=term)
        np.multiply(v, term, out=term)
        term[zero:] = 0.0
    np.add(t, pv, out=out)
    out *= 0.5
    return out


def esjs(p: StepSurvival, q: StepSurvival) -> float:
    """Exact divergence between two step survival functions.

    Nonnegative, symmetric, zero iff the inputs agree pointwise, and carries
    the units of the observations.  Returns ``inf`` if the last levels differ,
    so that the integrand is nonzero on the unbounded right tail, as when
    ``bounds`` of a binned survival cut a sample so that its tail stays above 0.

    The grid is the union of both breakpoint arrays, made by one merge of the
    two sorted runs that records which survival each grid point belongs to;
    each survival's level on a cell is then read off a running count of its
    own breakpoints, a chunk at a time, so no survival is searched.
    """
    if p.values[-1] != q.values[-1]:
        return math.inf
    points = np.concatenate([p.breakpoints, q.breakpoints])
    order = np.argsort(points, kind="stable")  # two sorted runs: a single merge
    # a point's sides: bit 0 marks a breakpoint of p, bit 1 one of q
    sides = np.greater_equal(order, p.breakpoints.size).view(np.uint8)
    sides += 1
    points = points[order]
    del order
    distinct = np.empty(points.size, dtype=bool)
    distinct[0] = True
    np.not_equal(points[1:], points[:-1], out=distinct[1:])
    # the stable merge puts a point of both p's copy first: it takes both
    # bits, and the grid drops q's copy
    sides[:-1][~distinct[1:]] = 3
    grid, sides = points[distinct], sides[distinct]
    del points, distinct
    counts = np.empty(min(grid.size - 1, _CHUNK), dtype=np.intp)
    levels = (p._levels, q._levels)  # S after as many breakpoints as the index
    seen = [0, 0]  # breakpoints of p and of q left of the chunk

    def fill(lo, hi, pv, qv):
        run = counts[: hi - lo]
        # sides & 1 is p's bit and sides >> 1 is q's
        for side, (bit, v) in enumerate(((np.bitwise_and, pv), (np.right_shift, qv))):
            bit(sides[lo:hi], 1, out=run)
            np.cumsum(run, out=run)
            np.take(levels[side][seen[side] :], run, out=v, mode="clip")
            seen[side] += int(run[-1])

    return _step_sum(grid, fill, _Workspace())


def _step_sum(grid: np.ndarray, fill, ws: _Workspace) -> float:
    """Exact integral of the integrand of two step functions over ``grid``.

    The functions take P and Q on ``[grid[k], grid[k+1])``, non-increasing in
    ``k``; the caller has checked that the integrand is 0 outside the grid.
    Cells go in chunks of at most ``_CHUNK`` through ``ws``'s four chunk
    buffers.  ``fill(lo, hi, pv, qv)`` writes P and Q on cells ``lo`` to
    ``hi - 1`` into the ``hi - lo`` long ``pv`` and ``qv`` and returns nothing;
    it may read ``grid[lo:hi]``, which no product has overwritten yet, and
    :func:`_integrand` overwrites ``pv`` and only reads ``qv``.  Each cell's
    width times its integrand is written over ``grid[k]`` once the chunk's
    widths have read ``grid[k + 1]``, and one sum over those products gives
    the result, so ``grid`` is spent; it may not overlap any other buffer.
    """
    n = grid.size - 1
    pv, qv, out, t = (ws.array(name, min(n, _CHUNK)) for name in ("pv", "qv", "out", "t"))
    # a range past the largest float (in Python floats: numpy warns) takes
    # half-widths, its ends halved before they are subtracted, and a doubled sum
    half = math.isinf(float(grid[n]) - float(grid[0]))
    with np.errstate(divide="ignore", invalid="ignore"):
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            size = hi - lo
            fill(lo, hi, pv[:size], qv[:size])
            integrand = _integrand(pv[:size], qv[:size], out[:size], t[:size])
            # t is free again; grid[hi] is read here, before the next chunk writes it
            if half:  # fill has read grid[lo:hi], so it may be halved in place
                widths = np.multiply(grid[lo + 1 : hi + 1], 0.5, out=t[:size])
                widths -= np.multiply(grid[lo:hi], 0.5, out=grid[lo:hi])
            else:
                widths = np.subtract(grid[lo + 1 : hi + 1], grid[lo:hi], out=t[:size])
            np.multiply(widths, integrand, out=grid[lo:hi])
    return float(np.sum(grid[:n])) * (2.0 if half else 1.0) + 0.0


def _pool(p: SortedSample, q: SortedSample) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct values of both samples, increasing, and the index of each
    observation of ``p`` and of ``q`` among them (int32, non-decreasing)."""
    values = np.concatenate([p.values, q.values])
    order = np.argsort(values, kind="stable")  # two sorted runs: a single merge
    values = values[order]
    new = np.empty(values.size, dtype=bool)
    new[0] = False
    np.not_equal(values[1:], values[:-1], out=new[1:])
    positions = np.empty(values.size, dtype=np.int32)
    positions[order] = np.cumsum(new, dtype=np.int32)
    new[0] = True
    return values[new], positions[: p.n], positions[p.n :]


def _esjs_of_positions(
    x: np.ndarray, p_pos: np.ndarray, q_pos: np.ndarray, bins: int | None, ws: _Workspace
) -> float:
    """``gof._esjs_between`` of the samples ``x[p_pos]`` and ``x[q_pos]``, bit for bit.

    ``x`` holds distinct increasing values, so counting the positions orders
    the samples: the occupied values are the kernel's grid (or, binned, they
    snap to it), and one running count gives both survivals on it.  No sort
    and no survival is built, which is what makes a bootstrap replicate cheap.
    Each array as long as ``x`` or the grid is one of ``ws``'s, where the
    kernel finds its chunk buffers too.
    """
    # One packed count per pooled value: p's draws in the low 32 bits, q's in
    # the high 32 bits (sizes stay below 2^31).  Memory is what limits a
    # replicate, so spent arrays take later stages: the counts' memory holds
    # the grid (binned: the levels; _snap_up's grid is new), and the kernel
    # unpacks the levels a chunk at a time into chunk-long buffers.
    counts = ws.array("counts", x.size, np.int64)
    counts.fill(0)
    np.add.at(counts, p_pos, 1)
    np.add.at(counts, q_pos, 1 << 32)
    occupied = np.flatnonzero(np.not_equal(counts, 0, out=ws.array("mask", x.size, bool)))
    # every index is in range: "clip" only spares the copy of out that "raise" makes
    levels = ws.array("levels", occupied.size, np.int64)
    np.take(counts, occupied, out=levels, mode="clip")
    np.cumsum(levels, out=levels)  # counts at or below each occupied value
    grid = np.take(x, occupied, out=counts.view(np.float64)[: occupied.size], mode="clip")
    del occupied
    if bins is not None and grid.size > 1:
        # the replicate's own range, as gof._esjs_between takes it
        grid, ends = _snap_up(grid, grid[0], grid[-1], bins)
        levels = np.take(levels, ends, out=counts[: ends.size], mode="clip")
    n_p, n_q = p_pos.size, q_pos.size

    def fill(lo, hi, pv, qv):
        # p's counts are the low halves of the levels, q's the high ones; a
        # chunk of levels is spent once both are read
        chunk = levels[lo:hi]
        low = np.bitwise_and(chunk, 0xFFFFFFFF, out=qv.view(np.int64))
        np.divide(np.subtract(n_p, low, out=low), n_p, out=pv)
        chunk >>= 32
        np.divide(np.subtract(n_q, chunk, out=chunk), n_q, out=qv)

    return _step_sum(grid, fill, ws)


def _resampled_esjs(p: SortedSample, q: SortedSample, bins: int | None):
    """The bootstrap statistic of the divergence of ``p`` and ``q``, and what it
    resamples: the positions of their observations among the pooled values.
    Each thread that runs the statistic keeps its arrays in one workspace."""
    pooled, p_pos, q_pos = _pool(p, q)
    ws = _Workspace()
    return (lambda a, b: _esjs_of_positions(pooled, a, b, bins, ws)), (p_pos, q_pos)


@dataclass(frozen=True)
class EsjsFactor:
    """Odds-ratio style comparison of two divergence scores.

    ``ratio = numerator_esjs / denominator_esjs``; reporting convention puts
    the larger (worse-fitting) score in the numerator so factors are >= 1.
    """

    ratio: float
    numerator_esjs: float
    denominator_esjs: float

    def __post_init__(self):
        if self.numerator_esjs < 0 or self.denominator_esjs < 0:
            raise ValueError("divergence scores must be nonnegative")

