"""Bootstrap resampling and confidence intervals.

Replicate seeds are derived from the configuration seed by replicate index,
so the resulting interval is deterministic and independent of how replicate
evaluation is scheduled (including thread parallelism).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .seeds import derive_seed
from .survival import SortedSample

__all__ = [
    "BootstrapConfig",
    "ConfidenceInterval",
    "moving_block_resample",
    "percentile_of_replicates",
    "replicate_values",
    "bootstrap_ci",
]

_CI_METHODS = ("percentile", "basic")


@dataclass(frozen=True)
class BootstrapConfig:
    """Resampling plan: count, confidence level, block length (None: iid), and master seed."""

    resamples: int = 1000
    level: float = 0.95
    block_length: int | None = None
    seed: int = 0
    ci_method: str = "percentile"

    def __post_init__(self):
        if self.resamples < 1:
            raise ValueError("resamples must be >= 1")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie strictly between 0 and 1")
        if self.block_length is not None and self.block_length < 1:
            raise ValueError("block_length must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.ci_method not in _CI_METHODS:
            raise ValueError(f"ci_method must be one of {_CI_METHODS}")


@dataclass(frozen=True)
class ConfidenceInterval:
    lb: float
    ub: float
    level: float
    point: float

    def __post_init__(self):
        if self.lb > self.ub:
            raise ValueError("interval bounds out of order")


def _as_component(values) -> np.ndarray:
    # integer arrays (say, positions to index with) keep their dtype;
    # everything else is read as float64
    arr = np.asarray(values).ravel()
    return arr if arr.dtype.kind in "iu" else arr.astype(np.float64, copy=False)


def moving_block_resample(series, block_length: int, seed: int) -> np.ndarray:
    """Concatenate uniformly chosen contiguous blocks, truncated to length n.

    Block starts may overlap; within-block ordering is preserved.  With
    ``block_length == 1`` this is the iid bootstrap; with ``block_length == n``
    the only possible block is the whole series.
    Integer series keep their dtype; others are resampled as float64.
    """
    arr = _as_component(series)
    n = arr.size
    if n == 0:
        raise ValueError("empty series")
    if not 1 <= block_length <= n:
        raise ValueError(f"block_length must lie in [1, {n}], got {block_length}")
    rng = np.random.default_rng(int(seed))
    n_blocks, high = -(-n // block_length), n - block_length + 1
    # half the memory of int64 starts, and the same draws: a range that fits
    # in 32 bits is drawn by the same bounded 32-bit generator for either dtype
    dtype = np.int32 if high <= np.iinfo(np.int32).max else np.int64
    starts = rng.integers(0, high, n_blocks, dtype=dtype)
    if block_length == 1:
        # what the window gather below returns, without sliding_window_view's
        # fixed cost: 6.5 against 19 us at compare's 2,000 rows, and a tie at
        # 10^5 and 10^6; np.take gathers faster but first copies all of starts
        # to intp, 1.6 MB more at n = 2 x 10^5 (numpy 2.4)
        return arr[starts]
    return sliding_window_view(arr, block_length)[starts].ravel()[:n]


def percentile_of_replicates(replicates: np.ndarray, q: float) -> float:
    """Nearest-rank quantile: the ceil(q*B)-th smallest replicate."""
    reps = np.sort(np.asarray(replicates, dtype=np.float64).ravel())
    b = reps.size
    if b == 0:
        raise ValueError("no replicates")
    idx = max(1, min(b, math.ceil(q * b - 1e-9)))
    return float(reps[idx - 1])


def _components(data) -> tuple[np.ndarray, ...]:
    """The samples in ``data``: several only when it is a tuple."""
    out = []
    for part in data if isinstance(data, tuple) else (data,):
        arr = _as_component(part.values if isinstance(part, SortedSample) else part)
        if arr.size == 0:
            raise ValueError("empty data component")
        out.append(arr)
    return tuple(out)


def replicate_values(statistic, data, config: BootstrapConfig, workers: int = 1) -> np.ndarray:
    """Bootstrap replicates of ``statistic``, one per resample.

    ``data`` is one array-like (or SortedSample) or a tuple of them; each
    component is resampled independently per replicate with seed derived
    from ``(config.seed, replicate index, component index)``.  Integer
    components keep their dtype, so a statistic can take positions.

    At most ``workers`` threads evaluate the replicates, the calling thread
    among them: it starts ``workers - 1`` helpers, but no more than there are
    other replicates or other CPUs, and each thread takes the next replicate
    index until none is left.  Once the statistic raises, no thread takes
    another index, and the exception propagates from here.
    """
    comps = _components(data)
    block_length = config.block_length or 1

    def one(b: int) -> float:
        parts = [
            moving_block_resample(comp, block_length, derive_seed(config.seed, "replicate", b, j))
            for j, comp in enumerate(comps)
        ]
        return float(statistic(*parts))

    reps = np.empty(config.resamples)
    todo = iter(range(config.resamples))
    lock = threading.Lock()
    failures: list[BaseException] = []

    def take() -> int | None:
        with lock:
            return None if failures else next(todo, None)

    def work() -> None:
        try:
            for b in iter(take, None):
                reps[b] = one(b)
        except BaseException as exc:  # held for the caller, so no thread prints it
            with lock:
                failures.append(exc)

    # the caller's own memory, freed by what ran before, serves its replicates;
    # a new thread would allocate a working set of its own
    helpers = min(workers, config.resamples, os.cpu_count() or 1) - 1
    threads = [threading.Thread(target=work) for _ in range(helpers)]
    for thread in threads:
        thread.start()
    work()
    for thread in threads:
        thread.join()
    if failures:
        raise failures[0]
    return reps


def bootstrap_ci(
    statistic, data, config: BootstrapConfig, workers: int = 1, point: float | None = None
) -> ConfidenceInterval:
    """Bootstrap confidence interval for ``statistic`` on ``data``.

    Percentile method (default): interval endpoints are the nearest-rank
    quantiles of the replicate distribution at (1-level)/2 and (1+level)/2.
    Basic method: the percentile interval reflected about the point
    estimate, (2*point - hi, 2*point - lo).  ``point`` is the statistic on
    ``data`` when the caller has it already; by default it is computed here.
    """
    reps = replicate_values(statistic, data, config, workers=workers)
    point = float(statistic(*_components(data)) if point is None else point)
    lo_q = (1.0 - config.level) / 2.0
    hi_q = (1.0 + config.level) / 2.0
    lo = percentile_of_replicates(reps, lo_q)
    hi = percentile_of_replicates(reps, hi_q)
    if config.ci_method == "basic":
        lo, hi = 2.0 * point - hi, 2.0 * point - lo
    return ConfidenceInterval(lb=lo, ub=hi, level=config.level, point=point)
