"""Goodness-of-fit pipeline: score fitted models, run simulated experiments,
the sample-size scaling study, and the power-law fit.

The score of a fitted model against data is the divergence between the
empirical survival of a sample drawn from the model and the empirical
survival of the data; smaller is better and 0 means indistinguishable.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace

import numpy as np

from .bootstrap import BootstrapConfig, ConfidenceInterval, bootstrap_ci
from .distributions import ConvergenceError, Family, ParametricModel, fit_mle, sample_from
from .distributions import support_problem
from .divergence import EsjsFactor, _step_sum, esjs, esjs_factor
from .seeds import derive_seed
from .survival import SortedSample, _snap_up, empirical_survival, km_binned_survival

__all__ = [
    "FitReport",
    "ExperimentReport",
    "ScalingRow",
    "fit_report",
    "compare_families",
    "simulate_experiment",
    "scaling_experiment",
    "powerlaw_fit",
]


@dataclass(frozen=True)
class FitReport:
    """One fitted family: parameters, divergence score, and bootstrap CI."""

    family: Family
    params: tuple[float, ...]
    esjs: float
    ci: ConfidenceInterval
    n: int
    model_sample_size: int
    seed: int


@dataclass(frozen=True)
class ExperimentReport:
    """Scores for every hypothesis family against one data set."""

    given: ParametricModel | None
    rows: tuple[FitReport, ...]
    skipped: tuple[tuple[Family, str], ...]
    best: Family
    challenger: Family | None
    factor: EsjsFactor
    factor_note: str | None = None


@dataclass(frozen=True)
class ScalingRow:
    size: int
    params: tuple[float, ...]
    esjs: float


def _esjs_between(p: SortedSample, q: SortedSample, bins: int | None) -> float:
    """Divergence of two samples: raw, or binned on the grid spanning both."""
    lo = min(p.min, q.min)
    hi = max(p.max, q.max)
    if bins is None or not lo < hi:
        # unbinned, or all observations identical in both samples
        return esjs(empirical_survival(p), empirical_survival(q))
    return esjs(km_binned_survival(p, bins, (lo, hi)), km_binned_survival(q, bins, (lo, hi)))


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


class _Workspace(threading.local):
    """Arrays that bootstrap replicates reuse, one set per thread: arrays made
    for each replicate go back to the system when freed, and the next replicate
    faults their pages in again.  An array grows only when it is too short."""

    def array(self, name: str, size: int, dtype=np.float64) -> np.ndarray:
        arrays = vars(self)  # a threading.local keeps one such dict per thread
        if name not in arrays or arrays[name].size < size:
            arrays.pop(name, None)  # the old array goes before the new one is made
            arrays[name] = np.empty(size, dtype)
        return arrays[name][:size]


def _esjs_of_positions(
    x: np.ndarray, p_pos: np.ndarray, q_pos: np.ndarray, bins: int | None, ws: _Workspace
) -> float:
    """``_esjs_between`` of the samples ``x[p_pos]`` and ``x[q_pos]``, bit for bit.

    ``x`` holds distinct increasing values, so counting the positions orders
    the samples: the occupied values are the kernel's grid (or, binned, they
    snap to it), and one running count gives both survivals on it.  No sort
    and no survival is built, which is what makes a bootstrap replicate cheap.
    Each array as long as ``x`` or the grid is one of ``ws``'s.
    """
    # One packed count per pooled value: p's draws in the low 32 bits, q's in
    # the high 32 bits (sizes stay below 2^31).  Memory is what limits a
    # replicate, so spent arrays take later stages: the counts' memory holds
    # the grid (binned: the levels; _snap_up's grid is new), the levels' memory
    # the integrand, and the mask's the integrand's sign mask.
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
        # the replicate's own range, as _esjs_between takes it
        grid, ends = _snap_up(grid, grid[0], grid[-1], bins)
        levels = np.take(levels, ends, out=counts[: ends.size], mode="clip")
    n_p, n_q, size = p_pos.size, q_pos.size, grid.size
    pv, qv, t = ws.array("pv", size), ws.array("qv", size), ws.array("t", size)
    low = np.bitwise_and(levels, 0xFFFFFFFF, out=qv.view(np.int64))
    np.divide(np.subtract(n_p, low, out=low), n_p, out=pv)
    levels >>= 32
    np.divide(np.subtract(n_q, levels, out=levels), n_q, out=qv)
    return _step_sum(grid, pv, qv, levels.view(np.float64), t, ws.array("mask", size, bool))


def fit_report(
    data: SortedSample,
    family: Family,
    config: BootstrapConfig,
    model_sample_size: int | None = None,
    bins: int | None = None,
    workers: int = 1,
) -> FitReport:
    """Fit one family, score it, and attach a bootstrap confidence interval.

    The model-sampling seed and the bootstrap seed are both derived from
    ``config.seed`` and the family name, so per-family results are
    reproducible in isolation.
    """
    model = fit_mle(family, data)
    size = data.n if model_sample_size is None else model_sample_size
    model_seed = derive_seed(config.seed, "model", family.value)
    model_sample = sample_from(model, size, model_seed)
    score = _esjs_between(model_sample, data, bins)
    ci_config = replace(config, seed=derive_seed(config.seed, "bootstrap", family.value))
    # the replicates resample positions in the pooled values, not the values
    pooled, model_pos, data_pos = _pool(model_sample, data)
    ws = _Workspace()
    ci = bootstrap_ci(
        lambda m, d: _esjs_of_positions(pooled, m, d, bins, ws),
        (model_pos, data_pos),
        ci_config,
        workers=workers,
        point=score,
    )
    return FitReport(
        family=family,
        params=model.params,
        esjs=score,
        ci=ci,
        n=data.n,
        model_sample_size=size,
        seed=model_seed,
    )


def compare_families(
    data: SortedSample,
    families,
    config: BootstrapConfig,
    model_sample_size: int | None = None,
    bins: int | None = None,
    exclude_from_factor=(),
    workers: int = 1,
) -> ExperimentReport:
    """Score every support-compatible family and rank by divergence.

    Support-incompatible families and families whose fit does not converge
    are reported as skipped with a reason; if no family is left after a fit
    failed, the first ``ConvergenceError`` is raised.  The factor compares the
    designated challenger (by default the second best, optionally restricted
    by ``exclude_from_factor``) to the best; when the best scores 0 there is
    no challenger and the factor is 1.  A family given twice raises ``ValueError``.
    """
    families = list(families)
    if not families:
        raise ValueError("no hypothesis families given")
    if twice := [f.value for i, f in enumerate(families) if f in families[:i]]:
        raise ValueError(f"family {twice[0]} is given twice")
    excluded = set(exclude_from_factor)
    rows: list[FitReport] = []
    skipped: list[tuple[Family, str]] = []
    failures: list[ConvergenceError] = []
    for family in families:
        reason = support_problem(family, data)
        if reason is not None:
            skipped.append((family, reason))
            continue
        try:
            rows.append(fit_report(data, family, config, model_sample_size, bins, workers=workers))
        except ConvergenceError as exc:
            skipped.append((family, str(exc)))
            failures.append(exc)
    if not rows and failures:
        raise failures[0]
    if not rows:
        detail = "; ".join(f"{fam.value} {why}" for fam, why in skipped)
        raise ValueError(f"all hypotheses skipped: {detail}")
    best = min(rows, key=lambda r: r.esjs)
    candidates = [r for r in rows if r is not best and r.family not in excluded]
    if not candidates or best.esjs == 0:
        if candidates:
            note = "champion score is 0"  # no finite factor against it
        else:
            note = "single hypothesis" if len(rows) == 1 else "no eligible challenger"
        factor = EsjsFactor(1.0, best.esjs, best.esjs)
        challenger = None
    else:
        chall = min(candidates, key=lambda r: r.esjs)
        factor = esjs_factor(chall.esjs, best.esjs)
        challenger = chall.family
        note = None
    return ExperimentReport(
        given=None,
        rows=tuple(rows),
        skipped=tuple(skipped),
        best=best.family,
        challenger=challenger,
        factor=factor,
        factor_note=note,
    )


def simulate_experiment(
    given: ParametricModel,
    hypotheses,
    n: int,
    config: BootstrapConfig,
    model_sample_size: int | None = None,
    bins: int | None = None,
    exclude_from_factor=(),
    workers: int = 1,
) -> ExperimentReport:
    """Generate data from ``given`` and rank the hypothesis families on it.

    Steps: draw a size-``n`` data set from the given model, fit each
    hypothesis by maximum likelihood, draw a sample from each fitted model,
    score it against the data, and attach bootstrap intervals.  Fully
    deterministic given ``config``.
    """
    if n < 2:
        raise ValueError("simulated experiments need n >= 2")
    data = sample_from(given, n, derive_seed(config.seed, "data"))
    report = compare_families(
        data,
        hypotheses,
        config,
        model_sample_size=n if model_sample_size is None else model_sample_size,
        bins=bins,
        exclude_from_factor=exclude_from_factor,
        workers=workers,
    )
    return replace(report, given=given)


def scaling_experiment(given: ParametricModel, sizes, seed: int) -> list[ScalingRow]:
    """Self-fit divergence at increasing sample sizes.

    For each size: generate data from ``given``, refit the same family,
    sample the fitted model, and record the divergence.
    """
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ValueError("sizes must be nonempty")
    rows = []
    for size in sizes:
        if size < 2:
            raise ValueError("each size must be >= 2")
        data = sample_from(given, size, derive_seed(seed, "data", size))
        model = fit_mle(given.family, data)
        model_sample = sample_from(model, size, derive_seed(seed, "model", size))
        score = _esjs_between(model_sample, data, None)
        rows.append(ScalingRow(size=size, params=model.params, esjs=score))
    return rows


def powerlaw_fit(xs, ys) -> tuple[float, float]:
    """Least-squares power law y = amplitude * x**exponent in log-log space."""
    xs = np.asarray(xs, dtype=np.float64).ravel()
    ys = np.asarray(ys, dtype=np.float64).ravel()
    if xs.size != ys.size:
        raise ValueError("xs and ys must have equal length")
    if xs.size < 2:
        raise ValueError("power-law fit needs at least two points")
    if np.any(xs <= 0) or np.any(ys <= 0) or not (
        np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))
    ):
        raise ValueError("power-law fit requires positive finite values")
    lx = np.log(xs)
    if np.all(lx == lx[0]):
        raise ValueError("power-law fit needs at least two distinct x values")
    slope, intercept = np.polyfit(lx, np.log(ys), 1)
    return math.exp(float(intercept)), float(slope)
