"""Goodness-of-fit pipeline: score fitted models, run simulated experiments,
the sample-size scaling study, and the power-law fit.

The score of a fitted model against data is the divergence between the
empirical survival of a sample drawn from the model and the empirical
survival of the data; smaller is better and 0 means indistinguishable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .bootstrap import BootstrapConfig, ConfidenceInterval, bootstrap_ci
from .distributions import Family, ParametricModel, fit_mle, sample_from, support_problem
from .divergence import EsjsFactor, _resampled_esjs, esjs
from .seeds import derive_seed
from .survival import SortedSample, empirical_survival, km_binned_survival

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
    model_sample_size: int


@dataclass(frozen=True)
class ExperimentReport:
    """Scores for every hypothesis family against one data set."""

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
    statistic, positions = _resampled_esjs(model_sample, data, bins)
    ci = bootstrap_ci(statistic, positions, ci_config, workers=workers, point=score)
    return FitReport(
        family=family,
        params=model.params,
        esjs=score,
        ci=ci,
        model_sample_size=size,
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

    Support-incompatible families and families whose fit, model sample or
    score fails numerically (an ``ArithmeticError``, ``ConvergenceError``
    among them: no convergence, or a value past float64) are skipped with a
    reason; if no family is left after such a failure, the first is raised.
    Any other error, such as a fitter's data error, ends the comparison.  The
    factor compares the designated challenger (by default the second best,
    optionally restricted by ``exclude_from_factor``) to the best; when the
    best scores 0 there is no challenger and the factor is 1.  A family given
    twice raises ``ValueError``.
    """
    families = list(families)
    if not families:
        raise ValueError("no hypothesis families given")
    if twice := [f.value for i, f in enumerate(families) if f in families[:i]]:
        raise ValueError(f"family {twice[0]} is given twice")
    excluded = set(exclude_from_factor)
    rows: list[FitReport] = []
    skipped: list[tuple[Family, str]] = []
    failures: list[Exception] = []
    for family in families:
        reason = support_problem(family, data)
        if reason is not None:
            skipped.append((family, reason))
            continue
        try:
            rows.append(fit_report(data, family, config, model_sample_size, bins, workers=workers))
        except ArithmeticError as exc:
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
        factor = EsjsFactor(chall.esjs / best.esjs, chall.esjs, best.esjs)
        challenger = chall.family
        note = None
    return ExperimentReport(
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
    return compare_families(data, hypotheses, config, model_sample_size, bins,
                            exclude_from_factor=exclude_from_factor, workers=workers)


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
    if np.any(xs <= 0) or np.any(ys <= 0) or not (
        np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))
    ):
        raise ValueError("power-law fit requires positive finite values")
    lx = np.log(xs)
    if np.unique(lx).size < 2:
        raise ValueError("power-law fit needs at least two distinct x values")
    slope, intercept = np.polyfit(lx, np.log(ys), 1)
    return math.exp(float(intercept)), float(slope)
