import numpy as np
from hypothesis import HealthCheck, settings

from esjs import Family, ParametricModel, SortedSample, sample_from

# property tests draw the same examples on every run, keep no database, and
# apply no check that depends on how fast the machine is
settings.register_profile(
    "deterministic",
    derandomize=True,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")

# families with unbounded-ish support mix poorly with bounded ones for
# divergence tests, so keep a spread of shapes and scales
MODEL_POOL = [
    ParametricModel(Family.NORMAL, (0.0, 1.0)),
    ParametricModel(Family.NORMAL, (2.0, 0.5)),
    ParametricModel(Family.UNIFORM, (-1.0, 3.0)),
    ParametricModel(Family.LOG_NORMAL, (0.0, 0.6)),
    ParametricModel(Family.GAMMA, (2.0, 2.0)),
    ParametricModel(Family.WEIBULL, (1.5, 2.0)),
    ParametricModel(Family.BETA, (2.0, 3.0)),
    ParametricModel(Family.EXPONENTIAL, (1.5,)),
    ParametricModel(Family.PARETO, (2.5,)),
    ParametricModel(Family.Q_GAUSSIAN, (5.0, 1.0)),
]


def scipy_distribution(model: ParametricModel):
    """Independent oracle: ``model`` as a frozen ``scipy.stats`` distribution."""
    from scipy import stats

    return {
        Family.NORMAL: lambda mu, sd: stats.norm(mu, sd),
        Family.UNIFORM: lambda lo, hi: stats.uniform(lo, hi - lo),
        Family.LOG_NORMAL: lambda mu, sd: stats.lognorm(sd, scale=np.exp(mu)),
        Family.GAMMA: lambda k, tau: stats.gamma(k, scale=tau),
        Family.WEIBULL: lambda k, tau: stats.weibull_min(k, scale=tau),
        Family.BETA: lambda a, b: stats.beta(a, b),
        Family.Q_GAUSSIAN: lambda t, w: stats.t(t - 1.0, scale=w / np.sqrt(t - 1.0)),
        Family.EXPONENTIAL: lambda tau: stats.expon(scale=tau),
        Family.PARETO: lambda alpha: stats.pareto(alpha),
    }[model.family](*model.params)


def scipy_log_likelihood(model: ParametricModel, sample: SortedSample) -> float:
    """Independent oracle: the sum of ``scipy.stats`` log densities over ``sample``."""
    return float(np.sum(scipy_distribution(model).logpdf(sample.values)))


def random_model(rng: np.random.Generator) -> ParametricModel:
    return MODEL_POOL[int(rng.integers(len(MODEL_POOL)))]


def random_sample(rng: np.random.Generator, n_min=2, n_max=200, model=None) -> SortedSample:
    n = int(rng.integers(n_min, n_max + 1))
    model = model if model is not None else random_model(rng)
    return sample_from(model, n, int(rng.integers(2**31)))


def step_integral_of_neg_slogs(surv) -> float:
    """Independent oracle: exact piecewise integration of -S log S dx."""
    widths = np.diff(surv.breakpoints)
    vals = surv.values[:-1]
    mask = vals > 0
    return float(-np.sum(widths[mask] * vals[mask] * np.log(vals[mask])))


def _survival_entropy(values: np.ndarray) -> np.longdouble:
    # -integral S log S dx: S is 1 - i/n between order statistics i and i+1
    x = values.astype(np.longdouble)
    level = 1 - np.arange(1, x.size, dtype=np.longdouble) / x.size
    return -np.sum(np.diff(x) * level * np.log(level))


def esjs_spacings(p: SortedSample, q: SortedSample) -> float:
    """Independent oracle: the order-statistics (spacings) form of the divergence.

    Interleaving two samples of equal size gives the mixture sample, whose
    empirical survival is the half/half mixture of theirs, so the divergence
    of their empirical survivals is E(pooled) - E(p)/2 - E(q)/2 with E the
    entropy :func:`_survival_entropy`.  The three entropies cancel, so they
    are evaluated in ``np.longdouble`` (80-bit on x86-64): on a near-perfect
    fit (esjs about 7e-6) the float64 form is off by 3e-11 relative, the
    kernel it checks by 5e-13 and this form by 4e-15.
    """
    if p.n != q.n:
        raise ValueError("spacings form requires equal sizes; use esjs")
    if p.n < 2:
        raise ValueError("spacings form requires n >= 2")
    pooled = np.sort(np.concatenate([p.values, q.values]))
    e_pooled, e_p, e_q = (_survival_entropy(v) for v in (pooled, p.values, q.values))
    return float(e_pooled - e_p / 2 - e_q / 2)


def segment_esjs_oracle(p, q) -> float:
    """Independent oracle: segment-by-segment evaluation of the divergence."""
    grid = np.union1d(p.breakpoints, q.breakpoints)
    total = 0.0
    for left, right in zip(grid[:-1], grid[1:]):
        pv, qv = p(left), q(left)
        m = 0.5 * (pv + qv)
        term = 0.0
        if pv > 0:
            term += pv * np.log(pv / m)
        if qv > 0:
            term += qv * np.log(qv / m)
        total += (right - left) * 0.5 * term
    return total


def unique_counts_survival(sample):
    """Independent oracle: ``(breakpoints, values)`` of the empirical survival
    from the distinct values and their counts."""
    uniq, counts = np.unique(sample.values, return_counts=True)
    return uniq, (sample.n - np.cumsum(counts)) / sample.n


def full_grid_binned_survival(sample, bins, bounds=None):
    """Independent oracle: the survival at every right edge of the grid.

    Returns ``(edges, values)`` with ``values[k] = #{x > edges[k]} / n`` on
    all ``bins`` edges of ``np.linspace(lo, hi, bins + 1)[1:]``.
    """
    lo, hi = bounds if bounds is not None else (sample.min, sample.max)
    edges = np.linspace(lo, hi, bins + 1)[1:]
    above = sample.n - np.searchsorted(sample.values, edges, side="right")
    return edges, above / sample.n
