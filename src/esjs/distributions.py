"""The nine parametric families: density, survival, sampling, likelihood, MLE.

Families and their parameter order (matching the reporting convention):

    normal       (mean, sd)
    uniform      (lower, upper)
    lognormal    (log_mean, log_sd)
    gamma        (shape, scale)
    weibull      (shape, scale)
    beta         (alpha, beta)
    qgaussian    (tail, width)       heavy-tailed bell curve, tail > 1
    exponential  (scale,)
    pareto       (shape,)            support x >= 1

The qgaussian density is

    f(x) = Gamma(t/2) / (sqrt(pi) w Gamma((t-1)/2)) * (1 + (x/w)^2)^(-t/2)

with tail exponent t > 1 and width w > 0; it is a rescaled Student-t with
t - 1 degrees of freedom, centred at zero.

Closed-form maximum likelihood is used where available (normal, uniform,
lognormal, exponential, pareto); gamma, weibull, beta and qgaussian are
fitted by Newton iteration on the analytic score and are required to finish
with score norm <= 1e-6.  The norm is taken in the (shape, log-scale)
parameterisation: the scale component of the score (gamma and weibull
scale, qgaussian width) is multiplied by its parameter, so the check gives
the same verdict whatever the units of the data.  This check is the only
convergence verdict; the qgaussian fitter's own search stops on the
absolute score but does not judge convergence.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

from .survival import SortedSample

__all__ = [
    "Family",
    "ParametricModel",
    "SupportError",
    "ConvergenceError",
    "density",
    "survival_of",
    "sample_from",
    "log_likelihood",
    "log_likelihood_gradient",
    "fit_mle",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_MAX_ITER = 200
_SCORE_TOL = 1e-6


class SupportError(ValueError):
    """Data lies outside the support required by a family."""


class ConvergenceError(RuntimeError):
    """Iterative likelihood maximisation failed to converge."""


class Family(enum.Enum):
    NORMAL = "normal"
    UNIFORM = "uniform"
    LOG_NORMAL = "lognormal"
    GAMMA = "gamma"
    WEIBULL = "weibull"
    BETA = "beta"
    Q_GAUSSIAN = "qgaussian"
    EXPONENTIAL = "exponential"
    PARETO = "pareto"

    @property
    def param_count(self) -> int:
        return 1 if self in (Family.EXPONENTIAL, Family.PARETO) else 2

    @property
    def param_names(self) -> tuple[str, ...]:
        return _PARAM_NAMES[self]

    @classmethod
    def parse(cls, name: str) -> "Family":
        key = name.strip().lower()
        key = _FAMILY_ALIASES.get(key, key)
        for fam in cls:
            if fam.value == key:
                return fam
        known = ", ".join(f.value for f in cls)
        raise ValueError(f"unknown family {name!r}; expected one of: {known}")


_FAMILY_ALIASES = {"log-normal": "lognormal", "q-gaussian": "qgaussian"}

_PARAM_NAMES = {
    Family.NORMAL: ("mean", "sd"),
    Family.UNIFORM: ("lower", "upper"),
    Family.LOG_NORMAL: ("log_mean", "log_sd"),
    Family.GAMMA: ("shape", "scale"),
    Family.WEIBULL: ("shape", "scale"),
    Family.BETA: ("alpha", "beta"),
    Family.Q_GAUSSIAN: ("tail", "width"),
    Family.EXPONENTIAL: ("scale",),
    Family.PARETO: ("shape",),
}

_ITERATIVE = (Family.GAMMA, Family.WEIBULL, Family.BETA, Family.Q_GAUSSIAN)

# iterative families whose second parameter is a scale
_SCALED = (Family.GAMMA, Family.WEIBULL, Family.Q_GAUSSIAN)


@dataclass(frozen=True)
class ParametricModel:
    """A distribution family tag plus its parameter vector."""

    family: Family
    params: tuple[float, ...]

    def __post_init__(self):
        params = tuple(float(p) for p in np.atleast_1d(np.asarray(self.params)))
        object.__setattr__(self, "params", params)
        _validate_params(self.family, params)


def _validate_params(family: Family, params: tuple[float, ...]) -> None:
    if len(params) != family.param_count:
        raise ValueError(
            f"{family.value} takes {family.param_count} parameter(s), got {len(params)}"
        )
    if not all(math.isfinite(p) for p in params):
        raise ValueError(f"{family.value} parameters must be finite")
    if family is Family.NORMAL or family is Family.LOG_NORMAL:
        if params[1] <= 0:
            raise ValueError(f"{family.value} requires sd > 0")
    elif family is Family.UNIFORM:
        if not params[0] < params[1]:
            raise ValueError("uniform requires lower < upper")
    elif family in (Family.GAMMA, Family.WEIBULL):
        if params[0] <= 0 or params[1] <= 0:
            raise ValueError(f"{family.value} requires shape > 0 and scale > 0")
    elif family is Family.BETA:
        if params[0] <= 0 or params[1] <= 0:
            raise ValueError("beta requires alpha > 0 and beta > 0")
    elif family is Family.Q_GAUSSIAN:
        if params[0] <= 1:
            raise ValueError("qgaussian requires tail exponent > 1")
        if params[1] <= 0:
            raise ValueError("qgaussian requires width > 0")
    elif family is Family.EXPONENTIAL:
        if params[0] <= 0:
            raise ValueError("exponential requires scale > 0")
    elif family is Family.PARETO:
        if params[0] <= 0:
            raise ValueError("pareto requires shape > 0")


def _log_density_array(model: ParametricModel, x: np.ndarray) -> np.ndarray:
    fam = model.family
    if fam is Family.NORMAL:
        mu, sd = model.params
        z = (x - mu) / sd
        return -0.5 * z * z - math.log(sd) - _HALF_LOG_2PI
    if fam is Family.UNIFORM:
        lo, hi = model.params
        return np.where((x >= lo) & (x <= hi), -math.log(hi - lo), -np.inf)
    if fam is Family.LOG_NORMAL:
        mu, sd = model.params
        ok = x > 0
        xs = np.where(ok, x, 1.0)
        lx = np.log(xs)
        z = (lx - mu) / sd
        return np.where(ok, -lx - math.log(sd) - _HALF_LOG_2PI - 0.5 * z * z, -np.inf)
    if fam is Family.GAMMA:
        k, tau = model.params
        ok = x > 0
        xs = np.where(ok, x, 1.0)
        val = (
            (k - 1.0) * np.log(xs)
            - xs / tau
            - special.gammaln(k)
            - k * math.log(tau)
        )
        return np.where(ok, val, -np.inf)
    if fam is Family.WEIBULL:
        k, tau = model.params
        ok = x > 0
        xs = np.where(ok, x, 1.0)
        val = (
            math.log(k)
            + (k - 1.0) * np.log(xs)
            - k * math.log(tau)
            - (xs / tau) ** k
        )
        return np.where(ok, val, -np.inf)
    if fam is Family.BETA:
        a, b = model.params
        ok = (x > 0) & (x < 1)
        xs = np.where(ok, x, 0.5)
        norm = special.gammaln(a + b) - special.gammaln(a) - special.gammaln(b)
        val = (a - 1.0) * np.log(xs) + (b - 1.0) * np.log1p(-xs) + norm
        return np.where(ok, val, -np.inf)
    if fam is Family.Q_GAUSSIAN:
        t, w = model.params
        norm = (
            special.gammaln(0.5 * t)
            - special.gammaln(0.5 * (t - 1.0))
            - 0.5 * math.log(math.pi)
            - math.log(w)
        )
        return norm - 0.5 * t * np.log1p((x / w) ** 2)
    if fam is Family.EXPONENTIAL:
        (tau,) = model.params
        ok = x >= 0
        xs = np.where(ok, x, 0.0)
        return np.where(ok, -math.log(tau) - xs / tau, -np.inf)
    if fam is Family.PARETO:
        (alpha,) = model.params
        ok = x >= 1
        xs = np.where(ok, x, 1.0)
        return np.where(ok, math.log(alpha) - (alpha + 1.0) * np.log(xs), -np.inf)
    raise AssertionError(f"unhandled family {fam}")


def density(model: ParametricModel, x):
    """Probability density at scalar or array ``x`` (0 outside the support)."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.exp(_log_density_array(model, arr))
    return float(out) if arr.ndim == 0 else out


def survival_of(model: ParametricModel, x):
    """Model survival function 1 - CDF at scalar or array ``x``."""
    arr = np.asarray(x, dtype=np.float64)
    fam = model.family
    if fam is Family.NORMAL:
        mu, sd = model.params
        out = special.ndtr((mu - arr) / sd)
    elif fam is Family.UNIFORM:
        lo, hi = model.params
        out = np.clip((hi - arr) / (hi - lo), 0.0, 1.0)
    elif fam is Family.LOG_NORMAL:
        mu, sd = model.params
        pos = arr > 0
        xs = np.where(pos, arr, 1.0)
        out = np.where(pos, special.ndtr((mu - np.log(xs)) / sd), 1.0)
    elif fam is Family.GAMMA:
        k, tau = model.params
        pos = arr > 0
        xs = np.where(pos, arr, 0.0)
        out = np.where(pos, special.gammaincc(k, xs / tau), 1.0)
    elif fam is Family.WEIBULL:
        k, tau = model.params
        pos = arr > 0
        xs = np.where(pos, arr, 0.0)
        out = np.where(pos, np.exp(-((xs / tau) ** k)), 1.0)
    elif fam is Family.BETA:
        a, b = model.params
        inside = np.clip(arr, 0.0, 1.0)
        out = 1.0 - special.betainc(a, b, inside)
    elif fam is Family.Q_GAUSSIAN:
        t, w = model.params
        df = t - 1.0
        out = special.stdtr(df, -arr * math.sqrt(df) / w)
    elif fam is Family.EXPONENTIAL:
        (tau,) = model.params
        pos = arr >= 0
        xs = np.where(pos, arr, 0.0)
        out = np.where(pos, np.exp(-xs / tau), 1.0)
    elif fam is Family.PARETO:
        (alpha,) = model.params
        above = arr > 1
        xs = np.where(above, arr, 1.0)
        out = np.where(above, xs ** (-alpha), 1.0)
    else:
        raise AssertionError(f"unhandled family {fam}")
    return float(out) if arr.ndim == 0 else out


def sample_from(model: ParametricModel, n: int, seed: int) -> SortedSample:
    """Draw ``n`` independent observations; deterministic given ``seed``.

    Raises ``OverflowError`` when a draw does not fit in float64.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    rng = np.random.default_rng(int(seed))
    fam = model.family
    if fam is Family.NORMAL:
        draws = rng.normal(model.params[0], model.params[1], n)
    elif fam is Family.UNIFORM:
        draws = rng.uniform(model.params[0], model.params[1], n)
    elif fam is Family.LOG_NORMAL:
        draws = rng.lognormal(model.params[0], model.params[1], n)
    elif fam is Family.GAMMA:
        draws = rng.gamma(model.params[0], model.params[1], n)
    elif fam is Family.WEIBULL:
        draws = model.params[1] * rng.weibull(model.params[0], n)
    elif fam is Family.BETA:
        draws = rng.beta(model.params[0], model.params[1], n)
    elif fam is Family.Q_GAUSSIAN:
        t, w = model.params
        df = t - 1.0
        draws = rng.standard_t(df, n) * (w / math.sqrt(df))
    elif fam is Family.EXPONENTIAL:
        draws = rng.exponential(model.params[0], n)
    elif fam is Family.PARETO:
        draws = rng.pareto(model.params[0], n) + 1.0
    else:
        raise AssertionError(f"unhandled family {fam}")
    draws = np.sort(draws)
    if not (math.isfinite(draws[0]) and math.isfinite(draws[-1])):
        raise OverflowError(f"{fam.value} draws overflow float64 at parameters {model.params}")
    return SortedSample(draws)


def log_likelihood(model: ParametricModel, sample: SortedSample) -> float:
    """Sum of log densities; -inf if any observation is outside the support."""
    return float(np.sum(_log_density_array(model, sample.values)))


def log_likelihood_gradient(model: ParametricModel, sample: SortedSample) -> np.ndarray:
    """Analytic gradient of the log-likelihood in the model's parameters.

    Not defined for the uniform family, whose maximum sits on the boundary
    of the admissible region.
    """
    x = sample.values
    n = x.size
    fam = model.family
    if fam is Family.NORMAL:
        mu, sd = model.params
        d = x - mu
        return np.array(
            [float(d.sum()) / sd**2, -n / sd + float((d * d).sum()) / sd**3]
        )
    if fam is Family.LOG_NORMAL:
        mu, sd = model.params
        d = np.log(x) - mu
        return np.array(
            [float(d.sum()) / sd**2, -n / sd + float((d * d).sum()) / sd**3]
        )
    if fam is Family.GAMMA:
        k, tau = model.params
        g_k = float(np.log(x).sum()) - n * float(special.digamma(k)) - n * math.log(tau)
        g_tau = (float(x.sum()) / tau - n * k) / tau
        return np.array([g_k, g_tau])
    if fam is Family.WEIBULL:
        k, tau = model.params
        z = x / tau
        zk = z**k
        lz = np.log(z)
        g_k = n / k + float(np.log(x).sum()) - n * math.log(tau) - float((zk * lz).sum())
        g_tau = (k / tau) * (float(zk.sum()) - n)
        return np.array([g_k, g_tau])
    if fam is Family.BETA:
        a, b = model.params
        psi_ab = float(special.digamma(a + b))
        g_a = float(np.log(x).sum()) - n * (float(special.digamma(a)) - psi_ab)
        g_b = float(np.log1p(-x).sum()) - n * (float(special.digamma(b)) - psi_ab)
        return np.array([g_a, g_b])
    if fam is Family.Q_GAUSSIAN:
        t, w = model.params
        g, _ = _qgaussian_score_hessian(x, t, w)
        return g
    if fam is Family.EXPONENTIAL:
        (tau,) = model.params
        return np.array([-n / tau + float(x.sum()) / tau**2])
    if fam is Family.PARETO:
        (alpha,) = model.params
        return np.array([n / alpha - float(np.log(x).sum())])
    raise ValueError(f"gradient not defined for family {fam.value}")


def fit_mle(family: Family, sample: SortedSample) -> ParametricModel:
    """Maximum-likelihood fit of ``family`` to ``sample``.

    Raises :class:`SupportError` when the data violate the family's support
    and :class:`ConvergenceError` when an iterative fit fails to reach score
    norm <= 1e-6 in the (shape, log-scale) parameterisation, that is with
    the scale component of the score multiplied by the scale parameter.
    In that parameterisation the score is unchanged when the data are
    multiplied by a constant, so the check does not depend on their units.
    """
    if sample.n < 2:
        raise ValueError("maximum-likelihood fitting requires n >= 2")
    x = sample.values
    fitter = _FITTERS[family]
    model = ParametricModel(family, fitter(x))
    if family in _ITERATIVE:
        score = log_likelihood_gradient(model, sample)
        if family in _SCALED:
            score[1] *= model.params[1]
        norm = float(np.linalg.norm(score))
        if not norm <= _SCORE_TOL:
            raise ConvergenceError(
                f"{family.value} fit: score norm {norm:.3g} exceeds {_SCORE_TOL:g} "
                f"at parameters {model.params}"
            )
    return model


def _fit_normal(x: np.ndarray) -> tuple[float, float]:
    mu = float(x.mean())
    sd = float(np.sqrt(np.mean((x - mu) ** 2)))
    if sd == 0:
        raise ValueError("normal fit requires a non-constant sample")
    return mu, sd


def _fit_uniform(x: np.ndarray) -> tuple[float, float]:
    lo, hi = float(x[0]), float(x[-1])
    if not lo < hi:
        raise ValueError("uniform fit requires a non-constant sample")
    return lo, hi


def _fit_lognormal(x: np.ndarray) -> tuple[float, float]:
    if x[0] <= 0:
        raise SupportError("lognormal requires strictly positive observations")
    lx = np.log(x)
    mu = float(lx.mean())
    sd = float(np.sqrt(np.mean((lx - mu) ** 2)))
    if sd == 0:
        raise ValueError("lognormal fit requires a non-constant sample")
    return mu, sd


def _fit_exponential(x: np.ndarray) -> tuple[float]:
    if x[0] < 0:
        raise SupportError("exponential requires non-negative observations")
    tau = float(x.mean())
    if tau <= 0:
        raise ValueError("exponential fit requires a positive sample mean")
    return (tau,)


def _fit_pareto(x: np.ndarray) -> tuple[float]:
    if x[0] < 1:
        raise SupportError("pareto requires observations >= 1")
    slog = float(np.log(x).sum())
    if slog <= 0:
        raise ValueError("pareto fit requires observations above the lower bound 1")
    return (x.size / slog,)


def _fit_gamma(x: np.ndarray) -> tuple[float, float]:
    if x[0] <= 0:
        raise SupportError("gamma requires strictly positive observations")
    mean = float(x.mean())
    s = math.log(mean) - float(np.log(x).mean())
    if not s > 0:
        raise ValueError("gamma fit requires a non-constant sample")
    # log-moment initialisation, then Newton on log k - digamma(k) = s
    k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    for _ in range(_MAX_ITER):
        f = math.log(k) - float(special.digamma(k)) - s
        if abs(f) <= 1e-13:
            break
        fp = 1.0 / k - float(special.polygamma(1, k))
        step = f / fp
        k_next = k - step
        while k_next <= 0:
            step *= 0.5
            k_next = k - step
        if abs(k_next - k) <= 1e-15 * max(1.0, abs(k)):
            k = k_next
            break
        k = k_next
    else:
        raise ConvergenceError(f"gamma shape iteration did not converge (shape={k:.6g})")
    return k, mean / k


def _fit_weibull(x: np.ndarray) -> tuple[float, float]:
    if x[0] <= 0:
        raise SupportError("weibull requires strictly positive observations")
    lx = np.log(x)
    sd_lx = float(lx.std())
    if sd_lx == 0:
        raise ValueError("weibull fit requires a non-constant sample")
    # log-variance moment initialisation; shape equation solved on data
    # normalised by the sample maximum (the equation is scale-free).
    k = math.pi / (math.sqrt(6.0) * sd_lx)
    top = float(x[-1])
    y = x / top
    ly = np.log(y)
    mean_ly = float(ly.mean())
    for _ in range(_MAX_ITER):
        w = y**k
        sw = float(w.sum())
        swl = float((w * ly).sum())
        f = swl / sw - 1.0 / k - mean_ly
        if abs(f) <= 1e-13:
            break
        swll = float((w * ly * ly).sum())
        fp = (swll * sw - swl * swl) / (sw * sw) + 1.0 / (k * k)
        step = f / fp
        k_next = k - step
        while k_next <= 0:
            step *= 0.5
            k_next = k - step
        if abs(k_next - k) <= 1e-15 * max(1.0, abs(k)):
            k = k_next
            break
        k = k_next
    else:
        raise ConvergenceError(f"weibull shape iteration did not converge (shape={k:.6g})")
    tau = top * float(np.mean(y**k)) ** (1.0 / k)
    return k, tau


def _fit_beta(x: np.ndarray) -> tuple[float, float]:
    if x[0] <= 0 or x[-1] >= 1:
        raise SupportError("beta requires observations strictly inside (0, 1)")
    m = float(x.mean())
    v = float(x.var())
    if v == 0:
        raise ValueError("beta fit requires a non-constant sample")
    concentration = max(m * (1.0 - m) / v - 1.0, 1e-3)
    a = max(m * concentration, 1e-3)
    b = max((1.0 - m) * concentration, 1e-3)
    g1 = float(np.log(x).mean())
    g2 = float(np.log1p(-x).mean())
    for _ in range(_MAX_ITER):
        psi_ab = float(special.digamma(a + b))
        r1 = g1 - (float(special.digamma(a)) - psi_ab)
        r2 = g2 - (float(special.digamma(b)) - psi_ab)
        if max(abs(r1), abs(r2)) <= 1e-13:
            break
        t_ab = float(special.polygamma(1, a + b))
        j11 = t_ab - float(special.polygamma(1, a))
        j22 = t_ab - float(special.polygamma(1, b))
        det = j11 * j22 - t_ab * t_ab
        if det == 0:
            raise ConvergenceError("beta fit: singular Newton system")
        da = -(j22 * r1 - t_ab * r2) / det
        db = -(j11 * r2 - t_ab * r1) / det
        while a + da <= 0 or b + db <= 0:
            da *= 0.5
            db *= 0.5
        if max(abs(da), abs(db)) <= 1e-15 * max(1.0, a, b):
            a, b = a + da, b + db
            break
        a, b = a + da, b + db
    else:
        raise ConvergenceError(
            f"beta fit did not converge (alpha={a:.6g}, beta={b:.6g})"
        )
    return a, b


def _qgaussian_sums(x: np.ndarray, w: float) -> tuple[float, float, float]:
    # sums of log1p((x/w)^2), r = x^2/(w^2+x^2), and r(3-2r); overflow-safe
    with np.errstate(over="ignore", invalid="ignore"):
        z2 = (x / w) ** 2
        u = np.log1p(z2)
        r = np.where(np.isfinite(z2), z2 / (1.0 + z2), 1.0)
    overflowed = ~np.isfinite(u)
    if np.any(overflowed):
        safe = np.where(overflowed, np.abs(x), 1.0)
        u = np.where(overflowed, 2.0 * (np.log(safe) - math.log(w)), u)
    return float(u.sum()), float(r.sum()), float((r * (3.0 - 2.0 * r)).sum())


def _qgaussian_score_hessian(
    x: np.ndarray, t: float, w: float
) -> tuple[np.ndarray, np.ndarray]:
    n = x.size
    su, sr, sr3 = _qgaussian_sums(x, w)
    psi_gap = float(special.digamma(0.5 * t) - special.digamma(0.5 * (t - 1.0)))
    tri_gap = float(special.polygamma(1, 0.5 * t) - special.polygamma(1, 0.5 * (t - 1.0)))
    g = np.array([0.5 * n * psi_gap - 0.5 * su, (t * sr - n) / w])
    h = np.array(
        [
            [0.25 * n * tri_gap, sr / w],
            [sr / w, (n - t * sr3) / (w * w)],
        ]
    )
    return g, h


def _qgaussian_loglik(x: np.ndarray, t: float, w: float) -> float:
    norm = (
        special.gammaln(0.5 * t)
        - special.gammaln(0.5 * (t - 1.0))
        - 0.5 * math.log(math.pi)
        - math.log(w)
    )
    su, _, _ = _qgaussian_sums(x, w)
    return float(x.size * norm - 0.5 * t * su)


def _qgaussian_starts(x: np.ndarray) -> list[tuple[float, float]]:
    starts = []
    m2 = float(np.mean(x * x))
    m4 = float(np.mean(x**4))
    if m2 * m2 == 0.0:
        # the moments underflow (say [0, 0, 0, 1e-300]); every start is
        # scale-equivariant, so take them on the data rescaled to max |x| = 1
        scale = float(np.max(np.abs(x)))
        return [(t, w * scale) for t, w in _qgaussian_starts(x / scale)]
    kurt = m4 / (m2 * m2)
    if kurt > 3.0 + 1e-9:
        t0 = min(max((5.0 * kurt - 9.0) / (kurt - 3.0), 1.5), 1000.0)
    else:
        t0 = 50.0
    if t0 > 3.0:
        starts.append((t0, math.sqrt(m2 * (t0 - 3.0))))
    # robust width from the median absolute value: |x| has median
    # w * q75(t-1) / sqrt(t-1) under the rescaled Student-t
    abs_med = float(np.median(np.abs(x)))
    if abs_med == 0.0:
        abs_med = float(np.mean(np.abs(x)))
    for t_try in (2.2, 3.0, 5.0, 9.0, 21.0, 101.0):
        df = t_try - 1.0
        q75 = float(special.stdtrit(df, 0.75))
        starts.append((t_try, abs_med * math.sqrt(df) / q75))
    return starts


def _fit_qgaussian(x: np.ndarray) -> tuple[float, float]:
    if np.all(x == x[0]):
        raise ValueError("qgaussian fit requires a non-constant sample")

    def quasi_newton(t0: float, w0: float) -> tuple[float, float]:
        # log parameters keep positivity without bounds or overflow
        def neg_ll(p):
            return -_qgaussian_loglik(x, 1.0 + math.exp(p[0]), math.exp(p[1]))

        def neg_grad(p):
            t_cur, w_cur = 1.0 + math.exp(p[0]), math.exp(p[1])
            g, _ = _qgaussian_score_hessian(x, t_cur, w_cur)
            return np.array([-g[0] * (t_cur - 1.0), -g[1] * w_cur])

        res = optimize.minimize(
            neg_ll,
            x0=np.array([math.log(t0 - 1.0), math.log(w0)]),
            jac=neg_grad,
            method="L-BFGS-B",
            options={"maxiter": 300, "ftol": 1e-16, "gtol": 1e-12},
        )
        return 1.0 + math.exp(float(res.x[0])), math.exp(float(res.x[1]))

    def polish(t0: float, w0: float) -> tuple[float, float, float, float]:
        t_cur, w_cur = t0, w0
        ll = _qgaussian_loglik(x, t_cur, w_cur)
        for _ in range(60):
            g, h = _qgaussian_score_hessian(x, t_cur, w_cur)
            if float(np.max(np.abs(g))) <= 1e-9:
                break
            det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
            if det == 0:
                break
            dt = -(h[1, 1] * g[0] - h[0, 1] * g[1]) / det
            dw = -(h[0, 0] * g[1] - h[1, 0] * g[0]) / det
            improved = False
            for _ in range(30):
                t_new, w_new = t_cur + dt, w_cur + dw
                if t_new > 1.0 + 1e-9 and w_new > 0:
                    ll_new = _qgaussian_loglik(x, t_new, w_new)
                    if ll_new >= ll - 1e-12 * max(1.0, abs(ll)):
                        t_cur, w_cur, ll = t_new, w_new, ll_new
                        improved = True
                        break
                dt *= 0.5
                dw *= 0.5
            if not improved:
                break
        g, _ = _qgaussian_score_hessian(x, t_cur, w_cur)
        return t_cur, w_cur, ll, float(np.linalg.norm(g))

    starts = sorted(
        _qgaussian_starts(x),
        key=lambda s: -_qgaussian_loglik(x, s[0], s[1]),
    )
    best = None
    try:
        for t0, w0 in starts[:3]:
            candidate = polish(*quasi_newton(t0, w0))
            if best is None or candidate[2] > best[2]:
                best = candidate
            if best[3] <= _SCORE_TOL and best is candidate:
                break
    except (ArithmeticError, ValueError) as exc:
        # the width ran to 0 (math.log(0), or w * w underflowing): with
        # repeated values at 0 the likelihood grows without bound there
        raise ConvergenceError(f"qgaussian fit: the width search ran to 0 ({exc})") from exc
    return best[0], best[1]


_FITTERS = {
    Family.NORMAL: _fit_normal,
    Family.UNIFORM: _fit_uniform,
    Family.LOG_NORMAL: _fit_lognormal,
    Family.GAMMA: _fit_gamma,
    Family.WEIBULL: _fit_weibull,
    Family.BETA: _fit_beta,
    Family.Q_GAUSSIAN: _fit_qgaussian,
    Family.EXPONENTIAL: _fit_exponential,
    Family.PARETO: _fit_pareto,
}
