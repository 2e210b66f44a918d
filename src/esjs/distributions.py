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

The table ``_FAMILIES`` at the end of this module holds one record per
family: its parameter names and checks, its support, log-density, survival,
sampler, score and fitter.  Every public function looks the family up there,
and the support is declared once: ``support_problem`` and ``fit_mle`` read it
for the data, ``density`` is 0 outside it, and ``survival_of`` is 1 below it
and 0 above it.

The qgaussian density is

    f(x) = Gamma(t/2) / (sqrt(pi) w Gamma((t-1)/2)) * (1 + (x/w)^2)^(-t/2)

with tail exponent t > 1 and width w > 0; it is a rescaled Student-t with
t - 1 degrees of freedom, centred at zero.

Closed-form maximum likelihood is used where available (normal, uniform,
lognormal, exponential, pareto); gamma, weibull, beta and qgaussian are
fitted by Newton iteration on the analytic score and must finish with score
norm <= 1e-6, the scale component (gamma and weibull scale, qgaussian width)
multiplied by its parameter; that check is the only convergence verdict.
Fits run in units of 2^e: data whose family's parameters carry their units
are divided by the power of two that puts max |x| in [0.5, 1) (exact unless
a value goes subnormal), fitted and checked there, and those parameters
multiplied back, so fits to data times 2^k are the same fits, bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    "fit_mle",
    "support_problem",
]

_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_10 = (2.302585092994046, -2.1707562233822494e-16)  # log(10) = hi + lo, to 2^-104
_MAX_ITER = 200
_SCORE_TOL = 1e-6


def _special():
    from scipy import special  # 0.3 s to import: only survival_of and the qgaussian fit need it
    return special


def _digamma(x: float) -> float:
    """psi(x), x > 0: psi(x + 1) - 1/x up to x >= 10, then the series to its x^-14 term.

    Cut at x^-10 the series is 2e-14 off near x = 1-3.  From 10 up this is scipy's sum,
    bit for bit; below, log(10) + log1p((x-10)/10) and the terms are summed exactly."""
    terms = []
    while x < 10.0:
        terms.append(-1.0 / x)
        x += 1.0
    z = 1.0 / (x * x)
    tail = z * ((((((1 / 12 * z - 691 / 32760) * z + 1 / 132) * z - 1 / 240) * z
                  + 1 / 252) * z - 1 / 120) * z + 1 / 12)
    if not terms:
        return math.log(x) - 0.5 / x - tail
    return math.fsum([*_LOG_10, math.log1p((x - 10.0) / 10.0), -0.5 / x, -tail, *terms])


def _trigamma(x: float) -> float:
    """psi'(x), x > 0: psi'(x + 1) + 1/x^2 up to x >= 10, then the series to x^-19."""
    terms = []
    while x < 10.0:
        terms.append(1.0 / (x * x))
        x += 1.0
    z = 1.0 / (x * x)
    tail = ((((((((43867 / 798 * z - 3617 / 510) * z + 7 / 6) * z - 691 / 2730) * z
                + 5 / 66) * z - 1 / 30) * z + 1 / 42) * z - 1 / 30) * z + 1 / 6) * z / x
    return math.fsum([1.0 / x, 0.5 * z, tail, *terms])


def _lgamma(x: float) -> float:
    """log Gamma(x), x > 0; inf where math.lgamma overflows (x above about 2.5e305)."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


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


@dataclass(frozen=True)
class _Spec:
    """Everything the module knows about one family.

    The formulas take the parameters unpacked after their first arguments:
    ``log_density(x, *params)`` and ``survival(x, *params)`` see only points
    inside the support, ``draw(rng, n, *params)`` returns ``n`` unsorted
    draws, ``score(x, *params)`` is the gradient of the log-likelihood of the
    sorted sample ``x`` and ``fit(x)`` its maximum-likelihood parameters.
    """

    names: tuple[str, ...]
    #: (holds(*params), what "<family> requires ..." names when it fails)
    rules: tuple[tuple[Callable[..., bool], str], ...]
    log_density: Callable[..., np.ndarray]
    survival: Callable[..., np.ndarray]
    draw: Callable[..., np.ndarray]
    score: Callable[..., np.ndarray] | None  # None: the maximum is on a boundary
    fit: Callable[[np.ndarray], tuple[float, ...]]
    #: support bounds; the upper one is always open
    support: tuple[float, float] = (-math.inf, math.inf)
    closed_below: bool = False
    #: what the skip reason says when data leave the support
    support_reason: str | None = None
    #: the fit must end with score norm <= _SCORE_TOL (scaled as below)
    iterative: bool = False
    #: parameters in the data's units: fitted in units of 2^e, score scaled by them
    units: tuple[int, ...] = ()

    def outside(self, x):
        """True where ``x`` lies outside the support."""
        lo, hi = self.support
        return ((x < lo) if self.closed_below else (x <= lo)) | (x >= hi)

    @property
    def interior(self) -> float:
        """A point inside the support, to stand in for the points outside it."""
        lo = self.support[0]
        return lo + 0.5 if math.isfinite(lo) else 0.0


@dataclass(frozen=True)
class ParametricModel:
    """A distribution family tag plus its parameter vector."""

    family: Family
    params: tuple[float, ...]

    def __post_init__(self):
        params = tuple(float(p) for p in np.atleast_1d(np.asarray(self.params)))
        object.__setattr__(self, "params", params)
        name, spec = self.family.value, _FAMILIES[self.family]
        if len(params) != len(spec.names):
            raise ValueError(f"{name} takes {len(spec.names)} parameter(s), got {len(params)}")
        if not all(math.isfinite(p) for p in params):
            raise ValueError(f"{name} parameters must be finite")
        for holds, requirement in spec.rules:
            if not holds(*params):
                raise ValueError(f"{name} requires {requirement}")


def _log_density_array(model: ParametricModel, x: np.ndarray) -> np.ndarray:
    spec = _FAMILIES[model.family]
    outside = spec.outside(x)
    inner = spec.log_density(np.where(outside, spec.interior, x), *model.params)
    return np.where(outside, -np.inf, inner)


def density(model: ParametricModel, x):
    """Probability density at scalar or array ``x`` (0 outside the support)."""
    arr = np.asarray(x, dtype=np.float64)
    out = np.exp(_log_density_array(model, arr))
    return float(out) if arr.ndim == 0 else out


def survival_of(model: ParametricModel, x):
    """Model survival function 1 - CDF at scalar or array ``x``."""
    arr = np.asarray(x, dtype=np.float64)
    spec = _FAMILIES[model.family]
    lo, hi = spec.support
    # every draw lies above a point at or below the lower bound
    below, above = arr <= lo, arr >= hi
    inner = spec.survival(np.where(below | above, spec.interior, arr), *model.params)
    out = np.where(below, 1.0, np.where(above, 0.0, inner))
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
    draws = np.sort(_FAMILIES[model.family].draw(rng, n, *model.params))
    if not (math.isfinite(draws[0]) and math.isfinite(draws[-1])):
        raise OverflowError(
            f"{model.family.value} draws overflow float64 at parameters {model.params}"
        )
    return SortedSample(draws)


def log_likelihood(model: ParametricModel, sample: SortedSample) -> float:
    """Sum of log densities; -inf if any observation is outside the support."""
    return float(np.sum(_log_density_array(model, sample.values)))


def support_problem(family: Family, sample: SortedSample) -> str | None:
    """Reason ``family`` cannot be fitted to ``sample``, or None if it can."""
    spec = _FAMILIES[family]
    if spec.outside(sample.min) or spec.outside(sample.max):
        return spec.support_reason
    return None


def fit_mle(family: Family, sample: SortedSample) -> ParametricModel:
    """Maximum-likelihood fit of ``family`` to ``sample``.

    Raises :class:`SupportError` when the data violate the family's support
    (the message is the family name and :func:`support_problem`'s reason)
    and :class:`ConvergenceError` when an iterative fit fails to reach score
    norm <= 1e-6, the scale component of the score multiplied by the scale.
    Fit and check run in units of 2^e: e puts max |x| in [0.5, 1) (where 0
    is outside the support, no further down than keeps min x normal), so
    neither depends on the data's units; messages quote the data's units.
    """
    reason = support_problem(family, sample)
    if reason is not None:
        raise SupportError(f"{family.value} {reason}")
    if sample.n < 2:
        raise ValueError("maximum-likelihood fitting requires n >= 2")
    spec = _FAMILIES[family]
    x, e = sample.values, 0
    if spec.units:
        e = math.frexp(max(-x[0], x[-1]))[1]
        if spec.outside(0.0):  # scale down no further than keeps min x normal, for its log
            e = min(e, max(math.frexp(x[0])[1] + 1021, 0))
        x = np.ldexp(x, -e) if e else x
    params = spec.fit(x)
    shift = [e if i in spec.units else 0 for i in range(len(params))]
    with np.errstate(over="ignore"):  # ParametricModel rejects a parameter past float64
        model = ParametricModel(family, np.ldexp(params, shift))
    if spec.iterative:
        score = spec.score(x, *params)
        for i in spec.units:
            score[i] *= params[i]
        norm = float(np.linalg.norm(score))
        if not norm <= _SCORE_TOL:
            raise ConvergenceError(
                f"{family.value} fit: score norm {norm:.3g} exceeds {_SCORE_TOL:g} "
                f"at parameters {model.params}"
            )
    return model


def _normal_log_density(x: np.ndarray, mu: float, sd: float) -> np.ndarray:
    with np.errstate(over="ignore"):  # -inf is the correctly rounded value there
        z = (x - mu) / sd
        return -0.5 * z * z - math.log(sd) - _HALF_LOG_2PI


def _lognormal_log_density(x: np.ndarray, mu: float, sd: float) -> np.ndarray:
    lx = np.log(x)
    z = (lx - mu) / sd
    return -lx - math.log(sd) - _HALF_LOG_2PI - 0.5 * z * z


def _normal_score(d: np.ndarray, sd: float) -> np.ndarray:
    # score in (mean, sd) given the deviations d from the mean
    return np.array([float(d.sum()) / sd**2, -d.size / sd + float((d * d).sum()) / sd**3])


def _gamma_score(x: np.ndarray, k: float, tau: float) -> np.ndarray:
    n = x.size
    g_k = float(np.log(x).sum()) - n * _digamma(k) - n * math.log(tau)
    g_tau = (float(x.sum()) / tau - n * k) / tau
    return np.array([g_k, g_tau])


def _weibull_score(x: np.ndarray, k: float, tau: float) -> np.ndarray:
    n = x.size
    z = x / tau
    zk = z**k
    lz = np.log(z)
    g_k = n / k + float(np.log(x).sum()) - n * math.log(tau) - float((zk * lz).sum())
    g_tau = (k / tau) * (float(zk.sum()) - n)
    return np.array([g_k, g_tau])


def _weibull_power(x: np.ndarray, k: float, tau: float) -> np.ndarray:
    with np.errstate(over="ignore"):  # inf far out in the tail: density and survival 0
        return (x / tau) ** k


def _beta_score(x: np.ndarray, a: float, b: float) -> np.ndarray:
    n = x.size
    psi_ab = _digamma(a + b)
    g_a = float(np.log(x).sum()) - n * (_digamma(a) - psi_ab)
    g_b = float(np.log1p(-x).sum()) - n * (_digamma(b) - psi_ab)
    return np.array([g_a, g_b])


def _fit_normal(x: np.ndarray, family: str = "normal") -> tuple[float, float]:
    # lognormal is this fit to log x
    mu = float(x.mean())
    sd = float(np.sqrt(np.mean((x - mu) ** 2)))
    if sd == 0:
        raise ValueError(f"{family} fit requires a non-constant sample")
    return mu, sd


def _fit_uniform(x: np.ndarray) -> tuple[float, float]:
    lo, hi = float(x[0]), float(x[-1])
    if not lo < hi:
        raise ValueError("uniform fit requires a non-constant sample")
    return lo, hi


def _fit_exponential(x: np.ndarray) -> tuple[float]:
    tau = float(x.mean())
    if tau <= 0:
        raise ValueError("exponential fit requires a positive sample mean")
    return (tau,)


def _fit_pareto(x: np.ndarray) -> tuple[float]:
    slog = float(np.log(x).sum())
    if slog <= 0:
        raise ValueError("pareto fit requires observations above the lower bound 1")
    return (x.size / slog,)


def _solve_shape(family: str, k: float, f_and_fprime) -> float:
    """Newton from ``k`` on the shape equation f(k) = 0, kept to k > 0."""
    for _ in range(_MAX_ITER):
        f, fp = f_and_fprime(k)
        if abs(f) <= 1e-13:
            return k
        step = f / fp
        while k - step <= 0:
            step *= 0.5
        k_next = k - step
        if abs(k_next - k) <= 1e-15 * max(1.0, abs(k)):
            return k_next
        k = k_next
    raise ConvergenceError(f"{family} shape iteration did not converge after {_MAX_ITER} "
                           f"iterations (shape={k:.6g}, residual={f:.3g})")


def _fit_gamma(x: np.ndarray) -> tuple[float, float]:
    mean = float(x.mean())
    s = math.log(mean) - float(np.log(x).mean())
    if not s > 0:
        raise ValueError("gamma fit requires a non-constant sample")
    # log-moment initialisation, then Newton on log k - digamma(k) = s
    k = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)
    k = _solve_shape("gamma", k, lambda k: (math.log(k) - _digamma(k) - s, 1.0 / k - _trigamma(k)))
    return k, mean / k


def _fit_weibull(x: np.ndarray) -> tuple[float, float]:
    sd_lx = float(np.log(x).std())
    if sd_lx == 0:
        raise ValueError("weibull fit requires a non-constant sample")
    # The shape equation is scale-free; it is solved on the data divided by
    # their maximum, which keeps sum(y^k) >= 1 whatever the shape.
    top = float(x[-1])
    y = x / top
    if y[0] == 0:
        raise ConvergenceError("weibull fit: the data span more than float64's range")
    ly = np.log(y)
    mean_ly = float(ly.mean())

    def equation(k):
        w = y**k
        sw, swl, swll = float(w.sum()), float((w * ly).sum()), float((w * ly * ly).sum())
        return swl / sw - 1.0 / k - mean_ly, (swll * sw - swl * swl) / (sw * sw) + 1.0 / (k * k)

    k = _solve_shape("weibull", math.pi / (math.sqrt(6.0) * sd_lx), equation)  # log-variance start
    return k, top * float(np.mean(y**k)) ** (1.0 / k)


def _fit_beta(x: np.ndarray) -> tuple[float, float]:
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
        psi_ab = _digamma(a + b)
        r1 = g1 - (_digamma(a) - psi_ab)
        r2 = g2 - (_digamma(b) - psi_ab)
        if (residual := max(abs(r1), abs(r2))) <= 1e-13:
            break
        t_ab = _trigamma(a + b)
        j11 = t_ab - _trigamma(a)
        j22 = t_ab - _trigamma(b)
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
        raise ConvergenceError(f"beta fit did not converge after {_MAX_ITER} iterations "
                               f"(alpha={a:.6g}, beta={b:.6g}, residual={residual:.3g})")
    return a, b


def _log1p_z2(x: np.ndarray, w: float) -> tuple[np.ndarray, np.ndarray, bool]:
    # log1p(z2), z2 = (x/w)^2 and whether z2 overflows; there the log is 2 (log|x| - log w)
    with np.errstate(over="ignore"):
        z2 = (x / w) ** 2
    u = np.log1p(z2)
    big = ~np.isfinite(u)
    if overflowed := bool(np.any(big)):
        u = np.where(big, 2.0 * (np.log(np.where(big, np.abs(x), 1.0)) - math.log(w)), u)
    return u, z2, overflowed


def _qgaussian_terms(x: np.ndarray, t: float, w: float) -> tuple[float, np.ndarray, np.ndarray]:
    """Log-likelihood, score and Hessian in (t, w) from one log1p pass over ``x``:
    the sums of log1p((x/w)^2), r = x^2/(w^2+x^2) and r(3-2r)."""
    norm = _qgaussian_log_norm(t, w)  # a width run to 0 raises here, before x / w
    n = x.size
    u, z2, overflowed = _log1p_z2(x, w)
    su = float(u.sum())
    with np.errstate(invalid="ignore"):  # inf / inf where z2 overflowed
        r = np.divide(z2, np.add(1.0, z2, out=u), out=u)
    if overflowed:
        r[~np.isfinite(z2)] = 1.0
    rr = np.multiply(2.0, r, out=z2)
    np.multiply(r, np.subtract(3.0, rr, out=rr), out=rr)
    sr, sr3 = float(r.sum()), float(rr.sum())
    # scipy's gamma functions, not the scalar ones above: the fit's likelihood
    # is flat in the tail, so any change to this arithmetic moves its result past
    # 1e-12.  They switch to _digamma and _trigamma with a Newton-only fitter.
    special = _special()
    psi_gap = float(special.digamma(0.5 * t) - special.digamma(0.5 * (t - 1.0)))
    tri_gap = float(special.polygamma(1, 0.5 * t) - special.polygamma(1, 0.5 * (t - 1.0)))
    g = np.array([0.5 * n * psi_gap - 0.5 * su, (t * sr - n) / w])
    h = np.array(
        [
            [0.25 * n * tri_gap, sr / w],
            [sr / w, (n - t * sr3) / (w * w)],
        ]
    )
    return float(n * norm - 0.5 * t * su), g, h


def _qgaussian_log_norm(t: float, w: float) -> float:
    # log of the density's normalising constant (scipy's gammaln: see above)
    special = _special()
    return (
        special.gammaln(0.5 * t)
        - special.gammaln(0.5 * (t - 1.0))
        - 0.5 * math.log(math.pi)
        - math.log(w)
    )


def _qgaussian_loglik(x: np.ndarray, t: float, w: float) -> float:
    norm = _qgaussian_log_norm(t, w)  # a width run to 0 raises here, before x / w
    su = float(_log1p_z2(x, w)[0].sum())
    return float(x.size * norm - 0.5 * t * su)


# Each fixed start tail t with special.stdtrit(t - 1, 0.75), written out by repr
_QGAUSSIAN_START_QUARTILES = (
    (2.2, 0.9335861477221329), (3.0, 0.8164965809277261), (5.0, 0.7406970841126829),
    (9.0, 0.7063866126448388), (21.0, 0.6869544964488036), (101.0, 0.6769510430114717),
)


def _qgaussian_starts(x: np.ndarray) -> list[tuple[float, float]]:
    starts = []
    m2 = float(np.mean(x * x))
    m4 = float(np.mean(x**4))
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
    for t_try, q75 in _QGAUSSIAN_START_QUARTILES:
        starts.append((t_try, abs_med * math.sqrt(t_try - 1.0) / q75))
    return starts


def _fit_qgaussian(x: np.ndarray) -> tuple[float, float]:
    if np.all(x == x[0]):
        raise ValueError("qgaussian fit requires a non-constant sample")
    from scipy import optimize  # imported here, its only use, to spare other runs its cost

    def quasi_newton(t0: float, w0: float) -> tuple[float, float]:
        # log parameters keep positivity without bounds or overflow
        def neg_ll_and_grad(p):
            t_cur, w_cur = 1.0 + math.exp(p[0]), math.exp(p[1])
            ll, g, _ = _qgaussian_terms(x, t_cur, w_cur)
            # where the search diverges a component is inf * 0, and the nan
            # ends it (the caller raises ConvergenceError)
            with np.errstate(invalid="ignore"):
                return -ll, np.array([-g[0] * (t_cur - 1.0), -g[1] * w_cur])

        res = optimize.minimize(
            neg_ll_and_grad,
            x0=np.array([math.log(t0 - 1.0), math.log(w0)]),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": 300, "ftol": 1e-16, "gtol": 1e-12},
        )
        return 1.0 + math.exp(float(res.x[0])), math.exp(float(res.x[1]))

    def polish(t0: float, w0: float) -> tuple[float, float, float, float]:
        # an accepted trial's terms are the next step's: one evaluation a point
        t_cur, w_cur = t0, w0
        ll, g, h = _qgaussian_terms(x, t_cur, w_cur)
        for _ in range(60):
            if float(np.max(np.abs(g))) <= 1e-9:
                break
            with np.errstate(over="ignore", invalid="ignore"):
                det = h[0, 0] * h[1, 1] - h[0, 1] * h[1, 0]
            # a step through a non-finite determinant is 0 or nan: it changes nothing
            if det == 0 or not np.isfinite(det):
                break
            dt = -(h[1, 1] * g[0] - h[0, 1] * g[1]) / det
            dw = -(h[0, 0] * g[1] - h[1, 0] * g[0]) / det
            improved = False
            floor = ll - 1e-12 * max(1.0, abs(ll))
            for _ in range(30):
                t_new, w_new = t_cur + dt, w_cur + dw
                if t_new > 1.0 + 1e-9 and w_new > 0:
                    # the Hessian raises where w_new * w_new underflows: the likelihood rejects first
                    if w_new * w_new > 0.0 or _qgaussian_loglik(x, t_new, w_new) >= floor:
                        trial = _qgaussian_terms(x, t_new, w_new)
                        if trial[0] >= floor:
                            t_cur, w_cur, (ll, g, h) = t_new, w_new, trial
                            improved = True
                            break
                dt *= 0.5
                dw *= 0.5
            if not improved:
                break
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


_POSITIVE = "requires strictly positive data"

_FAMILIES = {
    Family.NORMAL: _Spec(
        names=("mean", "sd"),
        rules=((lambda mu, sd: sd > 0, "sd > 0"),),
        log_density=_normal_log_density,
        survival=lambda x, mu, sd: _special().ndtr((mu - x) / sd),
        draw=lambda rng, n, mu, sd: rng.normal(mu, sd, n),
        score=lambda x, mu, sd: _normal_score(x - mu, sd),
        fit=_fit_normal,
        units=(0, 1),
    ),
    Family.UNIFORM: _Spec(
        names=("lower", "upper"),
        rules=((lambda lo, hi: lo < hi, "lower < upper"),),
        log_density=lambda x, lo, hi: np.where((x >= lo) & (x <= hi), -math.log(hi - lo), -np.inf),
        survival=lambda x, lo, hi: np.clip((hi - x) / (hi - lo), 0.0, 1.0),
        draw=lambda rng, n, lo, hi: rng.uniform(lo, hi, n),
        score=None,
        fit=_fit_uniform,
    ),
    Family.LOG_NORMAL: _Spec(
        names=("log_mean", "log_sd"),
        rules=((lambda mu, sd: sd > 0, "sd > 0"),),
        log_density=_lognormal_log_density,
        survival=lambda x, mu, sd: _special().ndtr((mu - np.log(x)) / sd),
        draw=lambda rng, n, mu, sd: rng.lognormal(mu, sd, n),
        score=lambda x, mu, sd: _normal_score(np.log(x) - mu, sd),
        fit=lambda x: _fit_normal(np.log(x), "lognormal"),
        support=(0.0, math.inf),
        support_reason=_POSITIVE,
    ),
    Family.GAMMA: _Spec(
        names=("shape", "scale"),
        rules=((lambda k, tau: k > 0 and tau > 0, "shape > 0 and scale > 0"),),
        log_density=lambda x, k, tau: (
            (k - 1.0) * np.log(x) - x / tau - _lgamma(k) - k * math.log(tau)
        ),
        survival=lambda x, k, tau: _special().gammaincc(k, x / tau),
        draw=lambda rng, n, k, tau: rng.gamma(k, tau, n),
        score=_gamma_score,
        fit=_fit_gamma,
        support=(0.0, math.inf),
        support_reason=_POSITIVE,
        iterative=True,
        units=(1,),
    ),
    Family.WEIBULL: _Spec(
        names=("shape", "scale"),
        rules=((lambda k, tau: k > 0 and tau > 0, "shape > 0 and scale > 0"),),
        log_density=lambda x, k, tau: (
            math.log(k) + (k - 1.0) * np.log(x) - k * math.log(tau) - _weibull_power(x, k, tau)
        ),
        survival=lambda x, k, tau: np.exp(-_weibull_power(x, k, tau)),
        draw=lambda rng, n, k, tau: tau * rng.weibull(k, n),
        score=_weibull_score,
        fit=_fit_weibull,
        support=(0.0, math.inf),
        support_reason=_POSITIVE,
        iterative=True,
        units=(1,),
    ),
    Family.BETA: _Spec(
        names=("alpha", "beta"),
        rules=((lambda a, b: a > 0 and b > 0, "alpha > 0 and beta > 0"),),
        log_density=lambda x, a, b: (
            (a - 1.0) * np.log(x)
            + (b - 1.0) * np.log1p(-x)
            + (_lgamma(a + b) - _lgamma(a) - _lgamma(b))
        ),
        survival=lambda x, a, b: 1.0 - _special().betainc(a, b, x),
        draw=lambda rng, n, a, b: rng.beta(a, b, n),
        score=_beta_score,
        fit=_fit_beta,
        support=(0.0, 1.0),
        support_reason="requires data strictly inside (0, 1)",
        iterative=True,
    ),
    Family.Q_GAUSSIAN: _Spec(
        names=("tail", "width"),
        rules=((lambda t, w: t > 1, "tail exponent > 1"), (lambda t, w: w > 0, "width > 0")),
        log_density=lambda x, t, w: _qgaussian_log_norm(t, w) - 0.5 * t * _log1p_z2(x, w)[0],
        survival=lambda x, t, w: _special().stdtr(t - 1.0, -x * math.sqrt(t - 1.0) / w),
        draw=lambda rng, n, t, w: rng.standard_t(t - 1.0, n) * (w / math.sqrt(t - 1.0)),
        score=lambda x, t, w: _qgaussian_terms(x, t, w)[1],
        fit=_fit_qgaussian,
        iterative=True,
        units=(1,),
    ),
    Family.EXPONENTIAL: _Spec(
        names=("scale",),
        rules=((lambda tau: tau > 0, "scale > 0"),),
        log_density=lambda x, tau: -math.log(tau) - x / tau,
        survival=lambda x, tau: np.exp(-x / tau),
        draw=lambda rng, n, tau: rng.exponential(tau, n),
        score=lambda x, tau: np.array([-x.size / tau + float(x.sum()) / tau**2]),
        fit=_fit_exponential,
        units=(0,),
        support=(0.0, math.inf),
        closed_below=True,
        support_reason="requires non-negative data",
    ),
    Family.PARETO: _Spec(
        names=("shape",),
        rules=((lambda alpha: alpha > 0, "shape > 0"),),
        log_density=lambda x, alpha: math.log(alpha) - (alpha + 1.0) * np.log(x),
        survival=lambda x, alpha: x ** (-alpha),
        draw=lambda rng, n, alpha: rng.pareto(alpha, n) + 1.0,
        score=lambda x, alpha: np.array([x.size / alpha - float(np.log(x).sum())]),
        fit=_fit_pareto,
        support=(1.0, math.inf),
        closed_below=True,
        support_reason="requires data >= 1",
    ),
}
