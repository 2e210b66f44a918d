"""The nine parametric families: parameters, support, sampling, MLE.

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
family: its parameter names and checks, its support, sampler and fitter,
and for an iterative fit the score that checks it.  Every public function
looks the family up there; ``support_problem`` and ``fit_mle`` read the
support for the data.  Nothing here evaluates a model density or survival.

The qgaussian density is

    f(x) = Gamma(t/2) / (sqrt(pi) w Gamma((t-1)/2)) * (1 + (x/w)^2)^(-t/2)

with tail exponent t > 1 and width w > 0; it is a rescaled Student-t with
t - 1 degrees of freedom, centred at zero.

Closed-form maximum likelihood is used where available (normal, uniform,
lognormal, exponential, pareto).  One Newton solver solves the profile shape
equation of gamma and weibull and both score equations of beta; qgaussian
runs L-BFGS-B from its best-ranked starts, then a Newton polish.  All four
must end with score norm <= 1e-6, the scale component (gamma and weibull
scale, qgaussian width) times its parameter: the only convergence verdict.
A fit that needs a spread rejects a constant sample (ValueError); distinct
values whose spread rounds to 0 in float64 raise ConvergenceError.
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
    "sample_from",
    "fit_mle",
    "support_problem",
]

_LOG_10 = (2.302585092994046, -2.1707562233822494e-16)  # log(10) = hi + lo, to 2^-104
_MAX_ITER = 200
_SCORE_TOL = 1e-6


def _special():
    from scipy import special  # 0.3 s to import: only the qgaussian fit needs it
    return special


def _polygamma(x: float) -> tuple[float, float]:
    """(psi(x), psi'(x)), x > 0: psi(x + 1) - 1/x and psi'(x + 1) + 1/x^2 up to x >= 10,
    then the series to their x^-14 and x^-19 terms.

    Cut at x^-10 the psi series is 2e-14 off near x = 1-3.  From 10 up psi is scipy's
    sum, bit for bit; below, log(10) + log1p((x-10)/10) and the terms are summed exactly."""
    psi_terms, tri_terms = [], []
    while x < 10.0:
        psi_terms.append(-1.0 / x)
        tri_terms.append(1.0 / (x * x))
        x += 1.0
    z = 1.0 / (x * x)
    psi_tail = z * ((((((1 / 12 * z - 691 / 32760) * z + 1 / 132) * z - 1 / 240) * z
                      + 1 / 252) * z - 1 / 120) * z + 1 / 12)
    tri_tail = ((((((((43867 / 798 * z - 3617 / 510) * z + 7 / 6) * z - 691 / 2730) * z
                    + 5 / 66) * z - 1 / 30) * z + 1 / 42) * z - 1 / 30) * z + 1 / 6) * z / x
    if psi_terms:
        psi = math.fsum([*_LOG_10, math.log1p((x - 10.0) / 10.0), -0.5 / x, -psi_tail,
                         *psi_terms])
    else:
        psi = math.log(x) - 0.5 / x - psi_tail
    return psi, math.fsum([1.0 / x, 0.5 * z, tri_tail, *tri_terms])


class SupportError(ValueError):
    """Data lies outside the support required by a family."""


class ConvergenceError(ArithmeticError):
    """A fit failed numerically: no convergence, or data float64 cannot resolve."""


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
    ``draw(rng, n, *params)`` returns ``n`` unsorted draws, ``fit(x)``
    returns the maximum-likelihood parameters of the sorted sample ``x`` and
    ``score(x, *params)``, set for the iterative fits only, the gradient of
    its log-likelihood (None: a closed-form fit, with no verdict).
    """

    names: tuple[str, ...]
    #: (holds(*params), what "<family> requires ..." names when it fails)
    rules: tuple[tuple[Callable[..., bool], str], ...]
    draw: Callable[..., np.ndarray]
    fit: Callable[[np.ndarray], tuple[float, ...]]
    #: support bounds; the upper one is always open
    support: tuple[float, float] = (-math.inf, math.inf)
    closed_below: bool = False
    #: what the skip reason says when data leave the support
    support_reason: str | None = None
    #: the fit must end with score norm <= _SCORE_TOL (scaled as below)
    score: Callable[..., np.ndarray] | None = None
    #: parameters in the data's units: fitted in units of 2^e, score scaled by them
    units: tuple[int, ...] = ()

    def outside(self, x):
        """True where ``x`` lies outside the support."""
        lo, hi = self.support
        return ((x < lo) if self.closed_below else (x <= lo)) | (x >= hi)


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


def sample_from(model: ParametricModel, n: int, seed: int) -> SortedSample:
    """Draw ``n`` independent observations; deterministic given ``seed``.

    Raises ``OverflowError`` when a draw does not fit in float64.
    """
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    rng = np.random.default_rng(int(seed))
    overflow = f"{model.family.value} draws overflow float64 at parameters {model.params}"
    try:
        draws = np.sort(_FAMILIES[model.family].draw(rng, n, *model.params))
    except OverflowError:  # numpy's uniform rejects a range past float64
        raise OverflowError(overflow) from None
    if not (math.isfinite(draws[0]) and math.isfinite(draws[-1])):
        raise OverflowError(overflow)
    return SortedSample(draws)


def support_problem(family: Family, sample: SortedSample) -> str | None:
    """Reason ``family`` cannot be fitted to ``sample``, or None if it can."""
    spec = _FAMILIES[family]
    if spec.outside(sample.min) or spec.outside(sample.max):
        return spec.support_reason
    return None


def fit_mle(family: Family, sample: SortedSample) -> ParametricModel:
    """Maximum-likelihood fit of ``family`` to ``sample``.

    Raises :class:`SupportError` when the data violate the family's support
    (the message is the family name and :func:`support_problem`'s reason),
    :class:`ConvergenceError` when an iterative fit ends with score norm
    above 1e-6 or float64 cannot resolve the data's spread, and
    ``OverflowError`` when a parameter in the data's units passes float64.
    Fit and check run in units of 2^e, as above (where 0 is outside the support,
    no further down than keeps min x normal); messages quote the data's units.
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
    with np.errstate(over="ignore"):
        scaled = np.ldexp(params, shift)
    if np.isinf(scaled).any():
        raise OverflowError(f"{family.value} fit overflows float64: parameters {scaled.tolist()}")
    if spec.score is not None:  # before the model checks its parameters: they may be nan
        score = spec.score(x, *params)
        for i in spec.units:
            score[i] *= params[i]
        norm = float(np.linalg.norm(score))
        if not norm <= _SCORE_TOL:
            raise ConvergenceError(f"{family.value} fit: score norm {norm:.3g} exceeds "
                                   f"{_SCORE_TOL:g} at parameters {tuple(scaled.tolist())}")
    return ParametricModel(family, scaled)


def _gamma_score(x: np.ndarray, k: float, tau: float) -> np.ndarray:
    n = x.size
    g_k = float(np.log(x).sum()) - n * _polygamma(k)[0] - n * math.log(tau)
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


def _beta_score(x: np.ndarray, a: float, b: float) -> np.ndarray:
    n = x.size
    psi_a, psi_b, psi_ab = (_polygamma(v)[0] for v in (a, b, a + b))
    g_a = float(np.log(x).sum()) - n * (psi_a - psi_ab)
    g_b = float(np.log1p(-x).sum()) - n * (psi_b - psi_ab)
    return np.array([g_a, g_b])


def _spread(family: str, x: np.ndarray, value: float) -> float:
    """``value``, the spread that ``family``'s fit to the sorted ``x`` divides by, if > 0:
    else a constant ``x`` is a data error, and distinct values a numerical failure."""
    if value > 0:
        return value
    if x[0] == x[-1]:
        raise ValueError(f"{family} fit requires a non-constant sample")
    raise ConvergenceError(f"{family} fit: float64 cannot resolve the spread of the data")


def _fit_normal(family: str, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    # the normal fit to y: the data x (normal) or log x (lognormal)
    mu = float(y.mean())
    return mu, _spread(family, x, float(np.sqrt(np.mean((y - mu) ** 2))))


def _fit_uniform(x: np.ndarray) -> tuple[float, float]:
    lo, hi = float(x[0]), float(x[-1])
    _spread("uniform", x, hi - lo)
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


def _newton(x: tuple[float, ...], step) -> tuple[float, ...]:
    """Newton from ``x``, each step halved until every parameter stays > 0.

    ``step(*x)`` returns the residual and a function that solves for the step,
    called only past residual 1e-13 (at a root the system may be singular).
    A step of at most 1e-15 max(1, |x|) is the last, and so is step ``_MAX_ITER``.
    """
    for _ in range(_MAX_ITER):
        residual, solve = step(*x)
        if residual <= 1e-13:
            break
        d = solve()
        while any(xi + di <= 0 for xi, di in zip(x, d)):
            d = [0.5 * di for di in d]
        last, x = x, tuple(xi + di for xi, di in zip(x, d))
        if max(abs(u - v) for u, v in zip(x, last)) <= 1e-15 * max(1.0, *map(abs, last)):
            break
    return x


def _fit_gamma(x: np.ndarray) -> tuple[float, float]:
    mean = float(x.mean())
    s = _spread("gamma", x, math.log(mean) - float(np.log(x).mean()))

    def step(k):  # Newton on log k - digamma(k) = s
        psi, tri = _polygamma(k)
        f = math.log(k) - psi - s
        return abs(f), lambda: (-f / (1.0 / k - tri),)

    k0 = (3.0 - s + math.sqrt((s - 3.0) ** 2 + 24.0 * s)) / (12.0 * s)  # log-moment start
    (k,) = _newton((k0,), step)
    return k, mean / k


def _fit_weibull(x: np.ndarray) -> tuple[float, float]:
    sd_lx = _spread("weibull", x, float(np.log(x).std()))
    # The shape equation is scale-free; it is solved on the data divided by
    # their maximum, which keeps sum(y^k) >= 1 whatever the shape.
    top = float(x[-1])
    y = x / top
    if y[0] == 0:
        raise ConvergenceError("weibull fit: the data span more than float64's range")
    ly = np.log(y)
    mean_ly = float(ly.mean())

    def step(k):
        w = y**k
        sw, swl, swll = float(w.sum()), float((w * ly).sum()), float((w * ly * ly).sum())
        f = swl / sw - 1.0 / k - mean_ly
        return abs(f), lambda: (-f / ((swll * sw - swl * swl) / (sw * sw) + 1.0 / (k * k)),)

    (k,) = _newton((math.pi / (math.sqrt(6.0) * sd_lx),), step)  # log-variance start
    return k, top * float(np.mean(y**k)) ** (1.0 / k)


def _fit_beta(x: np.ndarray) -> tuple[float, float]:
    m = float(x.mean())
    v = _spread("beta", x, float(x.var()))
    concentration = max(m * (1.0 - m) / v - 1.0, 1e-3)
    a, b = (max(w * concentration, 1e-3) for w in (m, 1.0 - m))
    g1, g2 = float(np.log(x).mean()), float(np.log1p(-x).mean())

    def step(a, b):
        (psi_a, t_a), (psi_b, t_b), (psi_ab, t_ab) = map(_polygamma, (a, b, a + b))
        r1 = g1 - (psi_a - psi_ab)
        r2 = g2 - (psi_b - psi_ab)

        def solve():
            j11, j22 = t_ab - t_a, t_ab - t_b
            det = j11 * j22 - t_ab * t_ab
            if det == 0:
                raise ConvergenceError("beta fit: singular Newton system")
            return -(j22 * r1 - t_ab * r2) / det, -(j11 * r2 - t_ab * r1) / det

        return max(abs(r1), abs(r2)), solve

    return _newton((a, b), step)


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
    # scipy's gamma functions, not _polygamma above: the fit's likelihood is flat
    # in the tail, so any change to this arithmetic moves its result past 1e-12.
    # They switch to _polygamma and math.lgamma with a Newton-only fitter.
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
    _spread("qgaussian", x, float(x[-1]) - float(x[0]))
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
        draw=lambda rng, n, mu, sd: rng.normal(mu, sd, n),
        fit=lambda x: _fit_normal("normal", x, x),
        units=(0, 1),
    ),
    Family.UNIFORM: _Spec(
        names=("lower", "upper"),
        rules=((lambda lo, hi: lo < hi, "lower < upper"),),
        draw=lambda rng, n, lo, hi: rng.uniform(lo, hi, n),
        fit=_fit_uniform,
    ),
    Family.LOG_NORMAL: _Spec(
        names=("log_mean", "log_sd"),
        rules=((lambda mu, sd: sd > 0, "sd > 0"),),
        draw=lambda rng, n, mu, sd: rng.lognormal(mu, sd, n),
        fit=lambda x: _fit_normal("lognormal", x, np.log(x)),
        support=(0.0, math.inf),
        support_reason=_POSITIVE,
    ),
    Family.GAMMA: _Spec(
        names=("shape", "scale"),
        rules=((lambda k, tau: k > 0 and tau > 0, "shape > 0 and scale > 0"),),
        draw=lambda rng, n, k, tau: rng.gamma(k, tau, n),
        score=_gamma_score,
        fit=_fit_gamma,
        support=(0.0, math.inf),
        support_reason=_POSITIVE,
        units=(1,),
    ),
    Family.WEIBULL: _Spec(
        names=("shape", "scale"),
        rules=((lambda k, tau: k > 0 and tau > 0, "shape > 0 and scale > 0"),),
        draw=lambda rng, n, k, tau: tau * rng.weibull(k, n),
        score=_weibull_score,
        fit=_fit_weibull,
        support=(0.0, math.inf),
        support_reason=_POSITIVE,
        units=(1,),
    ),
    Family.BETA: _Spec(
        names=("alpha", "beta"),
        rules=((lambda a, b: a > 0 and b > 0, "alpha > 0 and beta > 0"),),
        draw=lambda rng, n, a, b: rng.beta(a, b, n),
        score=_beta_score,
        fit=_fit_beta,
        support=(0.0, 1.0),
        support_reason="requires data strictly inside (0, 1)",
    ),
    Family.Q_GAUSSIAN: _Spec(
        names=("tail", "width"),
        rules=((lambda t, w: t > 1, "tail exponent > 1"), (lambda t, w: w > 0, "width > 0")),
        draw=lambda rng, n, t, w: rng.standard_t(t - 1.0, n) * (w / math.sqrt(t - 1.0)),
        score=lambda x, t, w: _qgaussian_terms(x, t, w)[1],
        fit=_fit_qgaussian,
        units=(1,),
    ),
    Family.EXPONENTIAL: _Spec(
        names=("scale",),
        rules=((lambda tau: tau > 0, "scale > 0"),),
        draw=lambda rng, n, tau: rng.exponential(tau, n),
        fit=_fit_exponential,
        units=(0,),
        support=(0.0, math.inf),
        closed_below=True,
        support_reason="requires non-negative data",
    ),
    Family.PARETO: _Spec(
        names=("shape",),
        rules=((lambda alpha: alpha > 0, "shape > 0"),),
        draw=lambda rng, n, alpha: rng.pareto(alpha, n) + 1.0,
        fit=_fit_pareto,
        support=(1.0, math.inf),
        closed_below=True,
        support_reason="requires data >= 1",
    ),
}
