import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from esjs import distributions
from esjs import (
    ConvergenceError,
    Family,
    ParametricModel,
    SortedSample,
    SupportError,
    density,
    derive_seed,
    empirical_survival,
    fit_mle,
    log_likelihood,
    sample_from,
    support_problem,
    survival_of,
)

# The supports, written out here apart from the library's family table:
# (lower, lower included, upper, upper included).  A uniform model's support
# is [lower, upper] from its params; the family itself takes any data.
SUPPORT = {
    Family.NORMAL: (-np.inf, False, np.inf, False),
    Family.UNIFORM: (-np.inf, False, np.inf, False),
    Family.LOG_NORMAL: (0.0, False, np.inf, False),
    Family.GAMMA: (0.0, False, np.inf, False),
    Family.WEIBULL: (0.0, False, np.inf, False),
    Family.BETA: (0.0, False, 1.0, False),
    Family.Q_GAUSSIAN: (-np.inf, False, np.inf, False),
    Family.EXPONENTIAL: (0.0, True, np.inf, False),
    Family.PARETO: (1.0, True, np.inf, False),
}


def inside(support, x):
    lower, lower_in, upper, upper_in = support
    x = np.asarray(x)
    above_lower = x >= lower if lower_in else x > lower
    below_upper = x <= upper if upper_in else x < upper
    return above_lower & below_upper


def model_support(model):
    if model.family is Family.UNIFORM:
        return (model.params[0], True, model.params[1], True)
    return SUPPORT[model.family]


REFERENCE_MODELS = [
    ParametricModel(Family.NORMAL, (0.3, 1.7)),
    ParametricModel(Family.UNIFORM, (-1.0, 3.0)),
    ParametricModel(Family.LOG_NORMAL, (0.2, 0.8)),
    ParametricModel(Family.GAMMA, (2.0, 2.0)),
    ParametricModel(Family.WEIBULL, (1.5, 4.4)),
    ParametricModel(Family.BETA, (2.0, 2.0)),
    ParametricModel(Family.Q_GAUSSIAN, (4.0, 1.0)),
    ParametricModel(Family.EXPONENTIAL, (2.5,)),
    ParametricModel(Family.PARETO, (1.8,)),
]


def _grid_for(model):
    fam = model.family
    if fam is Family.NORMAL:
        return np.linspace(-4, 5, 7)
    if fam is Family.UNIFORM:
        lo, hi = model.params
        return np.linspace(lo + 0.1, hi - 0.1, 5)
    if fam is Family.BETA:
        return np.linspace(0.1, 0.9, 5)
    if fam is Family.Q_GAUSSIAN:
        return np.linspace(-6, 6, 7)
    if fam is Family.PARETO:
        return np.array([1.2, 1.7, 2.5, 5.0, 20.0])
    return np.array([0.2, 0.8, 1.7, 3.5, 8.0])


class TestDensity:
    def test_normal_peak(self):
        model = ParametricModel(Family.NORMAL, (0, 1))
        assert density(model, 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_uniform(self):
        model = ParametricModel(Family.UNIFORM, (0, 2))
        assert density(model, 1.0) == 0.5
        assert density(model, 3.0) == 0.0

    def test_gamma_normalisation(self):
        # oracle: adaptive quadrature of the printed density
        model = ParametricModel(Family.GAMMA, (2, 2))
        mass, _ = integrate.quad(lambda x: density(model, x), 0, 200)
        assert mass == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda m: m.family.value)
    def test_all_densities_integrate_to_one(self, model):
        lo = SUPPORT[model.family][0]
        if model.family is Family.UNIFORM:
            lo, hi = model.params
        elif model.family is Family.BETA:
            lo, hi = 0.0, 1.0
        elif lo == -np.inf:
            lo, hi = -np.inf, np.inf
        else:
            lo, hi = lo, np.inf
        mass, _ = integrate.quad(lambda x: density(model, x), lo, hi, limit=200)
        assert mass == pytest.approx(1.0, abs=1e-7)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ParametricModel(Family.NORMAL, (0.0, -1.0))
        with pytest.raises(ValueError):
            ParametricModel(Family.UNIFORM, (3.0, 3.0))
        with pytest.raises(ValueError):
            ParametricModel(Family.Q_GAUSSIAN, (1.0, 1.0))
        with pytest.raises(ValueError):
            ParametricModel(Family.EXPONENTIAL, (2.5, 1.0))


class TestSurvival:
    def test_exponential_at_scale(self):
        model = ParametricModel(Family.EXPONENTIAL, (2.0,))
        assert survival_of(model, 2.0) == pytest.approx(math.exp(-1), rel=1e-12)

    def test_pareto_at_lower_bound(self):
        assert survival_of(ParametricModel(Family.PARETO, (1.5,)), 1.0) == 1.0
        assert survival_of(ParametricModel(Family.PARETO, (1.5,)), 0.2) == 1.0

    def test_beta_symmetry(self):
        assert survival_of(ParametricModel(Family.BETA, (2, 2)), 0.5) == pytest.approx(0.5)

    @pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda m: m.family.value)
    def test_complements_density_quadrature(self, model):
        # oracle: integrate the density from the support lower bound
        lo = SUPPORT[model.family][0]
        if model.family is Family.UNIFORM:
            lo = model.params[0]
        elif lo == -np.inf:
            lo = -30.0 if model.family is Family.NORMAL else -4000.0
        for x in _grid_for(model):
            cdf, _ = integrate.quad(lambda t: density(model, t), lo, x, limit=400)
            assert 1.0 - cdf == pytest.approx(survival_of(model, x), abs=1e-7)

    @pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda m: m.family.value)
    def test_monotone_with_correct_limits(self, model):
        xs = np.linspace(-50, 50, 401)
        vals = survival_of(model, xs)
        assert np.all(np.diff(vals) <= 1e-12)
        assert np.all((vals >= 0) & (vals <= 1))


class TestSampling:
    def test_support_containment(self):
        sample = sample_from(ParametricModel(Family.UNIFORM, (0, 1)), 500, 42)
        assert sample.min >= 0.0 and sample.max <= 1.0
        pareto = sample_from(ParametricModel(Family.PARETO, (2.0,)), 500, 42)
        assert pareto.min >= 1.0

    def test_normal_moments(self):
        sample = sample_from(ParametricModel(Family.NORMAL, (0, 1)), 100_000, 9)
        assert abs(float(np.mean(sample.values))) < 0.02
        assert abs(float(np.std(sample.values)) - 1.0) < 0.02

    def test_deterministic_given_seed(self):
        model = ParametricModel(Family.GAMMA, (2, 2))
        a = sample_from(model, 1000, 77)
        b = sample_from(model, 1000, 77)
        np.testing.assert_array_equal(a.values, b.values)
        c = sample_from(model, 1000, 78)
        assert not np.array_equal(a.values, c.values)

    @pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda m: m.family.value)
    def test_sampler_matches_survival(self, model):
        # Glivenko-Cantelli: sup distance between empirical and model survival
        sample = sample_from(model, 100_000, 123)
        surv = empirical_survival(sample)
        grid = np.quantile(sample.values, np.linspace(0.005, 0.995, 80))
        gap = np.max(np.abs(surv(grid) - survival_of(model, grid)))
        assert gap < 0.01


class TestLogLikelihood:
    def test_uniform_singleton(self):
        model = ParametricModel(Family.UNIFORM, (0, 1))
        assert log_likelihood(model, SortedSample.from_data([0.5])) == 0.0

    def test_exponential_pair(self):
        model = ParametricModel(Family.EXPONENTIAL, (1.0,))
        assert log_likelihood(model, SortedSample.from_data([1.0, 1.0])) == pytest.approx(-2.0)

    def test_pareto_point(self):
        model = ParametricModel(Family.PARETO, (2.0,))
        got = log_likelihood(model, SortedSample.from_data([2.0]))
        assert got == pytest.approx(math.log(2 / 8), rel=1e-12)

    def test_out_of_support_is_minus_inf(self):
        model = ParametricModel(Family.PARETO, (2.0,))
        assert log_likelihood(model, SortedSample.from_data([0.5, 2.0])) == -np.inf
        beta = ParametricModel(Family.BETA, (2.0, 2.0))
        assert log_likelihood(beta, SortedSample.from_data([0.4, 1.2])) == -np.inf

    def test_far_tails_do_not_overflow(self):
        # (x / w)^2 overflows at 1e300; inside the support the qgaussian
        # log-density is finite, and the normal one's correctly rounded value
        # is -inf
        far = SortedSample.from_data([1e300])
        qgaussian = ParametricModel(Family.Q_GAUSSIAN, (4.0, 1.0))
        expected = math.lgamma(2.0) - math.lgamma(1.5) - 0.5 * math.log(math.pi)
        expected -= 2.0 * 2.0 * math.log(1e300)
        assert log_likelihood(qgaussian, far) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(-2763.55, abs=0.01)
        assert log_likelihood(ParametricModel(Family.NORMAL, (0.0, 1.0)), far) == -np.inf

    def test_gamma_function_past_float64(self):
        # log Gamma(1e306) is past float64, so it is inf and the density 0
        gamma = ParametricModel(Family.GAMMA, (1e306, 1.0))
        assert density(gamma, 1.0) == 0.0
        assert log_likelihood(gamma, SortedSample.from_data([1.0])) == -np.inf
        # raises nothing: the beta normaliser is inf - inf here, so the value is nan
        beta = ParametricModel(Family.BETA, (1e306, 1e306))
        density(beta, 0.5)
        log_likelihood(beta, SortedSample.from_data([0.25, 0.5]))


class TestFitClosedForm:
    def test_exponential_mean(self):
        model = fit_mle(Family.EXPONENTIAL, SortedSample.from_data([1, 2, 3]))
        assert model.params == (2.0,)

    def test_pareto_closed_form(self):
        e = math.e
        model = fit_mle(Family.PARETO, SortedSample.from_data([e, e, e]))
        assert model.params[0] == pytest.approx(1.0, rel=1e-12)

    def test_normal_where_the_squared_deviations_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = fit_mle(Family.NORMAL, SortedSample.from_data([-1e300, 1e300]))
        assert model.params == (0.0, 1e300)

    def test_exponential_where_the_sum_overflows(self):
        model = fit_mle(Family.EXPONENTIAL, SortedSample.from_data([1e308, 1.5e308]))
        assert model.params == (1.25e308,)

    def test_uniform_takes_extremes(self):
        model = fit_mle(Family.UNIFORM, SortedSample.from_data([0.2, 0.9, 0.4]))
        assert model.params == (0.2, 0.9)

    @pytest.mark.parametrize(
        "family, true_params",
        [
            (Family.NORMAL, (0.3, 1.7)),
            (Family.LOG_NORMAL, (0.2, 0.8)),
            (Family.EXPONENTIAL, (2.5,)),
            (Family.PARETO, (1.8,)),
        ],
    )
    def test_recovery_within_three_standard_errors(self, family, true_params):
        n = 30_000
        model = ParametricModel(family, true_params)
        fitted = fit_mle(family, sample_from(model, n, 5150))
        if family in (Family.NORMAL, Family.LOG_NORMAL):
            mu, sd = true_params
            ses = (sd / math.sqrt(n), sd / math.sqrt(2 * n))
        elif family is Family.EXPONENTIAL:
            ses = (true_params[0] / math.sqrt(n),)
        else:
            ses = (true_params[0] / math.sqrt(n),)
        for got, want, se in zip(fitted.params, true_params, ses):
            assert abs(got - want) <= 3 * se


class TestFitIterative:
    @pytest.mark.parametrize(
        "family, true_params",
        [
            (Family.GAMMA, (2.0, 2.0)),
            (Family.GAMMA, (50.0, 2.0)),
            (Family.WEIBULL, (1.5, 4.4)),
            (Family.BETA, (2.0, 2.0)),
            (Family.BETA, (50.0, 50.0)),
            (Family.Q_GAUSSIAN, (4.0, 1.0)),
        ],
    )
    def test_score_norm_and_likelihood_dominance(self, family, true_params):
        n = 30_000
        true_model = ParametricModel(family, true_params)
        sample = sample_from(true_model, n, 2024)
        fitted = fit_mle(family, sample)
        score = distributions._FAMILIES[family].score(sample.values, *fitted.params)
        norm = float(np.linalg.norm(score))
        assert norm <= 1e-6
        assert log_likelihood(fitted, sample) >= log_likelihood(true_model, sample) - 1e-6 * n

    def test_convergence_verdict_does_not_depend_on_units(self):
        given = ParametricModel(Family.BETA, (50.0, 50.0))
        beta = sample_from(given, 10**6, derive_seed(1, "data"))
        student = np.sort(np.random.default_rng(2).standard_t(3.0, 10**6))
        cases = [
            # At n = 10^6 the scale score (sum(x)/tau - n k)/tau cancels two
            # terms near 1e8: it rounds to 0 at unit scale but to 3e-3 at
            # x 1e-3.  The tolerance must apply to tau * score, which is the
            # same in every unit of the data.
            (Family.GAMMA, beta.values, (1e-3, 1e3)),
            # The qgaussian search stops on the absolute score, which at x 1e-6
            # would be 1e6 times the unit-scale one; the fit runs in units of 2^e.
            (Family.Q_GAUSSIAN, student, (1e-6,)),
        ]
        for family, values, factors in cases:
            fitted = fit_mle(family, SortedSample(values))
            for factor in factors:
                rescaled = fit_mle(family, SortedSample(values * factor))
                assert rescaled.params[0] == pytest.approx(fitted.params[0], rel=1e-9)
                assert rescaled.params[1] == pytest.approx(fitted.params[1] * factor, rel=1e-9)

    def test_qgaussian_start_quartiles_are_student_t_quartiles(self):
        # written out as constants, they must equal what scipy computes bit
        # for bit, so that every qgaussian fit starts where it did
        from esjs.distributions import _QGAUSSIAN_START_QUARTILES

        assert [t for t, _ in _QGAUSSIAN_START_QUARTILES] == [2.2, 3.0, 5.0, 9.0, 21.0, 101.0]
        for t, q75 in _QGAUSSIAN_START_QUARTILES:
            assert q75 == float(special.stdtrit(t - 1.0, 0.75))

    @given(
        st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
        st.sampled_from([1e-300, 1e-160, 1e-3, 1.0]) | st.floats(1e-300, 1e300),
    )
    @example([1e200, -3.0, 0.0], 1e-200)  # z2 overflows for one value
    @example([1e300, -3.0, 0.0], 1e-100)  # ... and w * w does not underflow
    def test_qgaussian_terms_equal_the_three_sum_formula(self, xs, w):
        from esjs.distributions import (
            _log1p_z2, _qgaussian_log_norm, _qgaussian_loglik, _qgaussian_terms,
        )

        x = np.array(xs)
        with np.errstate(over="ignore", invalid="ignore"):
            z2 = (x / w) ** 2
            u = np.log1p(z2)
            big = ~np.isfinite(u)
            u = np.where(big, 2.0 * (np.log(np.where(big, np.abs(x), 1.0)) - math.log(w)), u)
            r = np.where(np.isfinite(z2), z2 / (1.0 + z2), 1.0)
        su, sr, sr3 = float(u.sum()), float(r.sum()), float((r * (3.0 - 2.0 * r)).sum())
        # the sums skip the isfinite pass only where no z2 overflowed
        assert _log1p_z2(x, w)[2] == (not np.all(np.isfinite(z2)))
        n, t = x.size, 3.0
        assert _qgaussian_loglik(x, t, w) == float(n * _qgaussian_log_norm(t, w) - 0.5 * t * su)
        if w * w == 0.0:
            # the Hessian divides by w * w: the fitter reads this as a width run to 0
            with pytest.raises(ZeroDivisionError):
                _qgaussian_terms(x, t, w)
            return
        ll, g, h = _qgaussian_terms(x, t, w)
        assert ll == _qgaussian_loglik(x, t, w)
        psi_gap = float(special.digamma(0.5 * t) - special.digamma(0.5 * (t - 1.0)))
        tri_gap = float(special.polygamma(1, 0.5 * t) - special.polygamma(1, 0.5 * (t - 1.0)))
        assert g[0] == 0.5 * n * psi_gap - 0.5 * su
        assert g[1] == (t * sr - n) / w
        assert h[0, 0] == 0.25 * n * tri_gap
        assert h[0, 1] == h[1, 0] == sr / w
        assert h[1, 1] == (n - t * sr3) / (w * w)

    def test_qgaussian_hessian_matches_finite_differences_of_the_score(self):
        from esjs.distributions import _qgaussian_terms

        x = sample_from(ParametricModel(Family.Q_GAUSSIAN, (4.0, 1.0)), 2000, 271).values
        probe = (4.3, 1.1)
        _, _, hessian = _qgaussian_terms(x, *probe)
        for j in range(2):
            step = 1e-5 * probe[j]
            up, dn = list(probe), list(probe)
            up[j] += step
            dn[j] -= step
            column = (_qgaussian_terms(x, *up)[1] - _qgaussian_terms(x, *dn)[1]) / (2 * step)
            assert hessian[:, j] == pytest.approx(column, rel=1e-5)

    def test_qgaussian_fit_reads_the_data_once_a_point(self, monkeypatch):
        # one log1p pass for each point the fit visits gives the likelihood,
        # score and Hessian there; reading each point twice took 37-49 passes
        passes = []
        log1p_z2 = distributions._log1p_z2

        def counted(x, w):
            passes[-1] += 1
            return log1p_z2(x, w)

        monkeypatch.setattr(distributions, "_log1p_z2", counted)
        for k in range(1, 5):
            passes.append(0)
            values = np.random.default_rng(k).standard_t(3.0, 10**5)
            fit_mle(Family.Q_GAUSSIAN, SortedSample.from_data(values))
        assert max(passes) <= 30, passes

    def test_qgaussian_where_the_moments_underflow(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            # Below about 1e-154 the second moment squared underflows to 0,
            # and below about 1e-155 the Hessian's w * w loses precision.
            # The fit runs in units of 2^e, so a Student-t sample fits as it
            # does at unit scale ...
            student = np.sort(np.random.default_rng(4).standard_t(3.0, 1000))
            fitted = fit_mle(Family.Q_GAUSSIAN, SortedSample(student))
            factors = (1e-155, 1e-160, 1e-170)
            tiny = [fit_mle(Family.Q_GAUSSIAN, SortedSample(student * f)) for f in factors]
            # ... and on repeated zeros, where the likelihood grows without
            # bound as the width shrinks, the search fails with the typed
            # error at every scale
            for scale in (1.0, 1e-300):
                with pytest.raises(ConvergenceError, match="width search ran to 0"):
                    fit_mle(Family.Q_GAUSSIAN, SortedSample.from_data([0.0, 0.0, 0.0, scale]))
        for factor, model in zip(factors, tiny):
            assert model.params[0] == pytest.approx(fitted.params[0], rel=1e-12)
            assert model.params[1] == pytest.approx(fitted.params[1] * factor, rel=1e-12)
        # the Hessian's overflow and the diverging search at 0 are handled,
        # not reported
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize(
        "family, values, shape",
        [
            # the sum of the data overflows
            (Family.GAMMA, [1e308, 1.5e308, 1.7e308], 20.6226),
            # z = x / scale is subnormal, and the score once came out inf
            (Family.WEIBULL, [1e-310, 2e-310, 5e-310], 1.66409),
        ],
    )
    def test_fits_at_the_ends_of_the_float_range(self, family, values, shape):
        model = fit_mle(family, SortedSample.from_data(values))
        factor = values[0]
        unit = fit_mle(family, SortedSample.from_data([v / factor for v in values]))
        assert model.params[0] == pytest.approx(shape, rel=1e-5)
        assert model.params[0] == pytest.approx(unit.params[0], rel=1e-9)
        assert model.params[1] == pytest.approx(unit.params[1] * factor, rel=1e-9)

    def test_data_wider_than_one_power_of_two_scale_holds(self):
        values = [1e-300, 1e300]
        # gamma keeps the least value normal, and its shape solves
        # log k - digamma(k) = log(mean) - mean(log x) = log(5e299)
        k, tau = fit_mle(Family.GAMMA, SortedSample.from_data(values)).params
        assert math.log(k) - special.digamma(k) == pytest.approx(math.log(5e299), rel=1e-13)
        assert tau == pytest.approx(5e299 / k, rel=1e-13)
        # weibull divides by the maximum, where 1e-300 underflows to 0
        with pytest.raises(ConvergenceError, match="more than float64's range"):
            fit_mle(Family.WEIBULL, SortedSample.from_data(values))

    def test_convergence_errors_quote_the_data_units(self):
        # The shape equation is solved on the data divided by their maximum,
        # so a sample with a spread of 1e-6 of its level fails with the typed
        # error, not a division by zero, and names the scale in data units.
        values = 1000.0 + 1e-3 * np.random.default_rng(1).weibull(2.0, 500)
        with pytest.raises(ConvergenceError, match=r"weibull fit: .*, 1000\.001\d*\)"):
            fit_mle(Family.WEIBULL, SortedSample.from_data(values))

    @pytest.mark.parametrize("family", [Family.GAMMA, Family.BETA])
    def test_convergence_errors_give_iterations_and_residual(self, family, monkeypatch):
        sample = sample_from(ParametricModel(family, (2.0, 3.0)), 500, 7)
        monkeypatch.setattr(distributions, "_MAX_ITER", 2)
        number = r"[-+.\de]+"
        message = {
            Family.GAMMA: rf"gamma shape iteration did not converge after 2 iterations "
                          rf"\(shape={number}, residual={number}\)$",
            Family.BETA: rf"beta fit did not converge after 2 iterations "
                         rf"\(alpha={number}, beta={number}, residual={number}\)$",
        }[family]
        with pytest.raises(ConvergenceError, match=message):
            fit_mle(family, sample)

    def test_shape_solver_gives_up_after_max_iterations(self):
        # a residual that never falls: each Newton step adds 1 to the shape
        with pytest.raises(ConvergenceError, match=(
            r"^weibull shape iteration did not converge after 200 iterations "
            r"\(shape=201, residual=1\)$"
        )):
            distributions._solve_shape("weibull", 1.0, lambda k: (1.0, -1.0))

    @pytest.mark.parametrize(
        "family, true_params",
        [
            (Family.GAMMA, (2.0, 2.0)),
            (Family.WEIBULL, (1.5, 4.4)),
            (Family.BETA, (2.0, 3.0)),
            (Family.Q_GAUSSIAN, (4.0, 1.0)),
        ],
    )
    def test_gradient_matches_finite_differences(self, family, true_params):
        model = ParametricModel(family, true_params)
        sample = sample_from(model, 400, 314)
        probe = ParametricModel(
            family, tuple(p * 1.07 + 0.015 for p in true_params)
        )
        grad = distributions._FAMILIES[family].score(sample.values, *probe.params)
        for i, value in enumerate(grad):
            h = 1e-6 * max(1.0, abs(probe.params[i]))
            up = list(probe.params)
            dn = list(probe.params)
            up[i] += h
            dn[i] -= h
            fd = (
                log_likelihood(ParametricModel(family, tuple(up)), sample)
                - log_likelihood(ParametricModel(family, tuple(dn)), sample)
            ) / (2 * h)
            assert value == pytest.approx(fd, rel=1e-5, abs=1e-7)


# the parameters that carry the data's units, written out here apart from
# the library's family table
UNITS = {
    Family.NORMAL: (0, 1),
    Family.EXPONENTIAL: (0,),
    Family.GAMMA: (1,),
    Family.WEIBULL: (1,),
    Family.Q_GAUSSIAN: (1,),
}


def _fit_outcome(family, values):
    """The fitted parameters, or the type of the error the fit raises."""
    try:
        return fit_mle(family, SortedSample.from_data(values)).params
    except (ValueError, ArithmeticError, ConvergenceError) as exc:
        return type(exc)


class TestPowerOfTwoScaling:
    @settings(max_examples=200)
    @given(
        family=st.sampled_from(list(UNITS)),
        values=st.one_of(
            # ties come from repeated draws of the sampled values
            st.lists(
                st.sampled_from([0.0, 1.0, -1.0]) | st.floats(-1e3, 1e3, allow_subnormal=False),
                min_size=2,
                max_size=12,
            ),
            # heavy-tailed samples, which the qgaussian fits
            st.integers(0, 2**32 - 1).map(
                lambda seed: np.random.default_rng(seed).standard_t(3.0, 40).tolist()
            ),
        ),
        data=st.data(),
    )
    def test_fit_of_scaled_data_is_the_scaled_fit(self, family, values, data):
        x = np.array(values)
        if family is Family.GAMMA or family is Family.WEIBULL:
            x = np.where(x == 0, 1.0, np.abs(x))  # inside the support
        elif family is Family.EXPONENTIAL:
            x = np.abs(x)
        nonzero = np.abs(x[x != 0])
        if nonzero.size:
            # every k in [-1000, 1000] that keeps each x 2^k normal
            lo = -1021 - math.frexp(float(nonzero.min()))[1]
            hi = 1024 - math.frexp(float(nonzero.max()))[1]
            k = data.draw(st.integers(max(lo, -1000), min(hi, 1000)))
        else:
            k = data.draw(st.integers(-1000, 1000))
        unit = _fit_outcome(family, x)
        scaled = _fit_outcome(family, np.ldexp(x, k))
        if isinstance(unit, type):
            assert scaled is unit
        else:
            assert scaled == tuple(
                math.ldexp(p, k) if i in UNITS[family] else p for i, p in enumerate(unit)
            )


class TestFitErrors:
    def test_support_violations_name_the_family(self):
        negatives = SortedSample.from_data([-1.0, 2.0])
        with pytest.raises(SupportError, match="gamma"):
            fit_mle(Family.GAMMA, negatives)
        with pytest.raises(SupportError, match="lognormal"):
            fit_mle(Family.LOG_NORMAL, negatives)
        with pytest.raises(SupportError, match="beta"):
            fit_mle(Family.BETA, SortedSample.from_data([0.4, 1.2]))
        with pytest.raises(SupportError, match="pareto"):
            fit_mle(Family.PARETO, SortedSample.from_data([0.5, 2.0]))

    def test_constant_samples_rejected(self):
        constant = SortedSample.from_data([2.0, 2.0, 2.0])
        for family in (Family.NORMAL, Family.UNIFORM, Family.GAMMA, Family.WEIBULL):
            with pytest.raises((ValueError, ConvergenceError)):
                fit_mle(family, constant)

    def test_constant_samples_name_the_family(self):
        # lognormal is the normal fit to log x, and says which it was
        constant = SortedSample.from_data([2.0, 2.0, 2.0])
        for family in (Family.NORMAL, Family.LOG_NORMAL):
            with pytest.raises(ValueError, match=f"^{family.value} fit requires a non-constant"):
                fit_mle(family, constant)

    def test_tiny_samples_rejected(self):
        with pytest.raises(ValueError):
            fit_mle(Family.NORMAL, SortedSample.from_data([1.0]))


# values on, one step beside and across every support bound, plus ties
# (drawn repeatedly), negatives, subnormals and extremes
EDGE_VALUES = st.one_of(
    st.sampled_from(
        [-1e300, -2.0, -1.0, -5e-324, 0.0, 5e-324, 1e-300, 0.5,
         1.0 - 2.0**-53, 1.0, 1.0 + 2.0**-52, 2.0, 1e300]
    ),
    st.floats(-100.0, 100.0),
)


class TestOneSupport:
    """Every reader of a family's support agrees with the written-out one."""

    @given(family=st.sampled_from(Family), values=st.lists(EDGE_VALUES, min_size=1, max_size=8))
    @example(family=Family.EXPONENTIAL, values=[0.0, 1.0])
    @example(family=Family.PARETO, values=[1.0, 2.0])
    @example(family=Family.GAMMA, values=[0.0, 1.0])
    @example(family=Family.BETA, values=[0.5, 1.0])
    @example(family=Family.GAMMA, values=[5e-324, 1e300])
    def test_fit_raises_support_error_exactly_when_support_problem_reports(
        self, family, values
    ):
        sample = SortedSample.from_data(values)
        problem = support_problem(family, sample)
        assert (problem is None) == bool(np.all(inside(SUPPORT[family], sample.values)))
        try:
            fit_mle(family, sample)
        except SupportError as exc:
            assert problem is not None
            assert str(exc) == f"{family.value} {problem}"
        except (ValueError, ArithmeticError, ConvergenceError):
            assert problem is None
        else:
            assert problem is None

    @given(
        model=st.sampled_from(REFERENCE_MODELS),
        values=st.lists(EDGE_VALUES, min_size=1, max_size=8),
    )
    @example(model=ParametricModel(Family.WEIBULL, (1.5, 4.4)), values=[1e300])  # (x/tau)**k = inf
    def test_density_and_survival_outside_the_support(self, model, values):
        support = model_support(model)
        lower, _, upper, _ = support
        x = np.array(values)
        out = ~inside(support, x)
        assert np.all(density(model, x)[out] == 0.0)
        surv = survival_of(model, x)
        assert np.all(surv[x <= lower] == 1.0)
        assert np.all(surv[x >= upper] == 0.0)
        assert np.all((surv >= 0.0) & (surv <= 1.0))

    @pytest.mark.parametrize("model", REFERENCE_MODELS, ids=lambda m: m.family.value)
    def test_density_at_the_support_bounds(self, model):
        # positive on a bound the support includes, 0 on one it excludes
        lower, lower_in, upper, upper_in = model_support(model)
        for bound, included in ((lower, lower_in), (upper, upper_in)):
            if math.isfinite(bound):
                assert (density(model, bound) > 0.0) == included

    @given(model=st.sampled_from(REFERENCE_MODELS), seed=st.integers(0, 2**32 - 1))
    def test_draws_lie_inside_the_support(self, model, seed):
        assert np.all(inside(model_support(model), sample_from(model, 200, seed).values))


class TestFamilyParsing:
    def test_round_trip(self):
        for fam in Family:
            assert Family.parse(fam.value) is fam

    def test_aliases_and_case(self):
        assert Family.parse("Log-Normal") is Family.LOG_NORMAL
        assert Family.parse("q-gaussian") is Family.Q_GAUSSIAN

    def test_unknown(self):
        with pytest.raises(ValueError, match="unknown family"):
            Family.parse("cauchy")


def _ulps(got: float, want) -> float:
    """|got - want| in units of 2^-52, scaled by max(1, |want|)."""
    return float(abs(mpmath.mpf(got) - want) / (mpmath.mpf(2) ** -52 * max(1, abs(want))))


class TestScalarGammaFunctions:
    """The gamma and beta fitters' digamma, trigamma and lgamma, against mpmath."""

    @settings(max_examples=400)
    @given(st.floats(1e-3, 1e8))
    # near the root of digamma, where its recurrence cancels, and both sides of
    # the recurrence's threshold 10
    @example(1.0)
    @example(1.4616321449683622)
    @example(2.5)
    @example(3.0)
    @example(float(np.nextafter(10.0, 0.0)) - 2 * 2.0**-49)
    @example(float(np.nextafter(10.0, 0.0)))
    @example(10.0)
    @example(float(np.nextafter(10.0, 11.0)))
    @example(float(np.nextafter(10.0, 11.0)) + 2 * 2.0**-49)
    def test_within_a_few_ulp_of_mpmath(self, x):
        with mpmath.workdps(50):
            assert _ulps(distributions._digamma(x), mpmath.digamma(x)) <= 4
            assert _ulps(distributions._trigamma(x), mpmath.psi(1, x)) <= 4
            # CPython's lgamma (a Lanczos sum) is 7.9 ulp off at worst in 10^6
            # draws over [1, 6], where the sum cancels; scipy's gammaln is 1.6
            assert _ulps(math.lgamma(x), mpmath.loggamma(x)) <= 10

    @pytest.mark.parametrize("family", [Family.GAMMA, Family.BETA])
    def test_fits_agree_with_scipy_gamma_functions(self, family, monkeypatch):
        shapes = np.geomspace(1e-2, 1e3, 6).tolist()
        grid = [(k, 2.0) for k in shapes] if family is Family.GAMMA else [
            (a, b) for a in shapes for b in shapes
        ]

        def fit(values, with_scipy):
            with monkeypatch.context() as patch:
                if with_scipy:
                    patch.setattr(distributions, "_digamma", lambda x: float(special.digamma(x)))
                    patch.setattr(distributions, "_trigamma",
                                  lambda x: float(special.polygamma(1, x)))
                return fit_mle(family, SortedSample.from_data(values)).params

        def residual(values, a, b):
            # the beta likelihood equations, in exact arithmetic, at the fit
            g1, g2 = float(np.log(values).mean()), float(np.log1p(-values).mean())
            with mpmath.workdps(50):
                psi_ab = mpmath.digamma(mpmath.mpf(a) + b)
                return float(max(abs(g1 - mpmath.digamma(a) + psi_ab),
                                 abs(g2 - mpmath.digamma(b) + psi_ab))), max(1, -g1, -g2)

        for params in grid:
            draws = sample_from(ParametricModel(family, params), 300, 17).values
            # at shapes near 1e-2 some draws round to 0 (and, for beta, to 1)
            values = draws[(draws > 0) & (draws < (1.0 if family is Family.BETA else np.inf))]
            ours, theirs = fit(values, False), fit(values, True)
            if family is Family.GAMMA:
                assert ours == pytest.approx(theirs, rel=1e-13, abs=0), params
            else:
                # At alpha = 1000, beta = 2 one ulp of digamma moves the root by
                # 2e-12 relative, scipy's digamma as much as this one, so the
                # check is that both solve the equations to their rounding
                mine, scale = residual(values, *ours)
                assert mine <= residual(values, *theirs)[0] + 4 * 2.0**-52 * scale, params
