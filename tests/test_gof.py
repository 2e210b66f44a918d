import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from esjs import (
    BootstrapConfig,
    EsjsFactor,
    Family,
    ParametricModel,
    SortedSample,
    bootstrap_ci,
    compare_families,
    derive_seed,
    fit_mle,
    fit_report,
    powerlaw_fit,
    sample_from,
    scaling_experiment,
    replicate_values,
    simulate_experiment,
    support_problem,
)
from esjs.divergence import _CHUNK, _esjs_of_positions, _pool, _Workspace
from esjs.gof import _esjs_between

NORMAL01 = ParametricModel(Family.NORMAL, (0.0, 1.0))


class TestSupportProblem:
    def test_positive_only_families(self):
        with_negatives = SortedSample.from_data([-0.5, 1.0, 2.0])
        assert support_problem(Family.GAMMA, with_negatives) is not None
        assert support_problem(Family.NORMAL, with_negatives) is None
        assert support_problem(Family.Q_GAUSSIAN, with_negatives) is None

    def test_unit_interval_family(self):
        outside = SortedSample.from_data([0.2, 1.2])
        inside = SortedSample.from_data([0.2, 0.8])
        assert support_problem(Family.BETA, outside) is not None
        assert support_problem(Family.BETA, inside) is None

    def test_pareto_lower_bound(self):
        assert support_problem(Family.PARETO, SortedSample.from_data([0.9, 2.0])) is not None
        assert support_problem(Family.PARETO, SortedSample.from_data([1.0, 2.0])) is None


class TestFitReport:
    def test_fields_and_seed_derivation(self):
        data = sample_from(NORMAL01, 3_000, 8)
        config = BootstrapConfig(resamples=25, seed=17)
        report = fit_report(data, Family.NORMAL, config)
        assert report.family is Family.NORMAL
        assert report.model_sample_size == 3_000
        assert report.esjs >= 0.0
        assert report.ci.level == 0.95
        # same config reproduces the row exactly
        again = fit_report(data, Family.NORMAL, config)
        assert report == again

    @pytest.mark.parametrize("bins", [None, 1000])
    def test_ci_does_not_depend_on_workers(self, bins):
        data = sample_from(NORMAL01, 2_000, 8)
        config = BootstrapConfig(resamples=30, seed=5)
        one = fit_report(data, Family.NORMAL, config, bins=bins, workers=1)
        two = fit_report(data, Family.NORMAL, config, bins=bins, workers=2)
        assert one == two
        # the interval's point is the replicate statistic on the data as drawn
        assert one.ci.point == one.esjs

    def test_support_violation_raises(self):
        data = sample_from(NORMAL01, 100, 8)
        config = BootstrapConfig(resamples=5, seed=1)
        with pytest.raises(Exception, match="positive"):
            fit_report(data, Family.GAMMA, config)


@st.composite
def resampled_pairs(draw):
    """A model sample and a data set of independent sizes, a bin count, and
    a resampling plan."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-100, 100))
    levels = draw(st.sampled_from([1, 2, 5, 2**20]))  # few levels: heavy ties

    def sample():
        size = draw(st.integers(1, 60))
        return SortedSample.from_data(rng.integers(-levels, levels + 1, size) / levels * scale)

    p, q = sample(), sample()
    bins = draw(st.sampled_from([None, 1, 2, 7, 1000, 10**6]))
    if draw(st.booleans()):
        block = draw(st.integers(1, min(p.n, q.n)))
        config = BootstrapConfig(resamples=4, seed=3, block_length=block)
    else:
        config = BootstrapConfig(resamples=4, seed=3)
    return p, q, bins, config


class TestReplicateSweep:
    @given(resampled_pairs())
    @example((SortedSample.from_data([2.0]), SortedSample.from_data([2.0]), 10,
              BootstrapConfig(resamples=3, seed=1)))
    @example((SortedSample.from_data([1.0, 1.0, 3.0]), SortedSample.from_data([1.0]), 10**6,
              BootstrapConfig(resamples=8, seed=1, block_length=1)))
    # p lies below q, so p's survival is 0 where q's is still 1: the integrand's
    # masked slots
    @example((SortedSample.from_data([1.0, 2.0, 2.0]), SortedSample.from_data([5.0, 6.0, 7.5]),
              None, BootstrapConfig(resamples=4, seed=2)))
    def test_positions_statistic_equals_the_values_statistic(self, case):
        # the same draws, scored from positions in the pooled values on one
        # and on two threads, and from the resampled values themselves
        p, q, bins, config = case
        pooled, p_pos, q_pos = _pool(p, q)
        assert np.array_equal(pooled[p_pos], p.values)
        assert np.array_equal(pooled[q_pos], q.values)
        ws = _Workspace()
        point = _esjs_of_positions(pooled, p_pos, q_pos, bins, ws)
        one, two = (
            replicate_values(
                lambda m, d: _esjs_of_positions(pooled, m, d, bins, ws),
                (p_pos, q_pos),
                config,
                workers=workers,
            )
            for workers in (1, 2)
        )
        np.testing.assert_array_equal(one, two)
        want = replicate_values(
            lambda m, d: _esjs_between(SortedSample.from_data(m), SortedSample.from_data(d), bins),
            (p.values, q.values),
            config,
        )
        assert point == _esjs_between(p, q, bins)
        np.testing.assert_array_equal(one, want)

    @given(st.lists(resampled_pairs(), min_size=2, max_size=4))
    def test_a_reused_workspace_scores_as_a_fresh_one(self, cases):
        # pooled sizes and grids change from pair to pair, so a longer pair
        # leaves slots past the end of the next one
        ws = _Workspace()
        for p, q, bins, config in cases:
            pooled, p_pos, q_pos = _pool(p, q)
            for b in (None, bins):
                reused = replicate_values(
                    lambda m, d: _esjs_of_positions(pooled, m, d, b, ws), (p_pos, q_pos), config
                )
                fresh = replicate_values(
                    lambda m, d: _esjs_of_positions(pooled, m, d, b, _Workspace()),
                    (p_pos, q_pos),
                    config,
                )
                np.testing.assert_array_equal(reused, fresh)

    @pytest.mark.parametrize("bins", [None, 10**6])
    def test_thread_workspaces_hold_no_pooled_length_float_array(self, bins):
        # the kernel's float buffers are a chunk long whatever the pool's size
        rng = np.random.default_rng(4)
        p, q = (SortedSample.from_data(rng.gamma(2.0, 2.0, 100_000)) for _ in range(2))
        pooled, p_pos, q_pos = _pool(p, q)
        assert pooled.size == 200_000
        ws = _Workspace()
        seen = []

        def statistic(m, d):
            value = _esjs_of_positions(pooled, m, d, bins, ws)
            seen.append(dict(vars(ws)))  # this thread's arrays
            return value

        replicate_values(statistic, (p_pos, q_pos), BootstrapConfig(resamples=4, seed=1), workers=2)
        assert len(seen) == 4
        for arrays in seen:
            floats = [a.size for a in arrays.values() if a.dtype == np.float64]
            assert len(floats) == 4 and max(floats) <= _CHUNK


@st.composite
def tied_samples(draw):
    """A non-constant sample of 2 to 60 points on a few levels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.integers(-100, 100))
    levels = draw(st.sampled_from([1, 2, 5]))
    units = rng.integers(-levels, levels + 1, draw(st.integers(2, 60)))
    units[:2] = -levels, levels
    return SortedSample.from_data(units / levels * scale)


class TestTiesAndOnePoint:
    @given(tied_samples(), st.sampled_from([Family.NORMAL, Family.UNIFORM]),
           st.sampled_from([None, 1, 7, 1000, 10**6]))
    def test_report_interval_is_the_values_path_interval(self, data, family, bins):
        # a one-point model sample against tied data: the report's interval,
        # from positions in the pooled values, is the one from the values
        config = BootstrapConfig(resamples=8, seed=6)
        report = fit_report(data, family, config, model_sample_size=1, bins=bins)
        model_sample = sample_from(
            fit_mle(family, data), 1, derive_seed(config.seed, "model", family.value)
        )
        want = bootstrap_ci(
            lambda m, d: _esjs_between(SortedSample.from_data(m), SortedSample.from_data(d), bins),
            (model_sample.values, data.values),
            replace(config, seed=derive_seed(config.seed, "bootstrap", family.value)),
        )
        assert report.esjs == want.point
        assert report.ci == want


@st.composite
def dyadic_shifts(draw):
    """Two samples of multiples of 2^m with heavy ties, and c = 2^(m+j) with
    |j| <= 30: each value plus c needs at most 51 bits, so the sum is exact."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(-900, 900))
    levels = draw(st.sampled_from([1, 2, 5, 2**20]))

    def sample():
        size = draw(st.integers(1, 60))
        return SortedSample.from_data(np.ldexp(rng.integers(-levels, levels + 1, size), m))

    p, q = sample(), sample()
    return p, q, math.ldexp(1.0, m + draw(st.integers(-30, 30)))


class TestDyadicShift:
    @given(dyadic_shifts())
    def test_raw_scores_are_bit_identical(self, case):
        # an exact shift keeps every gap between values, and so the point
        # score and every bootstrap replicate
        p, q, c = case
        shifted = SortedSample(p.values + c), SortedSample(q.values + c)
        assert np.array_equal(shifted[0].values - c, p.values)
        assert np.array_equal(shifted[1].values - c, q.values)
        assert _esjs_between(*shifted, None) == _esjs_between(p, q, None)
        config = BootstrapConfig(resamples=4, seed=3)
        base, moved = (
            replicate_values(
                lambda m, d: _esjs_of_positions(pooled, m, d, None, _Workspace()),
                (a_pos, b_pos),
                config,
            )
            for pooled, a_pos, b_pos in (_pool(p, q), _pool(*shifted))
        )
        np.testing.assert_array_equal(base, moved)


class TestSimulateExperiment:
    def test_normal_vs_uniform_ranking(self):
        config = BootstrapConfig(resamples=10, seed=99)
        report = simulate_experiment(NORMAL01, [Family.NORMAL, Family.UNIFORM], 5_000, config)
        assert report.best is Family.NORMAL
        assert report.challenger is Family.UNIFORM
        assert report.factor.ratio > 1.0
        best_row = min(report.rows, key=lambda r: r.esjs)
        assert best_row.family is report.best

    def test_factor_is_challenger_over_champion(self):
        config = BootstrapConfig(resamples=5, seed=99)
        report = simulate_experiment(NORMAL01, [Family.NORMAL, Family.UNIFORM], 2_000, config)
        score = {row.family: row.esjs for row in report.rows}
        champion, challenger = score[report.best], score[report.challenger]
        assert report.factor == EsjsFactor(challenger / champion, challenger, champion)

    def test_single_hypothesis_flag(self):
        config = BootstrapConfig(resamples=5, seed=4)
        report = simulate_experiment(NORMAL01, [Family.NORMAL], 1_000, config)
        assert report.factor.ratio == 1.0
        assert report.factor_note == "single hypothesis"
        assert report.challenger is None

    def test_incompatible_hypotheses_are_skipped_with_reason(self):
        config = BootstrapConfig(resamples=5, seed=4)
        report = simulate_experiment(
            NORMAL01, [Family.NORMAL, Family.LOG_NORMAL, Family.BETA], 2_000, config
        )
        skipped = dict(report.skipped)
        assert Family.LOG_NORMAL in skipped and "positive" in skipped[Family.LOG_NORMAL]
        assert Family.BETA in skipped
        assert [row.family for row in report.rows] == [Family.NORMAL]

    def test_all_skipped_is_an_error(self):
        config = BootstrapConfig(resamples=5, seed=4)
        with pytest.raises(ValueError, match="all hypotheses skipped"):
            simulate_experiment(NORMAL01, [Family.BETA, Family.PARETO], 1_000, config)

    def test_exclusion_list_changes_challenger(self):
        gamma22 = ParametricModel(Family.GAMMA, (2.0, 2.0))
        config = BootstrapConfig(resamples=5, seed=12)
        menu = [Family.GAMMA, Family.WEIBULL, Family.NORMAL]
        base = simulate_experiment(gamma22, menu, 20_000, config)
        assert base.best is Family.GAMMA
        assert base.challenger is Family.WEIBULL
        excluded = simulate_experiment(
            gamma22, menu, 20_000, config, exclude_from_factor=[Family.WEIBULL]
        )
        assert excluded.challenger is Family.NORMAL
        assert excluded.factor.ratio >= base.factor.ratio

    def test_deterministic(self):
        config = BootstrapConfig(resamples=8, seed=31)
        a = simulate_experiment(NORMAL01, [Family.NORMAL, Family.UNIFORM], 2_000, config)
        b = simulate_experiment(NORMAL01, [Family.NORMAL, Family.UNIFORM], 2_000, config)
        assert a == b

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            simulate_experiment(NORMAL01, [Family.NORMAL], 1, BootstrapConfig(seed=1))


class TestCompareFamilies:
    def test_on_simulated_gamma_data(self):
        data = sample_from(ParametricModel(Family.GAMMA, (2.0, 2.0)), 20_000, 44)
        config = BootstrapConfig(resamples=10, seed=44)
        report = compare_families(
            data, [Family.GAMMA, Family.NORMAL, Family.UNIFORM], config
        )
        assert report.best is Family.GAMMA
        assert len(report.rows) == 3

    def test_a_family_given_twice_is_rejected(self):
        # scored twice, the family would be its own challenger, with factor 1
        data = sample_from(ParametricModel(Family.GAMMA, (2.0, 2.0)), 500, 45)
        config = BootstrapConfig(resamples=3, seed=45)
        with pytest.raises(ValueError, match="family gamma is given twice"):
            compare_families(data, [Family.GAMMA, Family.WEIBULL, Family.GAMMA], config)

    def test_binned_scoring_close_to_exact(self):
        data = sample_from(NORMAL01, 5_000, 3)
        config = BootstrapConfig(resamples=5, seed=3)
        exact = compare_families(data, [Family.NORMAL], config)
        binned = compare_families(data, [Family.NORMAL], config, bins=200_000)
        assert binned.rows[0].esjs == pytest.approx(exact.rows[0].esjs, rel=0.05, abs=1e-5)


class TestScalingExperiment:
    def test_single_size(self):
        rows = scaling_experiment(NORMAL01, [512], seed=5)
        assert len(rows) == 1
        assert rows[0].size == 512
        assert rows[0].esjs > 0

    def test_divergence_shrinks_with_n(self):
        rows = scaling_experiment(NORMAL01, [64, 65536], seed=5)
        assert rows[0].esjs > rows[1].esjs

    def test_validates_sizes(self):
        with pytest.raises(ValueError):
            scaling_experiment(NORMAL01, [], seed=5)
        with pytest.raises(ValueError):
            scaling_experiment(NORMAL01, [1], seed=5)


class TestPowerlawFit:
    def test_exact_powerlaw(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 100.0])
        ys = 2.0 * xs**-0.5
        amp, expo = powerlaw_fit(xs, ys)
        assert amp == pytest.approx(2.0, rel=1e-9)
        assert expo == pytest.approx(-0.5, abs=1e-12)

    def test_constant_series(self):
        amp, expo = powerlaw_fit([1.0, 2.0, 3.0], [3.0, 3.0, 3.0])
        assert amp == pytest.approx(3.0, rel=1e-12)
        assert expo == pytest.approx(0.0, abs=1e-12)

    def test_noisy_decaying_series(self):
        # frozen regression pair: a slowly decaying noisy series over sizes
        # 2^5..2^20 whose log-log fit is 0.2426 * x**-0.4691
        sizes = [2**k for k in range(5, 21)]
        scores = [
            0.0444, 0.0350, 0.0233, 0.0197, 0.0112, 0.0079, 0.0071, 0.0050,
            0.0042, 0.0033, 0.0018, 0.0017, 0.0011, 0.0007, 0.0004, 0.0003,
        ]
        amp, expo = powerlaw_fit(sizes, scores)
        assert amp == pytest.approx(0.2426, abs=0.05)
        assert expo == pytest.approx(-0.4691, abs=0.03)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            powerlaw_fit([1.0], [2.0])
        with pytest.raises(ValueError):
            powerlaw_fit([1.0, 2.0], [0.0, 1.0])
        with pytest.raises(ValueError):
            powerlaw_fit([1.0, 2.0, 3.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            powerlaw_fit([2.0, 2.0], [1.0, 1.0])
