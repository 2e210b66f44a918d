import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from esjs import (
    DEFAULT_BINS,
    Family,
    ParametricModel,
    SortedSample,
    StepSurvival,
    empirical_survival,
    km_binned_survival,
    sample_from,
    survival_entropy,
)

from conftest import (
    full_grid_binned_survival,
    random_sample,
    step_integral_of_neg_slogs,
    unique_counts_survival,
)


class TestSortedSample:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="empty sample"):
            SortedSample(np.array([]))
        with pytest.raises(ValueError, match="empty sample"):
            SortedSample.from_data([])

    def test_rejects_unsorted_and_nonfinite(self):
        with pytest.raises(ValueError):
            SortedSample([2.0, 1.0])
        with pytest.raises(ValueError):
            SortedSample([1.0, np.nan])

    def test_from_data_sorts(self):
        s = SortedSample.from_data([3, 1, 2])
        assert list(s.values) == [1.0, 2.0, 3.0]
        assert (s.n, s.min, s.max) == (3, 1.0, 3.0)

    def test_order_check_does_not_overflow(self):
        # neighbours 2e308 apart: checking the order by subtracting them overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(SortedSample.from_data([1e308, -1e308]).values) == [-1e308, 1e308]
            with pytest.raises(ValueError, match="non-decreasing"):
                SortedSample([1e308, -1e308])

    def test_values_are_immutable(self):
        s = SortedSample.from_data([1, 2])
        with pytest.raises(ValueError):
            s.values[0] = 5.0


class TestEmpiricalSurvival:
    def test_basic_steps(self):
        surv = empirical_survival(SortedSample.from_data([1, 2, 3]))
        assert surv(0.5) == 1.0
        assert surv(1.0) == pytest.approx(2 / 3)
        assert surv(1.5) == pytest.approx(2 / 3)
        assert surv(2.0) == pytest.approx(1 / 3)
        assert surv(3.0) == 0.0
        assert surv(99.0) == 0.0

    def test_ties_drop_jointly(self):
        surv = empirical_survival(SortedSample.from_data([1, 1, 2]))
        assert list(surv.breakpoints) == [1.0, 2.0]
        assert surv(1.0) == pytest.approx(1 / 3)
        assert surv(2.0) == 0.0

    def test_single_observation(self):
        surv = empirical_survival(SortedSample.from_data([5.0]))
        assert surv(4.9) == 1.0
        assert surv(5.0) == 0.0

    def test_glivenko_cantelli_at_zero(self):
        # oracle: the standard normal survival at 0 is exactly 1/2
        sample = sample_from(ParametricModel(Family.NORMAL, (0, 1)), 100_000, 11)
        surv = empirical_survival(sample)
        assert abs(surv(0.0) - 0.5) < 0.01

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 300),
        st.sampled_from([1, 2, 5, 2**20]),
        st.sampled_from([1e-308, 1e-5, 1.0, 1e5, 1e308]),
    )
    @example(2, 2, 1, 1e308)  # the sample [-1e308, 1e308]
    def test_equals_the_unique_counts_definition(self, seed, n, levels, scale):
        # few levels make ties; 1e308 puts neighbours past float64's range apart
        rng = np.random.default_rng(seed)
        sample = SortedSample.from_data(rng.integers(-levels, levels + 1, n) / levels * scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            surv = empirical_survival(sample)
        breakpoints, values = unique_counts_survival(sample)
        np.testing.assert_array_equal(surv.breakpoints, breakpoints)
        assert surv.values.tobytes() == values.tobytes()

    def test_complements_the_ecdf(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            sample = random_sample(rng)
            surv = empirical_survival(sample)
            for x in rng.uniform(sample.min - 1, sample.max + 1, 5):
                below = np.count_nonzero(sample.values <= x) / sample.n
                assert surv(x) + below == pytest.approx(1.0, abs=1e-12)


@st.composite
def binning_cases(draw):
    """A sorted sample, a bin count and bounds, over 400 decades of scale.

    Values lie on a lattice of ``levels`` units per ``scale`` (few levels
    make ties) or on a grid edge or one ulp either side of it, where the
    snap must pick the right edge.  Bounds are the sample range, or a
    lattice pair that may be wider than the sample or cut it on either side.
    """
    scale = 10.0 ** draw(st.integers(-200, 200))
    offset = draw(st.sampled_from([0.0, 1.0, -7.0, 1e4]))
    levels = draw(st.sampled_from([1, 3, 100, 2**20]))
    lattice = st.integers(-2 * levels, 2 * levels).map(lambda u: (u / levels + offset) * scale)
    lo, hi = sorted(draw(st.tuples(lattice, lattice)))
    bins = draw(st.integers(1, 10 ** draw(st.integers(0, 6))))
    edges = np.linspace(lo, hi, bins + 1)
    near_edge = st.tuples(st.integers(0, bins), st.sampled_from([-1, 0, 1])).map(
        lambda jd: float(np.nextafter(edges[jd[0]], jd[1] * np.inf) if jd[1] else edges[jd[0]])
    )
    values = draw(st.lists(lattice | near_edge, min_size=1, max_size=300))
    if draw(st.booleans()):
        return SortedSample.from_data(values), bins, (lo, hi)
    # default bounds: make (lo, hi) the sample range
    return SortedSample.from_data(np.clip(values + [lo, hi], lo, hi)), bins, None


class TestKmBinnedSurvival:
    def test_grid_aligned_with_jumps_matches_empirical(self):
        sample = SortedSample.from_data([1, 2, 3])
        binned = km_binned_survival(sample, bins=2, bounds=(1.0, 3.0))
        exact = empirical_survival(sample)
        for edge in binned.breakpoints:
            assert binned(edge) == exact(edge)

    def test_two_point_sample_on_grid(self):
        # hand evaluation of the survival on edges 1..10
        sample = SortedSample.from_data([0.0, 10.0])
        binned = km_binned_survival(sample, bins=10, bounds=(0.0, 10.0))
        assert [binned(float(k)) for k in range(1, 10)] == [0.5] * 9
        assert binned(10.0) == 0.0
        # only the edges the observations snap to are breakpoints
        assert list(binned.breakpoints) == [1.0, 10.0]

    def test_default_bin_count(self):
        assert DEFAULT_BINS == 10**6
        import inspect

        sig = inspect.signature(km_binned_survival)
        assert sig.parameters["bins"].default == 10**6

    def test_invalid_inputs(self):
        sample = SortedSample.from_data([1, 2])
        with pytest.raises(ValueError):
            km_binned_survival(sample, bins=0)
        with pytest.raises(ValueError):
            km_binned_survival(sample, bins=4, bounds=(3.0, 3.0))
        # bin width underflows to 0, or the range overflows float64
        with pytest.raises(ValueError):
            km_binned_survival(SortedSample.from_data([0.0, 5e-324]), bins=10**6)
        with pytest.raises(ValueError):
            km_binned_survival(sample, bins=10, bounds=(-1e308, 1e308))

    @given(binning_cases())
    def test_equals_the_full_grid_at_every_edge(self, case):
        sample, bins, bounds = case
        lo, hi = bounds if bounds is not None else (sample.min, sample.max)
        if not lo < hi:
            with pytest.raises(ValueError):
                km_binned_survival(sample, bins, bounds)
            return
        edges, want = full_grid_binned_survival(sample, bins, bounds)
        if not np.all(np.diff(edges) > 0):
            return  # the full grid is not a valid step function either
        binned = km_binned_survival(sample, bins, bounds)
        assert binned.breakpoints.size <= min(sample.n, bins)
        np.testing.assert_array_equal(binned(edges), want)
        assert binned(np.nextafter(edges[0], -np.inf)) == 1.0


class TestSurvivalEntropy:
    def test_two_point_sample(self):
        # oracle: quadrature over [0,1] where the survival is constant 1/2
        expected = 0.5 * math.log(2.0)
        assert survival_entropy(SortedSample.from_data([0, 1])) == pytest.approx(
            expected, abs=1e-15
        )
        assert expected == pytest.approx(0.34657, abs=1e-5)

    def test_singleton_is_zero(self):
        assert survival_entropy(SortedSample.from_data([5.0])) == 0.0
        assert survival_entropy(SortedSample.from_data([2.0, 2.0, 2.0])) == 0.0

    def test_three_point_sample(self):
        expected = -((2 / 3) * math.log(2 / 3) + (1 / 3) * math.log(1 / 3))
        got = survival_entropy(SortedSample.from_data([0, 1, 2]))
        assert got == pytest.approx(expected, abs=1e-15)
        assert got == pytest.approx(0.63651, abs=1e-5)

    def test_matches_exact_piecewise_integration(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            sample = random_sample(rng, n_min=2, n_max=500)
            direct = survival_entropy(sample)
            oracle = step_integral_of_neg_slogs(empirical_survival(sample))
            assert direct == pytest.approx(oracle, rel=1e-10, abs=1e-13)
            assert direct >= 0.0

    def test_shift_invariant_and_positively_homogeneous(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            sample = random_sample(rng)
            base = survival_entropy(sample)
            shifted = survival_entropy(SortedSample(sample.values + 7.25))
            scaled = survival_entropy(SortedSample(sample.values * 3.0))
            assert shifted == pytest.approx(base, rel=1e-9, abs=1e-12)
            assert scaled == pytest.approx(3.0 * base, rel=1e-12)

    def test_gaps_past_the_largest_float(self):
        # the gap 2e308 overflows float64, the entropy 1e308 log 2 does not
        got = survival_entropy(SortedSample.from_data([-1e308, 1e308]))
        assert got == pytest.approx(1e308 * math.log(2.0), rel=1e-15)
        # at ordinary scale the power-of-two units change no bit
        values = np.sort(np.random.default_rng(31).normal(3.0, 2.0, 1000))
        tail = 1.0 - np.arange(1, values.size) / values.size
        plain = float(-np.sum(np.diff(values) * tail * np.log(tail)))
        assert survival_entropy(SortedSample(values)) == plain


class TestStepSurvivalCall:
    def test_levels_before_at_between_and_after_the_breakpoints(self):
        surv = StepSurvival(np.array([-1.0, 0.5, 2.0]), np.array([0.75, 0.25, 0.0]))
        x = np.array([-np.inf, -3.0, -1.0, 0.0, 0.5, 0.5000001, 2.0, 1e300, np.inf])
        want = [1.0, 1.0, 0.75, 0.75, 0.25, 0.25, 0.0, 0.0, 0.0]
        assert surv(x).tolist() == want
        assert [surv(v) for v in x] == want
        assert isinstance(surv(0.0), float)
        assert surv(x.reshape(3, 3)).tolist() == np.reshape(want, (3, 3)).tolist()
        with pytest.raises(ValueError):
            surv.values[0] = 0.5


class TestStepSurvivalValidation:
    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            StepSurvival(np.array([1.0, 1.0]), np.array([0.5, 0.0]))
        with pytest.raises(ValueError):
            StepSurvival(np.array([1.0, 2.0]), np.array([0.2, 0.5]))
        with pytest.raises(ValueError):
            StepSurvival(np.array([1.0]), np.array([1.5]))
