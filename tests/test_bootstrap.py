import os
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from esjs import (
    BootstrapConfig,
    bootstrap_ci,
    moving_block_resample,
    percentile_of_replicates,
    replicate_values,
)
from esjs.seeds import derive_seed


def concatenated_blocks(series, block_length, seed):
    """Oracle: the drawn blocks as slices of the series, concatenated and cut to n.

    The starts are drawn as int64, whatever dtype the resampler draws them in.
    """
    n = len(series)
    rng = np.random.default_rng(seed)
    starts = rng.integers(0, n - block_length + 1, -(-n // block_length), dtype=np.int64)
    return np.concatenate([series[s : s + block_length] for s in starts])[:n]


@st.composite
def block_cases(draw):
    n = draw(st.integers(1, 300))
    dtype = draw(st.sampled_from([np.int32, np.int64, np.float64]))
    series = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(-1000, 1000, n)
    return series.astype(dtype), draw(st.integers(1, n)), draw(st.integers(0, 2**63 - 1))


class TestMovingBlockResample:
    @given(block_cases())
    def test_gathers_the_concatenated_blocks(self, case):
        series, block_length, seed = case
        out = moving_block_resample(series, block_length, seed)
        assert out.dtype == series.dtype
        np.testing.assert_array_equal(out, concatenated_blocks(series, block_length, seed))

    def test_full_length_block_reproduces_series(self):
        series = [4.0, 1.0, 3.0, 2.0]
        out = moving_block_resample(series, block_length=4, seed=5)
        np.testing.assert_array_equal(out, series)

    def test_unit_blocks_resample_values(self):
        series = np.arange(10.0)
        out = moving_block_resample(series, block_length=1, seed=5)
        assert out.shape == (10,)
        assert set(out) <= set(series)

    def test_blocks_are_contiguous(self):
        # block space for n=4, length 2: (x1,x2), (x2,x3), (x3,x4)
        series = np.array([10.0, 20.0, 30.0, 40.0])
        allowed = {(10.0, 20.0), (20.0, 30.0), (30.0, 40.0)}
        for seed in range(30):
            out = moving_block_resample(series, block_length=2, seed=seed)
            assert (out[0], out[1]) in allowed
            assert (out[2], out[3]) in allowed

    def test_truncates_to_series_length(self):
        series = np.arange(5.0)
        out = moving_block_resample(series, block_length=2, seed=11)
        assert out.shape == (5,)

    def test_integer_series_keep_their_dtype(self):
        positions = np.arange(10, dtype=np.int32)
        out = moving_block_resample(positions, block_length=3, seed=5)
        assert out.dtype == np.int32
        np.testing.assert_array_equal(out, moving_block_resample(positions * 1.0, 3, seed=5))

    @pytest.mark.parametrize(
        "n, block_length",
        sorted({(n, b) for n in (1, 2, 1000, 2**20) for b in (1, 7, n) if b <= n}),
    )
    def test_starts_are_the_int64_draw(self, n, block_length):
        # starts are drawn as int32 where the range fits, with the same values
        series = np.arange(n) * 3
        out = moving_block_resample(series, block_length, seed=12345 + n)
        np.testing.assert_array_equal(out, concatenated_blocks(series, block_length, 12345 + n))

    @pytest.mark.parametrize("high", [2**31 - 1, 2**31 - 2, 2**31 - 5, 2**31 - 1000])
    def test_int32_draws_are_the_int64_draws(self, high):
        for seed in range(3):
            wide = np.random.default_rng(seed).integers(0, high, 500, dtype=np.int64)
            narrow = np.random.default_rng(seed).integers(0, high, 500, dtype=np.int32)
            np.testing.assert_array_equal(narrow, wide)

    def test_invalid_block_length(self):
        with pytest.raises(ValueError):
            moving_block_resample([1.0, 2.0], block_length=0, seed=1)
        with pytest.raises(ValueError):
            moving_block_resample([1.0, 2.0], block_length=3, seed=1)


class TestPercentileRule:
    def test_nearest_rank_on_1_to_100(self):
        replicates = np.arange(1.0, 101.0)
        assert percentile_of_replicates(replicates, 0.025) == 3.0
        assert percentile_of_replicates(replicates, 0.975) == 98.0
        assert percentile_of_replicates(replicates, 1.0) == 100.0
        assert percentile_of_replicates(replicates, 0.0) == 1.0

    def test_endpoints_are_attained_values(self):
        rng = np.random.default_rng(2)
        replicates = rng.normal(size=137)
        for q in (0.01, 0.025, 0.5, 0.975, 0.99):
            assert percentile_of_replicates(replicates, q) in replicates


class TestBootstrapCi:
    def test_constant_statistic_degenerates(self):
        config = BootstrapConfig(resamples=50, seed=3)
        ci = bootstrap_ci(lambda d: 2.5, np.arange(10.0), config)
        assert ci.lb == ci.ub == ci.point == 2.5

    def test_deterministic_and_worker_independent(self):
        data = np.random.default_rng(8).normal(size=200)
        config = BootstrapConfig(resamples=120, seed=99)
        sequential = bootstrap_ci(np.mean, data, config, workers=1)
        threaded = bootstrap_ci(np.mean, data, config, workers=8)
        assert sequential == threaded
        reps_a = replicate_values(np.mean, data, config, workers=1)
        reps_b = replicate_values(np.mean, data, config, workers=8)
        np.testing.assert_array_equal(reps_a, reps_b)

    def test_endpoints_attained_and_cover_reasonably(self):
        data = np.random.default_rng(10).normal(loc=5.0, size=400)
        config = BootstrapConfig(resamples=200, seed=4)
        ci = bootstrap_ci(np.mean, data, config)
        reps = replicate_values(np.mean, data, config)
        assert ci.lb in reps and ci.ub in reps
        assert ci.lb <= ci.point <= ci.ub

    def test_levels_are_nested(self):
        data = np.random.default_rng(12).exponential(size=300)
        wide = bootstrap_ci(np.mean, data, BootstrapConfig(resamples=150, seed=6, level=0.99))
        narrow = bootstrap_ci(np.mean, data, BootstrapConfig(resamples=150, seed=6, level=0.80))
        assert wide.lb <= narrow.lb and narrow.ub <= wide.ub

    def test_basic_method_reflects_percentile(self):
        data = np.random.default_rng(14).normal(size=250)
        base = BootstrapConfig(resamples=100, seed=21)
        pct = bootstrap_ci(np.mean, data, base)
        basic = bootstrap_ci(
            np.mean, data, BootstrapConfig(resamples=100, seed=21, ci_method="basic")
        )
        assert basic.lb == pytest.approx(2 * pct.point - pct.ub, rel=1e-12)
        assert basic.ub == pytest.approx(2 * pct.point - pct.lb, rel=1e-12)

    def test_basic_method_reflects_about_a_given_point(self):
        data = np.random.default_rng(14).normal(size=250)
        pct = bootstrap_ci(np.mean, data, BootstrapConfig(resamples=100, seed=21))
        calls = []

        def mean(d):
            calls.append(d.size)
            return float(np.mean(d))

        config = BootstrapConfig(resamples=100, seed=21, ci_method="basic")
        given = bootstrap_ci(mean, data, config, point=10.0)
        assert len(calls) == config.resamples  # the replicates only
        assert given.point == 10.0
        assert (given.lb, given.ub) == (20.0 - pct.ub, 20.0 - pct.lb)

    def test_multiple_components_resampled_independently(self):
        a = np.zeros(50)
        b = np.ones(50)
        config = BootstrapConfig(resamples=25, seed=33)
        ci = bootstrap_ci(lambda x, y: float(np.mean(x) + np.mean(y)), (a, b), config)
        assert ci.point == 1.0
        assert ci.lb == ci.ub == 1.0

    def test_a_list_is_one_sample(self):
        # only a tuple holds several samples
        config = BootstrapConfig(resamples=20, seed=1)
        values = [1.0, 2.0, 3.0, 4.0]
        assert bootstrap_ci(np.mean, values, config) == bootstrap_ci(
            np.mean, np.array(values), config
        )

    @pytest.mark.parametrize(
        "config",
        [
            BootstrapConfig(resamples=6, seed=8),
            BootstrapConfig(resamples=6, seed=8, block_length=2),
        ],
    )
    def test_integer_components_keep_their_dtype(self, config):
        seen = set()

        def statistic(a, b, c):
            seen.add((a.dtype, b.dtype, c.dtype))
            return 0.0

        data = (np.arange(7, dtype=np.int32), np.arange(5, dtype=np.int64), [1.0, 2.0, 3.0])
        replicate_values(statistic, data, config)
        assert seen == {(np.dtype(np.int32), np.dtype(np.int64), np.dtype(np.float64))}

    def test_iid_is_blocks_of_one(self):
        data = (np.arange(37, dtype=np.int32), np.random.default_rng(3).normal(size=20))
        iid = BootstrapConfig(resamples=30, seed=5)
        unit_blocks = BootstrapConfig(resamples=30, seed=5, block_length=1)

        def statistic(a, b):
            return float(np.sum(a * np.arange(1, 38)) + np.sum(b * np.arange(1, 21)))

        np.testing.assert_array_equal(
            replicate_values(statistic, data, iid), replicate_values(statistic, data, unit_blocks)
        )

    def test_moving_block_config(self):
        series = np.sin(np.arange(64.0))
        config = BootstrapConfig(resamples=40, seed=2, block_length=8)
        ci = bootstrap_ci(np.mean, series, config)
        assert ci.lb <= ci.ub

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BootstrapConfig(resamples=0)
        with pytest.raises(ValueError):
            BootstrapConfig(level=1.0)
        with pytest.raises(ValueError):
            BootstrapConfig(block_length=0)
        with pytest.raises(ValueError):
            BootstrapConfig(ci_method="bca")
        with pytest.raises(ValueError):
            BootstrapConfig(seed=-1)


def _positions_statistic(a):
    return float(np.sum(a * np.arange(1, a.size + 1)))


class TestReplicateScheduling:
    data = np.arange(60, dtype=np.int64)

    @pytest.fixture
    def cpus(self, monkeypatch):
        """Sets how many CPUs the scheduler sees, which caps its helper threads."""
        return lambda count: monkeypatch.setattr(os, "cpu_count", lambda: count)

    @pytest.mark.parametrize("block_length", [None, 4])
    def test_replicates_are_the_same_for_any_workers(self, block_length, cpus):
        cpus(8)
        config = BootstrapConfig(resamples=97, seed=7, block_length=block_length)
        want = replicate_values(_positions_statistic, self.data, config, workers=1)
        assert want.dtype == np.float64 and want.shape == (97,)
        calls = []

        def statistic(a):
            calls.append(1)
            return _positions_statistic(a)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # threads hand over often, more of them than cores
        try:
            for workers in (2, 3, 8):
                calls.clear()
                got = replicate_values(statistic, self.data, config, workers=workers)
                np.testing.assert_array_equal(got, want)
                assert len(calls) == config.resamples  # each index taken once
        finally:
            sys.setswitchinterval(interval)

    def test_two_workers_are_the_caller_and_one_helper(self, cpus):
        cpus(2)
        # each thread waits at its first replicate until another thread has
        # one too, so both threads certainly run replicates
        seen, barrier = set(), threading.Barrier(2, timeout=30)

        def statistic(a):
            ident = threading.get_ident()
            if ident not in seen:
                seen.add(ident)
                barrier.wait()
            return _positions_statistic(a)

        replicate_values(statistic, self.data, BootstrapConfig(resamples=40, seed=1), workers=2)
        assert len(seen) == 2 and threading.get_ident() in seen

    def test_no_more_threads_than_replicates(self, cpus):
        cpus(8)
        seen = set()

        def statistic(a):
            seen.add(threading.get_ident())
            time.sleep(0.01)  # lets every started thread take a replicate
            return _positions_statistic(a)

        replicate_values(statistic, self.data, BootstrapConfig(resamples=3, seed=1), workers=8)
        assert 1 <= len(seen) <= 3

    @pytest.mark.parametrize("count, helpers", [(4, 3), (1, 0), (None, 0)],
                             ids=["4 cpus", "1 cpu", "unknown"])
    def test_no_more_threads_than_cpus(self, cpus, monkeypatch, count, helpers):
        # a stand-in thread class records each helper it is asked for and runs
        # none, so the caller runs every replicate itself
        made = []

        class RecordingThread:
            def __init__(self, target):
                made.append(target)

            def start(self):
                pass

            def join(self):
                pass

        cpus(count)
        # replicate_values makes its helpers from the threading module
        monkeypatch.setattr(threading, "Thread", RecordingThread)
        config = BootstrapConfig(resamples=50, seed=1)
        got = replicate_values(_positions_statistic, self.data, config, workers=5000)
        assert len(made) == helpers
        want = replicate_values(_positions_statistic, self.data, config, workers=1)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_a_failing_replicate_stops_the_rest(self, workers, cpus):
        cpus(8)
        config = BootstrapConfig(resamples=1000, seed=2)
        first = moving_block_resample(self.data, 1, derive_seed(config.seed, "replicate", 0, 0))
        calls = []

        def statistic(a):
            calls.append(1)
            if np.array_equal(a, first):
                raise ArithmeticError("replicate 0")
            time.sleep(0.001)  # lets the failing thread run
            return _positions_statistic(a)

        with pytest.raises(ArithmeticError, match="replicate 0"):
            replicate_values(statistic, self.data, config, workers=workers)
        assert len(calls) <= 25  # the threads in flight finish their replicate, no more
