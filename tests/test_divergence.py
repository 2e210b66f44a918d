import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from esjs import (
    EsjsFactor,
    SortedSample,
    StepSurvival,
    empirical_survival,
    esjs,
    km_binned_survival,
    survival_entropy,
)

from esjs.divergence import _CHUNK, _esjs_of_positions, _pool, _step_sum, _Workspace
from esjs.gof import _esjs_between

from conftest import esjs_spacings, random_sample, segment_esjs_oracle


def _pair(rng):
    return (
        empirical_survival(random_sample(rng)),
        empirical_survival(random_sample(rng)),
    )


class TestEsjs:
    def test_identity_is_exactly_zero(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            surv = empirical_survival(random_sample(rng))
            assert esjs(surv, surv) == 0.0

    def test_interleaved_two_point_samples(self):
        # oracle: explicit evaluation over the segments [0,1), [1,2), [2,3)
        p = empirical_survival(SortedSample.from_data([0.0, 2.0]))
        q = empirical_survival(SortedSample.from_data([1.0, 3.0]))
        expected = (
            0.5 * (0.5 * math.log(0.5 / 0.75) + 1.0 * math.log(1.0 / 0.75))
            + 0.0
            + 0.5 * 0.5 * math.log(0.5 / 0.25)
        )
        assert esjs(p, q) == pytest.approx(expected, abs=1e-15)
        assert esjs(p, q) == pytest.approx(segment_esjs_oracle(p, q), abs=1e-15)

    def test_matches_segment_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            p, q = _pair(rng)
            got = esjs(p, q)
            assert got == pytest.approx(segment_esjs_oracle(p, q), rel=1e-12, abs=1e-14)

    def test_symmetric_bitwise_and_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            p, q = _pair(rng)
            forward = esjs(p, q)
            assert forward == esjs(q, p)
            assert forward >= 0.0

    def test_positive_when_different(self):
        p = empirical_survival(SortedSample.from_data([0.0, 1.0]))
        q = empirical_survival(SortedSample.from_data([0.5, 1.5]))
        assert esjs(p, q) > 0.0

    def test_binned_bounds_that_cut_a_sample_give_inf(self):
        # bounds below p's 5 leave p's survival at 1/3 past the grid while
        # q's is 0 there: the integrand is nonzero on the unbounded tail
        p = SortedSample.from_data([0.0, 1.0, 5.0])
        q = SortedSample.from_data([0.0, 2.0, 3.0])
        cut = km_binned_survival(p, 10, (0.0, 3.0)), km_binned_survival(q, 10, (0.0, 3.0))
        assert esjs(*cut) == math.inf
        assert esjs(*reversed(cut)) == math.inf
        # bounds that hold both samples end both survivals at 0
        whole = km_binned_survival(p, 10, (0.0, 5.0)), km_binned_survival(q, 10, (0.0, 5.0))
        assert esjs(*whole) == 0.25936556631921465
        assert esjs(*whole) == pytest.approx(segment_esjs_oracle(*whole), rel=1e-15)

    def test_equal_last_levels_above_zero_give_a_finite_score(self):
        # the integrand is 0 on the unbounded tail wherever both levels agree
        rng = np.random.default_rng(6)

        def step(tail):
            breakpoints = np.unique(rng.uniform(0.0, 10.0, int(rng.integers(1, 60))))
            values = np.sort(rng.uniform(tail, 1.0, breakpoints.size))[::-1]
            values[-1] = tail
            return StepSurvival(breakpoints, values)

        for _ in range(20):
            tail = rng.uniform(0.05, 0.9)
            p, q = step(tail), step(tail)
            assert math.isfinite(esjs(p, q))
            assert esjs(p, q) == pytest.approx(segment_esjs_oracle(p, q), rel=1e-12)
            assert esjs(p, step(tail / 2)) == math.inf

    def test_a_range_past_the_largest_float_stays_finite(self):
        # the one cell is 3.4e308 wide, past the largest float; half of it is not
        both = empirical_survival(SortedSample.from_data([-1.7e308, 1.7e308]))
        assert esjs(both, both) == 0.0
        p, q = SortedSample.from_data([-1.7e308]), SortedSample.from_data([1.7e308])
        want = 1.7e308 * math.log(2.0)  # width times log(2) / 2
        assert esjs(empirical_survival(p), empirical_survival(q)) == pytest.approx(want, rel=1e-15)
        # over several chunks, halved ends are the halved samples' ends: the
        # sum is twice theirs, bit for bit, and a bootstrap replicate's too
        rng = np.random.default_rng(5)
        p, q = (SortedSample.from_data(rng.uniform(-1.0, 1.0, 20_000) * 1.7e308) for _ in range(2))
        halves = SortedSample(p.values * 0.5), SortedSample(q.values * 0.5)
        want = 2.0 * esjs(*(empirical_survival(s) for s in halves))
        assert math.isfinite(want)
        assert esjs(empirical_survival(p), empirical_survival(q)) == want
        pooled, p_pos, q_pos = _pool(p, q)
        assert _esjs_of_positions(pooled, p_pos, q_pos, None, _Workspace()) == want

    def test_peak_memory_is_the_grid_union(self):
        # the survivals are read a chunk at a time off running counts, so no
        # grid-long level or index array joins the grid: the peak is the
        # merge's transients (the joined points, their order, the merged points)
        rng = np.random.default_rng(4)
        p, q = (
            empirical_survival(SortedSample.from_data(rng.gamma(2.0, 2.0, 10**5)))
            for _ in range(2)
        )
        grid_bytes = np.union1d(p.breakpoints, q.breakpoints).nbytes
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            esjs(p, q)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * grid_bytes


def _cell_products(grid, pv, qv):
    """Width times integrand of every cell of ``grid``, the kernel's formula on
    whole arrays with masks in place of chunks and zero suffixes."""
    n = grid.size - 1
    pv, qv = pv[:n], qv[:n]
    m = (pv + qv) * 0.5
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = [np.where(v > 0.0, v * np.log(v / m), 0.0) for v in (pv, qv)]
    return (grid[1:] - grid[:-1]) * ((terms[0] + terms[1]) * 0.5)


class TestStepSum:
    def test_writes_the_products_over_grid_and_reads_qv_only(self):
        # fill gets each chunk's P and Q buffers from the workspace, in order;
        # grid[k] ends as cell k's width times its integrand, and qv is read only
        rng = np.random.default_rng(8)
        p, q = (empirical_survival(random_sample(rng, 30_000, 30_000)) for _ in range(2))
        grid = np.union1d(p.breakpoints, q.breakpoints)
        n = grid.size - 1
        assert n > 2 * _CHUNK
        pv, qv = p(grid), q(grid)
        grid0 = grid.copy()
        ws, calls = _Workspace(), []

        def fill(lo, hi, pv_buf, qv_buf):
            if calls:  # the buffer still holds the q levels the last fill wrote
                np.testing.assert_array_equal(qv_buf, qv[calls[-1][0] :][: qv_buf.size])
            calls.append((lo, hi, pv_buf.size, qv_buf.size))
            pv_buf[:], qv_buf[:] = pv[lo:hi], qv[lo:hi]

        got = _step_sum(grid, fill, ws)
        assert calls == [
            (lo, hi, hi - lo, hi - lo)
            for lo in range(0, n, _CHUNK)
            for hi in [min(lo + _CHUNK, n)]
        ]
        assert got == esjs(p, q)
        np.testing.assert_array_equal(grid[:n], _cell_products(grid0, pv, qv))
        assert grid[n] == grid0[n]
        last = calls[-1][0]
        np.testing.assert_array_equal(ws.array("qv", n - last), qv[last:n])

    def test_a_sized_workspace_leaves_no_chunk_to_allocate(self):
        # once ws holds the chunk buffers, no chunk makes a chunk-long
        # temporary: a float64 array of _CHUNK cells alone is 8 * _CHUNK bytes
        rng = np.random.default_rng(8)
        p, q = (empirical_survival(random_sample(rng, 30_000, 30_000)) for _ in range(2))
        grid = np.union1d(p.breakpoints, q.breakpoints)
        assert grid.size > 2 * _CHUNK
        pv, qv = p(grid), q(grid)  # both end in zeros, which the integrand searches

        def fill(lo, hi, pv_buf, qv_buf):
            pv_buf[:], qv_buf[:] = pv[lo:hi], qv[lo:hi]

        ws = _Workspace()
        want = _step_sum(grid.copy(), fill, ws)
        again = grid.copy()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            got = _step_sum(again, fill, ws)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert got == want == esjs(p, q)
        assert peak < 8 * _CHUNK


def _union_esjs(p, q):
    """The divergence summed over ``np.union1d`` of the breakpoints, with the
    levels that evaluating each survival there gives: the kernel's arithmetic
    without its merge."""
    if p.values[-1] != q.values[-1]:
        return math.inf
    grid = np.union1d(p.breakpoints, q.breakpoints)
    return float(np.sum(_cell_products(grid, p(grid), q(grid)))) + 0.0


@st.composite
def step_pairs(draw):
    """Two step survivals whose breakpoints come from one lattice: shared
    points, one breakpoint, disjoint ranges, zero tails and unequal last
    levels all occur."""
    size = draw(st.integers(1, 40))
    gaps = draw(st.lists(st.floats(1e-3, 1e3), min_size=size, max_size=size))
    lattice = np.unique(np.cumsum(gaps) * 10.0 ** draw(st.integers(-100, 100)))
    layout = draw(st.sampled_from(["shared", "single", "disjoint"]))
    if layout == "disjoint":
        cut = draw(st.integers(0, lattice.size))
        p_points, q_points = lattice[:cut], lattice[cut:] + (lattice[-1] - lattice[0] + 1.0)
    else:
        masks = st.lists(st.booleans(), min_size=lattice.size, max_size=lattice.size)
        p_points, q_points = (lattice[np.array(draw(masks), dtype=bool)] for _ in range(2))
        if layout == "single":
            p_points = lattice[draw(st.integers(0, lattice.size - 1))][None]
    p_points = p_points if p_points.size else lattice[:1]
    q_points = q_points if q_points.size else lattice[-1:]
    tail = draw(st.sampled_from([0.0, 0.0, 0.25]))
    tails = (tail, tail if draw(st.booleans()) else draw(st.sampled_from([0.0, 0.5])))

    def levels(size, tail):
        drops = draw(st.lists(st.floats(tail, 1.0), min_size=size, max_size=size))
        values = np.sort(drops)[::-1]
        values[-1] = tail
        return values

    return tuple(StepSurvival(points, levels(points.size, t)) for points, t in zip((p_points, q_points), tails))


@st.composite
def binned_pairs(draw):
    """Two binned survivals on one grid of bins, so that they share edges;
    bounds inside the samples' range leave a tail above 0."""
    units = st.lists(st.integers(-50, 50), min_size=1, max_size=60)
    p, q = (SortedSample.from_data(np.array(draw(units)) / 7.0) for _ in range(2))
    lo, hi = min(p.min, q.min), max(p.max, q.max)
    if draw(st.booleans()):
        hi = lo + (hi - lo) * draw(st.floats(0.3, 1.0))
    if not lo < hi:
        hi = lo + 1.0
    bins = draw(st.integers(1, 200))
    return km_binned_survival(p, bins, (lo, hi)), km_binned_survival(q, bins, (lo, hi))


class TestMerge:
    @given(st.one_of(step_pairs(), binned_pairs()))
    def test_merge_is_the_union_with_evaluated_levels_bit_for_bit(self, pair):
        p, q = pair
        assert esjs(p, q) == _union_esjs(p, q)
        assert esjs(q, p) == _union_esjs(q, p)


def _samples_on(cells, p_end, binned, seed):
    """Two samples whose grid has ``cells`` cells, and their bin count.

    p's survival is 0 from cell ``p_end`` on, q's on no cell.  Binned, the
    grid's points are 0.5, 1, 2, ..., ``cells`` on ``2 * cells`` bins, and
    some values a quarter below a whole number snap to the same edge.
    """
    rng = np.random.default_rng(seed)
    g = np.arange(cells + 1)
    in_p = (rng.random(cells + 1) < 0.5) & (g < p_end)
    in_p[p_end] = True
    in_q = ~in_p | (rng.random(cells + 1) < 0.3)
    in_q[cells] = True
    x = g.astype(float) if binned else np.cumsum(rng.uniform(0.5, 2.0, cells + 1))

    def draw(mask):
        values = np.repeat(x[mask], rng.integers(1, 4, int(mask.sum())))  # ties
        if binned:
            nudge = (values >= 1) & (values < cells) & (rng.random(values.size) < 0.2)
            values = np.where(nudge, values - 0.25, values)
        return SortedSample.from_data(values)

    return draw(in_p), draw(in_q), 2 * cells if binned else None


class TestChunkEdges:
    @pytest.mark.parametrize("binned", [False, True])
    @pytest.mark.parametrize(
        "cells, p_end",
        [
            (_CHUNK - 1, _CHUNK // 2),  # one partial chunk, p's zeros start inside it
            (_CHUNK, _CHUNK - 1),  # one full chunk, p is 0 on its last cell only
            (_CHUNK + 1, _CHUNK),  # p's zeros start on the second chunk's edge
            (3 * _CHUNK + 5, 2 * _CHUNK),  # ... on the third chunk's edge
            (3 * _CHUNK + 5, 2 * _CHUNK + 3),  # ... inside the third chunk
            (3 * _CHUNK + 5, 3 * _CHUNK + 5),  # p and q end together: no zeros
        ],
    )
    def test_chunked_kernel_is_the_whole_array_formula(self, cells, p_end, binned):
        p, q, bins = _samples_on(cells, p_end, binned, seed=cells + p_end)
        if binned:
            p_surv, q_surv = (km_binned_survival(s, bins, (0.0, cells)) for s in (p, q))
        else:
            p_surv, q_surv = empirical_survival(p), empirical_survival(q)
        grid = np.union1d(p_surv.breakpoints, q_surv.breakpoints)
        pv, qv = p_surv(grid), q_surv(grid)
        assert grid.size == cells + 1
        assert np.count_nonzero(pv[:cells] == 0.0) == cells - p_end
        assert np.count_nonzero(qv[:cells] == 0.0) == 0
        want = float(np.sum(_cell_products(grid, pv, qv))) + 0.0
        assert esjs(p_surv, q_surv) == want
        assert want == pytest.approx(segment_esjs_oracle(p_surv, q_surv), rel=1e-12)
        # p first and p second: the zeros are pv's in one and qv's in the other
        pooled, p_pos, q_pos = _pool(p, q)
        for a, b, a_pos, b_pos in ((p, q, p_pos, q_pos), (q, p, q_pos, p_pos)):
            assert _esjs_between(a, b, bins) == want
            assert _esjs_of_positions(pooled, a_pos, b_pos, bins, _Workspace()) == want


class TestEsjsSpacings:
    def test_identical_samples_zero(self):
        sample = SortedSample.from_data([0.3, 1.2, 4.0])
        assert esjs_spacings(sample, sample) == 0.0

    def test_library_entropies_give_the_same_form(self):
        # survival_entropy, in float64, combined as the oracle combines its
        # long-double entropies
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = int(rng.integers(2, 150))
            p = random_sample(rng, n_min=n, n_max=n)
            q = random_sample(rng, n_min=n, n_max=n)
            pooled = SortedSample(np.sort(np.concatenate([p.values, q.values])))
            combined = (
                survival_entropy(pooled)
                - 0.5 * survival_entropy(p)
                - 0.5 * survival_entropy(q)
            )
            want = esjs_spacings(p, q)
            assert abs(combined - want) <= 1e-12 * abs(want)

    def test_agrees_with_50_digits_on_a_near_perfect_fit(self):
        # esjs about 7e-6 from entropies near 1.6: five digits cancel
        x = np.random.default_rng(3).standard_t(3, 2000)
        p, q = SortedSample.from_data(x), SortedSample.from_data(x * (1 + 1e-3))

        def entropy(values):
            n = values.size
            levels = [1 - mpmath.mpf(i) / n for i in range(1, n)]
            gaps = [mpmath.mpf(b) - mpmath.mpf(a) for a, b in zip(values[:-1], values[1:])]
            return -mpmath.fsum(g * s * mpmath.log(s) for g, s in zip(gaps, levels))

        with mpmath.workdps(50):
            pooled = np.sort(np.concatenate([p.values, q.values]))
            want = entropy(pooled) - entropy(p.values) / 2 - entropy(q.values) / 2
            gap = abs((esjs_spacings(p, q) - want) / want)
        assert gap <= 1e-13

    def test_agrees_with_exact_integration(self):
        p = SortedSample.from_data([0.0, 2.0])
        q = SortedSample.from_data([1.0, 3.0])
        integral = esjs(empirical_survival(p), empirical_survival(q))
        assert esjs_spacings(p, q) == pytest.approx(integral, abs=1e-12)

    def test_unequal_sizes_rejected(self):
        p = SortedSample.from_data([1, 2, 3])
        q = SortedSample.from_data([1, 2])
        with pytest.raises(ValueError, match="equal sizes; use esjs"):
            esjs_spacings(p, q)

    def test_needs_two_points(self):
        single = SortedSample.from_data([1.0])
        with pytest.raises(ValueError):
            esjs_spacings(single, single)


class TestEsjsDistance:
    def test_identity(self):
        surv = empirical_survival(SortedSample.from_data([1, 2, 3]))
        assert math.sqrt(esjs(surv, surv)) == 0.0

    def test_triangle_inequality(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            p = empirical_survival(random_sample(rng))
            q = empirical_survival(random_sample(rng))
            r = empirical_survival(random_sample(rng))
            d_pr, d_pq, d_qr = (math.sqrt(esjs(a, b)) for a, b in ((p, r), (p, q), (q, r)))
            assert d_pr <= d_pq + d_qr + 1e-12


class TestEsjsFactor:
    def test_negative_scores_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            EsjsFactor(-0.1 / 0.2, -0.1, 0.2)


class TestAffineBehaviour:
    def test_scale_equivariance(self):
        rng = np.random.default_rng(37)
        for _ in range(25):
            p_sample = random_sample(rng)
            q_sample = random_sample(rng)
            base = esjs(empirical_survival(p_sample), empirical_survival(q_sample))
            for c in (0.5, 2.0, 10.0):
                scaled = esjs(
                    empirical_survival(SortedSample(p_sample.values * c)),
                    empirical_survival(SortedSample(q_sample.values * c)),
                )
                assert scaled == pytest.approx(c * base, rel=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            p_sample = random_sample(rng)
            q_sample = random_sample(rng)
            base = esjs(empirical_survival(p_sample), empirical_survival(q_sample))
            shifted = esjs(
                empirical_survival(SortedSample(p_sample.values + 7.5)),
                empirical_survival(SortedSample(q_sample.values + 7.5)),
            )
            assert shifted == pytest.approx(base, rel=1e-9, abs=1e-13)


@st.composite
def equal_size_pairs(draw):
    """Two samples of one size on a shared lattice, and a bin count."""
    n = draw(st.integers(2, 300))
    scale = 10.0 ** draw(st.integers(-200, 200))
    offset = draw(st.sampled_from([0.0, 1.0, -7.0, 1e4]))
    levels = draw(st.sampled_from([1, 3, 100, 2**20]))
    units = st.lists(st.integers(-levels, levels), min_size=n, max_size=n)
    p, q = ((np.array(draw(units)) / levels + offset) * scale for _ in range(2))
    bins = draw(st.integers(1, 10 ** draw(st.integers(0, 6))))
    return SortedSample.from_data(p), SortedSample.from_data(q), bins


class TestBinnedIsSnappedRaw:
    @given(equal_size_pairs())
    def test_binned_esjs_is_spacings_of_snapped_samples(self, case):
        # binning on the pooled grid = the raw divergence of both samples
        # snapped up to the right edge of their bin
        p, q, bins = case
        lo, hi = min(p.min, q.min), max(p.max, q.max)
        if not lo < hi:
            return
        got = esjs(km_binned_survival(p, bins, (lo, hi)), km_binned_survival(q, bins, (lo, hi)))
        edges = np.linspace(lo, hi, bins + 1)[1:]

        def snap(sample):
            return SortedSample(edges[np.searchsorted(edges, sample.values)])

        want = esjs_spacings(snap(p), snap(q))
        assert abs(got - want) <= 1e-12 * abs(want) + np.finfo(float).eps * (hi - lo)


class TestThreeForms:
    @given(equal_size_pairs())
    def test_kernel_segment_oracle_and_spacings_agree(self, case):
        # equal sizes, heavy ties, 400 decades of scale: the kernel on the
        # empirical survivals, the segment-by-segment oracle and the
        # order-statistics form are one number
        p, q, _ = case
        p_surv, q_surv = empirical_survival(p), empirical_survival(q)
        want = segment_esjs_oracle(p_surv, q_surv)
        span = max(p.max, q.max) - min(p.min, q.min)
        for got in (esjs(p_surv, q_surv), esjs_spacings(p, q)):
            assert abs(got - want) <= 1e-12 * want + np.finfo(float).eps * span
