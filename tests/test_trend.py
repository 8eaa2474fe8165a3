"""Spline fitting and bootstrap machinery against dense-matrix oracles."""

import datetime as dt
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfrtrend.signals import RateSeries, TimeSeries
from hfrtrend.trend import (
    BootstrapConfig,
    InsufficientDataError,
    OutOfRangeError,
    analyze_trend,
    build_replicates,
    default_lambda_grid,
    estimate_drop,
    estimate_with_ci,
    fit_points,
    fit_smoothing_spline,
    gcv_score,
    moving_block_resample,
    post_blacken,
    read_estimates,
    select_lambda_block_cv,
    select_lambda_gcv,
    _block_cv_scores,
    _nearest_rank,
    _penalty_matrices,
    _solve_band,
)

START = dt.date(2020, 4, 1)


def dense_q_r(x):
    """Dense Q (n x n-2) and R (n-2 x n-2) built from first principles."""
    n = len(x)
    h = np.diff(x)
    q = np.zeros((n, n - 2))
    r = np.zeros((n - 2, n - 2))
    for j in range(n - 2):
        q[j, j] = 1.0 / h[j]
        q[j + 1, j] = -1.0 / h[j] - 1.0 / h[j + 1]
        q[j + 2, j] = 1.0 / h[j + 1]
        r[j, j] = (h[j] + h[j + 1]) / 3.0
        if j + 1 < n - 2:
            r[j, j + 1] = r[j + 1, j] = h[j + 1] / 6.0
    return q, r


def dense_spline_fit(x, y, lam):
    """Oracle: fitted = (I + lam Q R^-1 Q')^-1 y, solved densely."""
    q, r = dense_q_r(x)
    k = q @ np.linalg.solve(r, q.T)
    return np.linalg.solve(np.eye(len(x)) + lam * k, y)


def oracle_block_cv_scores(x, y, block_length=7, gap=6, grid=None):
    """Oracle: one full fit_points call per (lam, block), errors summed
    per lam in block order."""
    n = len(x)
    grid = default_lambda_grid(x) if grid is None else grid
    blocks = []
    for s in range(0, n, block_length):
        held = np.arange(s, min(s + block_length, n))
        train = np.ones(n, dtype=bool)
        train[max(0, s - gap) : min(n, s + block_length + gap)] = False
        if train.sum() >= 4:
            blocks.append((held, train))
    scores = np.empty(len(grid))
    for i, lam in enumerate(grid):
        err = 0.0
        count = 0
        for held, train in blocks:
            fit = fit_points(x[train], y[train], lam)
            pred = fit.evaluate(x[held], extrapolate=True)
            err += float(np.sum((y[held] - pred) ** 2))
            count += len(held)
        scores[i] = err / count
    return scores


def dense_hat_matrix(x, lam):
    q, r = dense_q_r(x)
    k = q @ np.linalg.solve(r, q.T)
    return np.linalg.inv(np.eye(len(x)) + lam * k)


class TestFitPoints:
    def test_matches_dense_oracle_random_cases(self, rng):
        for _ in range(20):
            n = int(rng.integers(10, 200))
            # spacings bounded away from zero keep the oracle's dense
            # system well-conditioned, so the 1e-8 comparison is fair
            x = np.cumsum(rng.uniform(0.5, 1.5, size=n))
            y = rng.normal(size=n)
            lam = float(10.0 ** rng.uniform(-3, 5))
            fit = fit_points(x, y, lam)
            expected = dense_spline_fit(x, y, lam)
            assert np.allclose(fit.fitted, expected, rtol=1e-8, atol=1e-10)

    def test_collinear_inputs_reproduced_exactly(self, rng):
        x = np.arange(50, dtype=float)
        y = 0.7 * x - 3.0
        for lam in (0.0, 1.0, 1e4, 1e10):
            fit = fit_points(x, y, lam)
            assert np.allclose(fit.fitted, y, atol=1e-8)
            assert np.allclose(fit.gamma, 0.0, atol=1e-8)

    def test_large_lambda_converges_to_ols_line(self, rng):
        x = np.arange(60, dtype=float)
        y = 2.0 + 0.3 * x + rng.normal(0, 0.5, size=60)
        fit = fit_points(x, y, 1e12)
        slope, intercept = np.polyfit(x, y, 1)
        assert np.allclose(fit.fitted, intercept + slope * x, atol=1e-6)

    def test_zero_lambda_interpolates(self, rng):
        x = np.arange(20, dtype=float)
        y = rng.normal(size=20)
        fit = fit_points(x, y, 0.0)
        assert np.allclose(fit.fitted, y, atol=1e-10)

    def test_fitted_solves_normal_equations(self, rng):
        # stationarity of the penalized objective: (I + lam K) f = y
        x = np.sort(rng.uniform(0, 30, size=40))
        y = rng.normal(size=40)
        lam = 12.5
        fit = fit_points(x, y, lam)
        q, r = dense_q_r(x)
        k = q @ np.linalg.solve(r, q.T)
        assert np.allclose((np.eye(40) + lam * k) @ fit.fitted, y, atol=1e-8)

    def test_too_few_points_raises(self):
        with pytest.raises(InsufficientDataError):
            fit_points([0.0, 1.0, 2.0], [1.0, 2.0, 3.0], 1.0)

    def test_bad_inputs_rejected(self):
        x = np.arange(10, dtype=float)
        with pytest.raises(ValueError):
            fit_points(x, np.ones(10), -1.0)
        with pytest.raises(ValueError):
            fit_points(np.zeros(10), np.ones(10), 1.0)  # not increasing
        with pytest.raises(ValueError):
            fit_points(x, np.full(10, np.nan), 1.0)
        for lam in (math.inf, math.nan):
            with pytest.raises(ValueError):
                fit_points(x, np.ones(10), lam)


class TestBandedSolve:
    def test_bitwise_equal_to_solveh_banded(self, rng):
        from scipy.linalg import solveh_banded

        for n in (5, 23, 200):
            x = np.cumsum(rng.uniform(0.2, 3.0, size=n))
            r_band, qtq_band = _penalty_matrices(np.diff(x))
            for lam in (0.0, 0.37, 1e6):
                band = r_band + lam * qtq_band
                for rhs in (rng.normal(size=n - 2), rng.normal(size=(n - 2, 7))):
                    got = _solve_band(band, rhs)
                    assert got.shape == rhs.shape
                    assert np.array_equal(got, solveh_banded(band, rhs))

    def test_band_not_positive_definite_raises(self):
        band = np.array([[0.0, 0.0, 0.1], [0.0, 0.2, 0.2], [1.0, -1.0, 1.0]])
        with pytest.raises(np.linalg.LinAlgError):
            _solve_band(band, np.ones(3))


class TestEvaluate:
    def test_exact_at_knots(self, rng):
        x = np.sort(rng.uniform(0, 50, size=30))
        fit = fit_points(x, rng.normal(size=30), 5.0)
        assert np.allclose(fit.evaluate(x), fit.fitted, atol=1e-10)

    def test_interior_values_match_scipy_interpolation(self, rng):
        # at lam=0 the spline interpolates; compare against scipy's
        # independent natural-cubic implementation between knots
        from scipy.interpolate import CubicSpline

        x = np.arange(25, dtype=float)
        y = rng.normal(size=25)
        fit = fit_points(x, y, 0.0)
        reference = CubicSpline(x, y, bc_type="natural")
        xq = np.linspace(0, 24, 301)
        assert np.allclose(fit.evaluate(xq), reference(xq), atol=1e-7)

    def test_outside_range_requires_flag(self, rng):
        x = np.arange(10, dtype=float)
        fit = fit_points(x, rng.normal(size=10), 1.0)
        with pytest.raises(ValueError):
            fit.evaluate([-0.5])
        fit.evaluate([-0.5], extrapolate=True)

    def test_outside_range_error_is_typed(self, rng):
        x = np.arange(10, dtype=float)
        fit = fit_points(x, rng.normal(size=10), 1.0)
        with pytest.raises(OutOfRangeError):
            fit.evaluate([9.5])
        reps = build_replicates(fit, BootstrapConfig(replicates=4, block_length=3))
        with pytest.raises(OutOfRangeError):
            reps.evaluate([2.0, -1.0])

    def test_extrapolation_is_linear_with_boundary_slope(self, rng):
        x = np.arange(15, dtype=float)
        fit = fit_points(x, rng.normal(size=15), 2.0)
        eps = 1e-6
        inner_slope = float(
            (fit.evaluate([x[-1]])[0] - fit.evaluate([x[-1] - eps])[0]) / eps
        )
        outer = fit.evaluate([x[-1] + 1.0, x[-1] + 3.0], extrapolate=True)
        outer_slope = (outer[1] - outer[0]) / 2.0
        assert outer_slope == pytest.approx(inner_slope, abs=1e-4)
        lo = fit.evaluate([x[0] - 2.0, x[0] - 1.0], extrapolate=True)
        lo_slope = float(lo[1] - lo[0])
        inner_lo = float(
            (fit.evaluate([x[0] + eps])[0] - fit.evaluate([x[0]])[0]) / eps
        )
        assert lo_slope == pytest.approx(inner_lo, abs=1e-4)


class TestLambdaSelection:
    def test_gcv_score_matches_hat_matrix_oracle(self, rng):
        x = np.arange(40, dtype=float)
        y = np.sin(x / 5) + rng.normal(0, 0.2, size=40)
        for lam in (0.1, 10.0, 1000.0):
            hat = dense_hat_matrix(x, lam)
            fitted = hat @ y
            rss = float(np.sum((y - fitted) ** 2))
            df = float(np.trace(hat))
            expected = (rss / 40) / (1 - df / 40) ** 2
            assert gcv_score(x, y, lam) == pytest.approx(expected, rel=1e-8)

    def test_select_gcv_is_grid_argmin(self, rng):
        x = np.arange(50, dtype=float)
        y = np.sin(x / 8) + rng.normal(0, 0.3, size=50)
        grid = default_lambda_grid(x)
        chosen = select_lambda_gcv(x, y, grid)
        scores = [gcv_score(x, y, lam) for lam in grid]
        assert chosen == grid[int(np.argmin(scores))]

    def test_block_cv_returns_grid_element(self, rng):
        x = np.arange(60, dtype=float)
        y = np.sin(x / 10) + rng.normal(0, 0.1, size=60)
        grid = default_lambda_grid(x)
        assert select_lambda_block_cv(x, y, grid=grid) in grid

    def test_block_cv_smooths_more_under_correlated_noise(self, rng):
        # 7-day trailing averaging induces MA(7) noise; leave-one-out
        # style criteria leak through near-duplicates while block CV
        # with a buffer gap does not
        n = 180
        x = np.arange(n, dtype=float)
        truth = 0.2 + 0.1 * np.sin(x / 40)
        white = rng.normal(0, 0.05, size=n + 6)
        ma7 = np.convolve(white, np.ones(7) / 7, mode="valid")
        y = truth + ma7
        assert select_lambda_block_cv(x, y) > select_lambda_gcv(x, y)

    def test_block_cv_matches_per_fit_oracle(self, rng):
        # uneven spacing, n from the minimum 4 + 7 + 2*6 = 23 up, and
        # edge blocks whose held-out points lie outside the training range
        for n in (23, 23, 24, 31, 57, 96, 140):
            x = np.cumsum(rng.uniform(0.3, 3.0, size=n))
            y = np.sin(x / 12.0) + rng.normal(0, 0.2, size=n)
            expected = oracle_block_cv_scores(x, y)
            grid = default_lambda_grid(x)
            assert np.array_equal(_block_cv_scores(x, y, 7, 6, grid), expected)
            chosen = select_lambda_block_cv(x, y)
            assert chosen == grid[int(np.argmin(expected))]

    def test_block_cv_matches_oracle_with_other_blocks(self, rng):
        x = np.sort(rng.choice(np.arange(300.0), size=80, replace=False))
        y = rng.normal(size=80)
        grid = np.geomspace(1e-2, 1e5, 9)
        expected = oracle_block_cv_scores(x, y, block_length=10, gap=3, grid=grid)
        assert np.array_equal(_block_cv_scores(x, y, 10, 3, grid), expected)

    def test_block_cv_rejects_bad_inputs(self):
        x = np.arange(30.0)
        y = np.sin(x)
        with pytest.raises(ValueError):
            select_lambda_block_cv(x, np.where(x == 17, np.nan, y))
        with pytest.raises(ValueError):
            select_lambda_block_cv(np.where(x == 17, 16.0, x), y)
        with pytest.raises(ValueError):
            select_lambda_block_cv(x, y, grid=[1.0, -1.0])
        with pytest.raises(ValueError):
            select_lambda_block_cv(x, y[:-1])

    def test_selection_needs_enough_points(self):
        with pytest.raises(InsufficientDataError):
            select_lambda_gcv(np.arange(4.0), np.ones(4))
        with pytest.raises(InsufficientDataError):
            select_lambda_block_cv(np.arange(10.0), np.ones(10))


def _rate_series(values, gaps=None):
    values = np.asarray(values, dtype=float)
    n = len(values)
    return RateSeries(
        TimeSeries(START, values, gaps), np.ones(n), np.ones(n), "hfr"
    )


class TestFitSmoothingSpline:
    def test_skips_gap_days(self, rng):
        values = np.concatenate([np.zeros(6), rng.uniform(0.1, 0.3, size=40)])
        gaps = np.zeros(46, dtype=bool)
        gaps[:6] = True
        fit = fit_smoothing_spline(_rate_series(values, gaps), lam=10.0)
        assert np.array_equal(fit.x, np.arange(6.0, 46.0))

    def test_unknown_lam_spec_rejected(self, rng):
        series = _rate_series(rng.uniform(0.1, 0.3, size=40))
        with pytest.raises(ValueError):
            fit_smoothing_spline(series, lam="aic")


class TestMovingBlockResample:
    def test_output_is_concatenation_of_real_blocks(self, rng):
        residuals = rng.normal(size=50)  # distinct values w.p. 1
        out = moving_block_resample(residuals, 7, rng)
        assert len(out) == 50
        windows = {
            tuple(residuals[s : s + 7]) for s in range(len(residuals) - 7 + 1)
        }
        for j in range(len(out) // 7):
            assert tuple(out[7 * j : 7 * (j + 1)]) in windows
        # truncated tail block is a prefix of some window
        tail = out[49:]
        assert any(w[: len(tail)] == tuple(tail) for w in windows)

    def test_block_length_one_is_iid_resampling(self, rng):
        residuals = rng.normal(size=30)
        out = moving_block_resample(residuals, 1, rng)
        assert set(out) <= set(residuals)

    def test_series_shorter_than_block_raises(self, rng):
        with pytest.raises(InsufficientDataError):
            moving_block_resample(np.ones(5), 7, rng)

    def test_deterministic_under_seed(self):
        residuals = np.arange(40, dtype=float)
        a = moving_block_resample(residuals, 7, np.random.default_rng(9))
        b = moving_block_resample(residuals, 7, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestPostBlacken:
    def test_elementwise_sum(self, rng):
        x = np.arange(20, dtype=float)
        fit = fit_points(x, rng.normal(size=20), 3.0)
        resampled = rng.normal(size=20)
        assert np.array_equal(post_blacken(fit, resampled), fit.fitted + resampled)

    def test_length_mismatch_rejected(self, rng):
        fit = fit_points(np.arange(10.0), rng.normal(size=10), 1.0)
        with pytest.raises(ValueError):
            post_blacken(fit, np.zeros(9))


class TestBuildReplicates:
    def test_batched_solve_equals_per_replicate_fits(self, rng):
        x = np.arange(50, dtype=float)
        y = np.sin(x / 8) + rng.normal(0, 0.1, size=50)
        base = fit_points(x, y, 100.0)
        config = BootstrapConfig(replicates=16, seed=4)
        reps = build_replicates(base, config)
        # rebuild each synthetic series with the same spawned streams and
        # fit it individually; the batched solve must agree
        children = np.random.SeedSequence(4).spawn(16)
        for j, child in enumerate(children):
            child_rng = np.random.default_rng(child)
            synthetic = post_blacken(
                base, moving_block_resample(base.residuals, 7, child_rng)
            )
            single = fit_points(x, synthetic, base.lam)
            assert np.allclose(reps.fitted[:, j], single.fitted, atol=1e-10)
            assert np.allclose(reps.gammas[:, j], single.gamma, atol=1e-10)

    def test_deterministic_across_runs(self, rng):
        x = np.arange(40, dtype=float)
        y = rng.normal(size=40)
        base = fit_points(x, y, 50.0)
        a = build_replicates(base, BootstrapConfig(replicates=8, seed=1))
        b = build_replicates(base, BootstrapConfig(replicates=8, seed=1))
        assert np.array_equal(a.fitted, b.fitted)
        c = build_replicates(base, BootstrapConfig(replicates=8, seed=2))
        assert not np.array_equal(a.fitted, c.fitted)

    def test_zero_residuals_give_identical_replicates(self):
        x = np.arange(30, dtype=float)
        y = 0.5 * x + 1.0  # spline reproduces a line exactly: residuals 0
        base = fit_points(x, y, 10.0)
        assert np.allclose(base.residuals, 0.0, atol=1e-9)
        reps = build_replicates(base, BootstrapConfig(replicates=12, seed=0))
        spread = reps.fitted.max(axis=1) - reps.fitted.min(axis=1)
        assert np.allclose(spread, 0.0, atol=1e-9)


class TestPercentiles:
    def test_nearest_rank_on_known_ladder(self):
        values = np.arange(1.0, 1001.0)  # sorted 1..1000
        assert _nearest_rank(values, 0.025) == 25.0
        assert _nearest_rank(values, 0.5) == 500.0
        assert _nearest_rank(values, 0.975) == 975.0
        assert _nearest_rank(values, 1.0) == 1000.0

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
        st.floats(min_value=0.01, max_value=0.99),
    )
    def test_rank_is_order_statistic(self, values, q):
        s = np.sort(values)
        result = _nearest_rank(s, q)
        k = min(max(math.ceil(q * len(s)), 1), len(s))
        assert result == s[k - 1]


class TestAnalyzeTrend:
    def _series(self, rng, n=120):
        x = np.arange(n)
        truth = 0.3 - 0.1 * x / n
        return _rate_series(truth + rng.normal(0, 0.01, size=n))

    def test_levels_and_drops_share_replicates(self, rng):
        series = self._series(rng)
        config = BootstrapConfig(replicates=200, seed=3)
        d_old = START + dt.timedelta(days=20)
        d_new = START + dt.timedelta(days=100)
        result = analyze_trend(series, config, [d_old, d_new], [(d_old, d_new)], lam=500.0)
        xq = np.array([20.0, 100.0])
        values = result.replicates.evaluate(xq)
        rel = (values[1] - values[0]) / values[0]
        med = _nearest_rank(np.sort(rel), 0.5)
        assert result.drops[0].median == pytest.approx(med)

    def test_pairs_read_off_one_replicate_set(self, rng):
        series = self._series(rng)
        config = BootstrapConfig(replicates=100, seed=6)
        days = (10, 40, 70, 110)
        d1, d2, d3, d4 = (START + dt.timedelta(days=d) for d in days)
        reps = build_replicates(fit_smoothing_spline(series, lam=500.0), config)
        for pair in ((d1, d4), (d2, d3)):
            read = read_estimates(reps, series, list(pair), [pair])
            direct = analyze_trend(series, config, list(pair), [pair], lam=500.0)
            assert read.levels == direct.levels
            assert read.drops == direct.drops
            assert read.clipped_bounds == direct.clipped_bounds
        with pytest.raises(OutOfRangeError):
            read_estimates(reps, series, [START - dt.timedelta(days=1)])

    def test_identical_dates_give_zero_drop(self, rng):
        series = self._series(rng)
        d = START + dt.timedelta(days=60)
        drop = estimate_drop(series, BootstrapConfig(replicates=50, seed=0), d, d, lam=500.0)
        assert drop.median == pytest.approx(0.0, abs=1e-12)
        assert drop.upper - drop.lower == pytest.approx(0.0, abs=1e-12)

    def test_interval_ordering(self, rng):
        series = self._series(rng)
        dates = [START + dt.timedelta(days=d) for d in (10, 60, 110)]
        levels = estimate_with_ci(
            series, BootstrapConfig(replicates=100, seed=5), dates, lam=500.0
        )
        for lv in levels:
            assert lv.lower <= lv.median <= lv.upper

    def test_rates_clipped_to_unit_interval(self, rng):
        n = 60
        values = np.clip(0.02 + rng.normal(0, 0.02, size=n), 0.0, 1.0)
        series = _rate_series(values)
        levels = estimate_with_ci(
            series,
            BootstrapConfig(replicates=200, seed=1),
            [START + dt.timedelta(days=30)],
            lam=1.0,
        )
        assert levels[0].lower >= 0.0

    def test_recovers_known_drop_sign(self, rng):
        series = self._series(rng)
        drop = estimate_drop(
            series,
            BootstrapConfig(replicates=200, seed=2),
            START + dt.timedelta(days=10),
            START + dt.timedelta(days=110),
            lam=500.0,
        )
        assert drop.upper < 0  # the decline is unambiguous at this noise level
