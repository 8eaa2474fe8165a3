"""Spline fitting and bootstrap machinery against dense-matrix oracles."""

import datetime as dt
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfrtrend import trend
from hfrtrend.signals import WINDOW, RateSeries, TimeSeries
from hfrtrend.trend import (
    REPLICATE_SLICE,
    BootstrapConfig,
    InsufficientDataError,
    OutOfRangeError,
    analyze_trend,
    build_replicates,
    default_lambda_grid,
    fit_points,
    fit_smoothing_spline,
    read_estimates,
    select_lambda_block_cv,
    _block_cv_scores,
    _block_starts,
    _eval_natural_cubic,
    _nearest_rank,
    _percentile_triplet,
    _penalty_matrices,
    _q_matvec,
    _qt_matvec,
    _solve,
    _spacings,
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


def dense_band(band):
    """The symmetric matrix of a lower band."""
    m = band.shape[1]
    out = np.diag(band[0])
    for k in (1, 2):
        off = np.diag(band[k, :m - k], -k)
        out = out + off + off.T
    return out


def dense_spline_fit(x, y, lam):
    """Oracle: fitted = (I + lam Q R^-1 Q')^-1 y, solved densely."""
    q, r = dense_q_r(x)
    k = q @ np.linalg.solve(r, q.T)
    return np.linalg.solve(np.eye(len(x)) + lam * k, y)


def extrapolated(fit, xq):
    """`fit` at `xq`, continued linearly outside its knots, as block CV
    evaluates a held-out block."""
    return _eval_natural_cubic(fit.x, fit.fitted[:, None], fit.gamma[:, None],
                               np.asarray(xq, dtype=float), extrapolate=True)[:, 0]


def oracle_block_cv_scores(x, y):
    """Oracle: one full fit_points call per (lam, block) of 7-day blocks
    with 6-day gaps, errors summed per lam in block order."""
    n, block_length, gap = len(x), 7, 6
    grid = default_lambda_grid(x)
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
            pred = extrapolated(fit, x[held])
            err += float(np.sum((y[held] - pred) ** 2))
            count += len(held)
        scores[i] = err / count
    return scores


def lapack_block_cv_scores(x, y):
    """Oracle: block CV scores from one LAPACK pbsv solve per (block, lam)
    of each block's own training system."""
    from scipy.linalg.lapack import dpbsv

    def solve(band, rhs):
        _, out, info = dpbsv(band, rhs, lower=1)
        assert info == 0
        return out

    n, block_length, gap = len(x), 7, 6
    grid = default_lambda_grid(x)
    err, count = np.zeros(len(grid)), 0
    for s in range(0, n, block_length):
        train = np.ones(n, dtype=bool)
        train[max(0, s - gap) : min(n, s + block_length + gap)] = False
        if train.sum() < 4:
            continue
        held = slice(s, min(s + block_length, n))
        xt, yt = x[train], y[train]
        h = np.diff(xt)
        r_band, qtq_band = _penalty_matrices(h)
        qty = _qt_matvec(h, yt)
        gammas = np.column_stack([
            solve(r_band + lam * qtq_band, qty) for lam in grid])
        fitted = yt[:, None] - grid * _q_matvec(h, gammas)
        pred = _eval_natural_cubic(xt, fitted, gammas, x[held], extrapolate=True)
        err += ((y[held, None] - pred) ** 2).sum(axis=0)
        count += len(pred)
    return err / count


def dense_hat_matrix(x, lam):
    q, r = dense_q_r(x)
    k = q @ np.linalg.solve(r, q.T)
    return np.linalg.inv(np.eye(len(x)) + lam * k)


def oracle_gcv_argmin(x, y):
    """The default-grid lam minimizing the generalized cross-validation
    score (rss/n) / (1 - tr(H)/n)^2, from dense hat matrices."""
    n = len(x)
    grid = default_lambda_grid(x)
    scores = []
    for lam in grid:
        hat = dense_hat_matrix(x, lam)
        resid = y - hat @ y
        denom = 1.0 - np.trace(hat) / n
        scores.append(resid @ resid / n / denom**2 if denom > 0 else math.inf)
    return grid[int(np.argmin(scores))]


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
    def test_matches_solveh_banded_and_dense_fit(self, rng):
        from scipy.linalg import solveh_banded

        for n in (5, 23, 200):
            x = np.cumsum(rng.uniform(0.2, 3.0, size=n))
            h = np.diff(x)
            r_band, qtq_band = _penalty_matrices(h)
            for lam in (0.0, 0.37, 1e6):
                band = r_band + lam * qtq_band
                for rhs in (rng.normal(size=n - 2), rng.normal(size=(n - 2, 7))):
                    got = _solve(band, rhs)
                    want = solveh_banded(band, rhs, lower=True)
                    assert got.shape == rhs.shape
                    # two backward-stable solves differ by up to about
                    # eps * cond; at lam = 1e6, n = 200, that is ~1e-10
                    tol = 1e-15 * np.linalg.cond(dense_band(band)) * np.abs(want).max()
                    assert np.abs(got - want).max() <= tol
                y = rng.normal(size=n)
                gamma = _solve(band, _qt_matvec(h, y))
                fitted = y - lam * _q_matvec(h, gamma)
                assert np.allclose(fitted, dense_spline_fit(x, y, lam),
                                   rtol=1e-8, atol=1e-10)

    def test_band_not_positive_definite_raises(self):
        band = np.array([[1.0, -1.0, 1.0], [0.2, 0.2, 0.0], [0.1, 0.0, 0.0]])
        with pytest.raises(np.linalg.LinAlgError):
            _solve(band, np.ones(3))


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
        extrapolated(fit, [-0.5])

    def test_outside_range_error_is_typed(self, rng):
        x = np.arange(10, dtype=float)
        fit = fit_points(x, rng.normal(size=10), 1.0)
        with pytest.raises(OutOfRangeError):
            fit.evaluate([9.5])
        reps = build_replicates(fit, BootstrapConfig(replicates=4), [2.0, -1.0])
        with pytest.raises(OutOfRangeError):
            reps.evaluate([2.0, -1.0])

    def test_unrequested_point_in_range_raises(self, rng):
        x = np.arange(10, dtype=float)
        fit = fit_points(x, rng.normal(size=10), 1.0)
        config = BootstrapConfig(replicates=4)
        for points in ([2.0, 5.5], []):
            reps = build_replicates(fit, config, points)
            for xq in ([3.0], [2.0, 5.0], [5.49]):
                with pytest.raises(ValueError, match="not requested") as info:
                    reps.evaluate(xq)
                assert not isinstance(info.value, OutOfRangeError)
        assert reps.evaluate([]).shape == (0, 4)

    def test_extrapolation_is_linear_with_boundary_slope(self, rng):
        x = np.arange(15, dtype=float)
        fit = fit_points(x, rng.normal(size=15), 2.0)
        eps = 1e-6
        inner_slope = float(
            (fit.evaluate([x[-1]])[0] - fit.evaluate([x[-1] - eps])[0]) / eps
        )
        outer = extrapolated(fit, [x[-1] + 1.0, x[-1] + 3.0])
        outer_slope = (outer[1] - outer[0]) / 2.0
        assert outer_slope == pytest.approx(inner_slope, abs=1e-4)
        lo = extrapolated(fit, [x[0] - 2.0, x[0] - 1.0])
        lo_slope = float(lo[1] - lo[0])
        inner_lo = float(
            (fit.evaluate([x[0] + eps])[0] - fit.evaluate([x[0]])[0]) / eps
        )
        assert lo_slope == pytest.approx(inner_lo, abs=1e-4)


class TestLambdaSelection:
    def test_block_cv_returns_grid_element(self, rng):
        x = np.arange(60, dtype=float)
        y = np.sin(x / 10) + rng.normal(0, 0.1, size=60)
        assert select_lambda_block_cv(x, y) in default_lambda_grid(x)

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
        assert select_lambda_block_cv(x, y) > oracle_gcv_argmin(x, y)

    def test_block_cv_matches_per_fit_oracle(self, rng):
        # uneven spacing, n from the minimum 4 + 7 + 2*6 = 23 up, and
        # edge blocks whose held-out points lie outside the training range
        for n in (23, 23, 24, 31, 57, 96, 140):
            x = np.cumsum(rng.uniform(0.3, 3.0, size=n))
            y = np.sin(x / 12.0) + rng.normal(0, 0.2, size=n)
            expected = oracle_block_cv_scores(x, y)
            grid = default_lambda_grid(x)
            assert np.allclose(_block_cv_scores(x, y, grid), expected,
                               rtol=1e-8, atol=0)
            chosen = select_lambda_block_cv(x, y)
            assert chosen == grid[int(np.argmin(expected))]

    def test_block_cv_picks_the_lapack_argmin_on_random_series(self, rng):
        # uneven spacing, daily grids with and without missing days, and
        # near-linear y; n from 23 up, every n of 23-26 ten times
        for i in range(200):
            n = 23 + i % 4 if i < 40 else int(rng.integers(27, 241))
            kind = i % 3
            if kind == 0:
                x = np.cumsum(rng.uniform(0.3, 3.0, size=n))
            else:
                days = n + int(rng.integers(0, n // 3 + 1)) * (kind == 2)
                x = np.sort(rng.choice(days, size=n, replace=False)).astype(float)
            if i % 5 == 4:
                y = 0.3 - 0.001 * x + rng.normal(0, 1e-5, size=n)
            else:
                y = np.sin(x / rng.uniform(5, 40)) + rng.normal(0, 0.2, size=n)
            expected = lapack_block_cv_scores(x, y)
            got = _block_cv_scores(x, y, default_lambda_grid(x))
            assert np.argmin(got) == np.argmin(expected), (i, n)
            assert np.allclose(got, expected, rtol=1e-8, atol=0), (i, n)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_block_cv_raises_on_a_non_finite_score(self, monkeypatch, bad):
        x = np.arange(40.0)
        scores = np.ones(len(default_lambda_grid(x)))
        scores[5] = bad  # np.argmin would pick a nan
        monkeypatch.setattr(trend, "_block_cv_scores", lambda *args: scores)
        with pytest.raises(np.linalg.LinAlgError):
            select_lambda_block_cv(x, np.sin(x))

    def test_block_cv_rejects_bad_inputs(self):
        x = np.arange(30.0)
        y = np.sin(x)
        with pytest.raises(ValueError):
            select_lambda_block_cv(x, np.where(x == 17, np.nan, y))
        with pytest.raises(ValueError):
            select_lambda_block_cv(np.where(x == 17, 16.0, x), y)
        with pytest.raises(ValueError):
            select_lambda_block_cv(x, y[:-1])

    def test_selection_needs_enough_points(self):
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


def moving_block_resample(residuals, block_length, rng):
    """Oracle: one moving-block resample of a residual series.

    Draws ceil(n/L) of the n-L+1 overlapping length-L windows uniformly
    with replacement, concatenates, truncates to length n.
    """
    residuals = np.asarray(residuals, dtype=float)
    n = len(residuals)
    if n < block_length:
        raise InsufficientDataError(
            f"series length {n} shorter than block length {block_length}"
        )
    n_blocks = -(-n // block_length)
    starts = rng.integers(0, n - block_length + 1, size=n_blocks)
    out = np.concatenate(
        [residuals[s : s + block_length] for s in starts]
    )
    return out[:n]


class ScalarStarts:
    """Oracle of the replicate stream contract, one word at a time: one
    `random.Random(seed)`, each 32-bit word masked to the bit length of
    the largest start and rejected above it. `integers` draws as
    `Generator.integers` does, so `moving_block_resample` can take it."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def integers(self, low, high, size):
        top = high - 1 - low
        mask = 2 ** top.bit_length() - 1
        out = []
        while len(out) < size:
            word = self.rng.getrandbits(32) & mask
            if word <= top:
                out.append(low + word)
        return np.array(out)


def per_replicate_build(base, config, block_length=WINDOW):
    """Oracle for build_replicates (at the default `block_length`): one
    stream for the stratum, read word by word, one resample of
    `block_length`-day blocks per replicate column in order, then one
    multi-RHS LAPACK solve (scipy's solveh_banded) refitting the whole
    (n, B) array. Returns the synthetic series and their fitted values
    and second derivatives."""
    from scipy.linalg import solveh_banded

    stream = ScalarStarts(config.seed)
    synthetic = np.empty((len(base.x), config.replicates))
    for j in range(config.replicates):
        synthetic[:, j] = base.fitted + moving_block_resample(
            base.residuals, block_length, stream
        )
    h = _spacings(base.x)
    r_band, qtq_band = _penalty_matrices(h)
    gammas = solveh_banded(r_band + base.lam * qtq_band, _qt_matvec(h, synthetic),
                           lower=True)
    return synthetic, synthetic - base.lam * _q_matvec(h, gammas), gammas


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


def knots_and_midpoints(x):
    """Every knot and every midpoint between two knots, sorted."""
    return np.sort(np.concatenate([x, (x[:-1] + x[1:]) / 2]))


def assert_matches_whole_array_build(base, config, points):
    """build_replicates at `points` is the oracle's whole-array refit
    evaluated there; it keeps no other point."""
    reps = build_replicates(base, config, points)
    synthetic, fitted, gammas = per_replicate_build(base, config)
    assert np.array_equal(reps.points, points)
    expected = _eval_natural_cubic(base.x, fitted, gammas, points)
    assert reps.values.shape == (len(points), config.replicates)
    assert np.allclose(reps.values, expected, rtol=0, atol=1e-10)
    assert reps.evaluate(points).tobytes() == reps.values.tobytes()
    return reps, synthetic


class TestBuildReplicates:
    # (n, B) with blocks of L = WINDOW days: n % L != 0 truncates the last
    # block, n = L leaves a single window; B = 1 is one column
    SHAPES = ((50, 16), (49, 16), (33, 1), (WINDOW, 5))

    def test_batched_solve_equals_per_replicate_fits(self, rng):
        for n, replicates in self.SHAPES:
            x = np.arange(n, dtype=float)
            points = knots_and_midpoints(x)
            config = BootstrapConfig(replicates=replicates, seed=4)
            # two series of one length draw the same block starts
            for _ in range(2):
                y = np.sin(x / 8) + rng.normal(0, 0.1, size=n)
                base = fit_points(x, y, 100.0)
                # the per-replicate resampling loop, bit for bit
                reps, synthetic = assert_matches_whole_array_build(
                    base, config, points)
                # and each column agrees with its own fit
                for j in range(replicates):
                    single = fit_points(x, synthetic[:, j], base.lam)
                    assert np.allclose(reps.values[:, j], single.evaluate(points),
                                       atol=1e-10)

    @pytest.mark.parametrize("replicates", [
        1, REPLICATE_SLICE - 1, REPLICATE_SLICE, REPLICATE_SLICE + 1,
        2 * REPLICATE_SLICE + 3])
    @pytest.mark.parametrize("n", [47, WINDOW],
                             ids=["n_mod_L_nonzero", "L_equals_n"])
    def test_slices_match_whole_array_build(self, rng, monkeypatch, n,
                                            replicates):
        x = np.cumsum(rng.uniform(0.5, 1.5, size=n))  # uneven knots
        y = np.sin(x / 6) + rng.normal(0, 0.1, size=n)
        base = fit_points(x, y, 20.0)
        config = BootstrapConfig(replicates=replicates, seed=11)
        points = knots_and_midpoints(x)
        reps, _ = assert_matches_whole_array_build(base, config, points)
        # requested points are deduplicated and sorted, and the ones
        # outside the fitted range are dropped
        outside = [x[0] - 1.0, x[-1] + 0.5]
        shuffled = np.concatenate([outside, points[::-1], points[:5]])
        reps = build_replicates(base, config, shuffled)
        assert np.array_equal(reps.points, points)
        assert reps.values.tobytes() == build_replicates(
            base, config, points).values.tobytes()
        # the slice size changes no bit
        for size in (1, 64, 10**6):
            monkeypatch.setattr(trend, "REPLICATE_SLICE", size)
            sliced = build_replicates(base, config, points)
            assert sliced.values.tobytes() == reps.values.tobytes(), size

    def test_peak_memory_is_bounded_by_the_slice(self):
        import tracemalloc

        n, replicates = 215, 4000
        x = np.arange(n, dtype=float)
        base = fit_points(x, np.sin(x / 20), 50.0)
        config = BootstrapConfig(replicates=replicates, seed=5)
        points = [3.0, 90.0, 105.0, 198.0]
        tracemalloc.start()
        try:
            reps = build_replicates(base, config, points)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reps.values.shape == (len(points), replicates)
        # a dozen (n, slice) float64 arrays at most, plus the result; the
        # whole-array build peaks at about 26 MB here
        slice_array = 8 * n * REPLICATE_SLICE
        assert peak < 12 * slice_array + reps.values.nbytes, peak

    @pytest.mark.parametrize("n, block_length", [(47, 7), (49, 7), (30, 1),
                                                 (20, 20)])
    def test_block_starts(self, n, block_length):
        size = -(-n // block_length)
        starts = _block_starts(random.Random(8), 300, n, block_length)
        assert starts.shape == (300, size)
        assert starts.min() >= 0 and starts.max() <= n - block_length
        if block_length == n:  # one window, so every start is 0
            assert not starts.any()
        else:  # every start in range is drawn
            counts = np.bincount(starts.ravel(), minlength=n - block_length + 1)
            assert counts.min() > 0
        # a build of B + k replicates begins with the build of B, and the
        # slices of one stream are the rows of one whole draw
        whole = _block_starts(random.Random(8), 300 + 77, n, block_length)
        assert whole[:300].tobytes() == starts.tobytes()
        rng = random.Random(8)
        sliced = [_block_starts(rng, rows, n, block_length) for rows in (1, 64, 235, 77)]
        assert np.concatenate(sliced).tobytes() == whole.tobytes()
        # the word-by-word oracle resamples the blocks these starts open,
        # at any L: build_replicates itself runs only at L = WINDOW
        x = np.arange(n, dtype=float)
        base = fit_points(x, np.sin(x), 10.0)
        synthetic, _, _ = per_replicate_build(
            base, BootstrapConfig(replicates=300, seed=8), block_length)
        index = (starts[:, :, None] + np.arange(block_length)).reshape(300, -1)
        expected = base.fitted + base.residuals[index[:, :n]]
        assert synthetic.T.tobytes() == expected.tobytes()

    def test_first_replicates_do_not_depend_on_b(self, rng):
        x = np.arange(45, dtype=float)
        base = fit_points(x, np.sin(x / 7) + rng.normal(0, 0.1, size=45), 30.0)
        small = build_replicates(base, BootstrapConfig(replicates=70, seed=2), x)
        large = build_replicates(base, BootstrapConfig(replicates=140, seed=2), x)
        assert large.values[:, :70].tobytes() == small.values.tobytes()

    def test_config_rejects_out_of_range_values(self):
        for bad in ({"replicates": 0}, {"seed": -1}):
            with pytest.raises(ValueError):
                BootstrapConfig(**bad)
        assert BootstrapConfig(seed=0).seed == 0

    def test_deterministic_across_runs(self, rng):
        x = np.arange(40, dtype=float)
        y = rng.normal(size=40)
        base = fit_points(x, y, 50.0)
        a = build_replicates(base, BootstrapConfig(replicates=8, seed=1), x)
        b = build_replicates(base, BootstrapConfig(replicates=8, seed=1), x)
        assert np.array_equal(a.values, b.values)
        c = build_replicates(base, BootstrapConfig(replicates=8, seed=2), x)
        assert not np.array_equal(a.values, c.values)

    def test_zero_residuals_give_identical_replicates(self):
        x = np.arange(30, dtype=float)
        y = 0.5 * x + 1.0  # spline reproduces a line exactly: residuals 0
        base = fit_points(x, y, 10.0)
        assert np.allclose(base.residuals, 0.0, atol=1e-9)
        reps = build_replicates(base, BootstrapConfig(replicates=12, seed=0), x)
        spread = reps.values.max(axis=1) - reps.values.min(axis=1)
        assert np.allclose(spread, 0.0, atol=1e-9)


class TestPercentiles:
    def test_nearest_rank_on_known_ladder(self):
        values = np.arange(1.0, 1001.0)  # sorted 1..1000
        assert _nearest_rank(values, 0.025) == 25.0
        assert _nearest_rank(values, 0.5) == 500.0
        assert _nearest_rank(values, 0.975) == 975.0
        assert _nearest_rank(values, 1.0) == 1000.0

    @pytest.mark.parametrize("b, ranks", [(1000, (500, 25, 975)),
                                          (200, (100, 5, 195))])
    def test_triplet_ranks_are_exact(self, b, ranks):
        values = np.arange(1.0, b + 1.0)[::-1]  # order statistic k is k
        assert _percentile_triplet(values) == tuple(map(float, ranks))

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
        reps = build_replicates(fit_smoothing_spline(series, lam=500.0), config, xq)
        values = reps.evaluate(xq)
        rel = (values[1] - values[0]) / values[0]
        med = _nearest_rank(np.sort(rel), 0.5)
        assert result.drops[0].median == pytest.approx(med)

    def test_pairs_read_off_one_replicate_set(self, rng):
        series = self._series(rng)
        config = BootstrapConfig(replicates=100, seed=6)
        days = (10, 40, 70, 110)
        d1, d2, d3, d4 = (START + dt.timedelta(days=d) for d in days)
        reps = build_replicates(fit_smoothing_spline(series, lam=500.0), config,
                                days)
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
        drop = analyze_trend(series, BootstrapConfig(replicates=50, seed=0), [], [(d, d)],
                             lam=500.0).drops[0]
        assert drop.median == pytest.approx(0.0, abs=1e-12)
        assert drop.upper - drop.lower == pytest.approx(0.0, abs=1e-12)

    def test_interval_ordering(self, rng):
        series = self._series(rng)
        dates = [START + dt.timedelta(days=d) for d in (10, 60, 110)]
        levels = analyze_trend(
            series, BootstrapConfig(replicates=100, seed=5), dates, lam=500.0
        ).levels
        for lv in levels:
            assert lv.lower <= lv.median <= lv.upper

    def test_rates_clipped_to_unit_interval(self, rng):
        n = 60
        values = np.clip(0.02 + rng.normal(0, 0.02, size=n), 0.0, 1.0)
        series = _rate_series(values)
        levels = analyze_trend(
            series,
            BootstrapConfig(replicates=200, seed=1),
            [START + dt.timedelta(days=30)],
            lam=1.0,
        ).levels
        assert levels[0].lower >= 0.0

    def test_levels_outside_unit_interval_clipped_and_counted(self, rng):
        dates = [START + dt.timedelta(days=30)]
        config = BootstrapConfig(replicates=200, seed=1)
        for centre, bound in ((0.0, "lower"), (1.0, "upper")):
            # noise about the bound puts replicate trends on both sides
            series = _rate_series(centre + rng.normal(0, 0.01, size=60))
            result = analyze_trend(series, config, dates, lam=1e4)
            assert getattr(result.levels[0], bound) == centre
            assert result.clipped_bounds >= 1

    def test_recovers_known_drop_sign(self, rng):
        series = self._series(rng)
        drop = analyze_trend(
            series,
            BootstrapConfig(replicates=200, seed=2),
            [],
            [(START + dt.timedelta(days=10), START + dt.timedelta(days=110))],
            lam=500.0,
        ).drops[0]
        assert drop.upper < 0  # the decline is unambiguous at this noise level
