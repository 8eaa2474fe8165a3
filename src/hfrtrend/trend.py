"""Trend estimation: natural cubic smoothing splines plus a residual
moving-block bootstrap with post-blackening.

The spline minimizes sum (y_i - f(x_i))^2 + lam * integral f''(x)^2 dx
over natural cubic splines with knots at the data abscissae. With the
standard tridiagonal Q (second-difference) and R (roughness) matrices,
the interior second derivatives solve (R + lam Q'Q) g = Q'y and the
fitted values are y - lam Q g; R + lam Q'Q is symmetric pentadiagonal,
so the solve is banded and O(n). Block cross-validation solves the
whole lam grid against each block's bands, about 1.8k small solves per
selection, so LAPACK pbsv is called directly rather than through
scipy's solveh_banded wrapper. scipy is imported inside the solvers,
so importing the package does not load it.

Uncertainty: resample residual blocks with replacement, add them back
onto the base trend (post-blackening), refit with the base smoothing
parameter, and read percentile intervals off the replicate trends. A
stratum is fitted and bootstrapped once, and every requested date and
drop is read off that one replicate set (`read_estimates`).
"""

from __future__ import annotations

import datetime as dt
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .signals import RateSeries


class InsufficientDataError(ValueError):
    """Too few defined points to fit or resample."""


class OutOfRangeError(ValueError):
    """An evaluation point lies outside the fitted range."""


def _spacings(x: np.ndarray) -> np.ndarray:
    h = np.diff(x)
    if np.any(h <= 0):
        raise ValueError("abscissae must be strictly increasing")
    return h


def _q_diagonals(h: np.ndarray, ndim: int):
    """Q's three diagonals, shaped to broadcast against (n-2,) or (n-2, B)."""
    inv = 1.0 / h
    diags = (inv[:-1], -(inv[:-1] + inv[1:]), inv[1:])
    return diags if ndim == 1 else tuple(d[:, None] for d in diags)


def _qt_matvec(h: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Q'y: second divided differences of y (shape (n-2,) or (n-2, B))."""
    a, b, c = _q_diagonals(h, y.ndim)
    return a * y[:-2] + b * y[1:-1] + c * y[2:]


def _q_matvec(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Q g for interior second derivatives g (shape (n-2,) or (n-2, B))."""
    a, b, c = _q_diagonals(h, g.ndim)
    out = np.zeros((len(h) + 1,) + g.shape[1:])
    out[:-2] += a * g
    out[1:-1] += b * g
    out[2:] += c * g
    return out


def _penalty_matrices(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Banded (upper form, bandwidth 2) R and Q'Q of size n-2."""
    m = len(h) - 1  # n - 2
    inv = 1.0 / h
    r_band = np.zeros((3, m))
    r_band[2] = (h[:-1] + h[1:]) / 3.0
    r_band[1, 1:] = h[1:-1] / 6.0

    qtq_band = np.zeros((3, m))
    qtq_band[2] = inv[:-1] ** 2 + (inv[:-1] + inv[1:]) ** 2 + inv[1:] ** 2
    qtq_band[1, 1:] = -(inv[1:-1]) * (inv[:-2] + 2.0 * inv[1:-1] + inv[2:])
    if m >= 3:
        qtq_band[0, 2:] = inv[1:-2] * inv[2:-1]
    return r_band, qtq_band


@dataclass
class SplineFit:
    """A fitted natural cubic smoothing spline, evaluable anywhere in range."""

    x: np.ndarray
    y: np.ndarray
    lam: float
    fitted: np.ndarray
    gamma: np.ndarray  # second derivatives at interior knots

    @property
    def residuals(self) -> np.ndarray:
        return self.y - self.fitted

    def evaluate(self, xq, extrapolate: bool = False) -> np.ndarray:
        return _eval_natural_cubic(
            self.x, self.fitted, self.gamma, np.asarray(xq, dtype=float),
            extrapolate=extrapolate,
        )

    __call__ = evaluate


def _eval_natural_cubic(
    x: np.ndarray,
    f: np.ndarray,
    gamma: np.ndarray,
    xq: np.ndarray,
    extrapolate: bool = False,
) -> np.ndarray:
    """Evaluate a natural cubic spline given knot values and interior
    second derivatives. f/gamma may be (n,)/(n-2,) or (n, B)/(n-2, B);
    the result is (m,) or (m, B), a 1-D fit being evaluated as one column.
    Outside the knot range the natural spline continues linearly; that is
    an OutOfRangeError unless `extrapolate`."""
    if f.ndim == 1:
        return _eval_natural_cubic(
            x, f[:, None], gamma[:, None], xq, extrapolate
        )[:, 0]
    outside_lo = xq < x[0]
    outside_hi = xq > x[-1]
    if np.any(outside_lo) or np.any(outside_hi):
        if not extrapolate:
            raise OutOfRangeError("evaluation point outside fitted range")
        inner = _eval_natural_cubic(
            x, f, gamma, np.clip(xq, x[0], x[-1]), extrapolate=False
        )
        g1 = gamma[0] if len(gamma) else 0.0
        g2 = gamma[-1] if len(gamma) else 0.0
        slope_lo = (f[1] - f[0]) / (x[1] - x[0]) - (x[1] - x[0]) * g1 / 6.0
        slope_hi = (f[-1] - f[-2]) / (x[-1] - x[-2]) + (x[-1] - x[-2]) * g2 / 6.0
        d_lo = np.where(outside_lo, xq - x[0], 0.0)
        d_hi = np.where(outside_hi, xq - x[-1], 0.0)
        return inner + d_lo[:, None] * slope_lo + d_hi[:, None] * slope_hi
    g = np.zeros((len(x), f.shape[1]))
    g[1:-1] = gamma
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
    h = x[idx + 1] - x[idx]
    a = ((x[idx + 1] - xq) / h)[:, None]
    b = ((xq - x[idx]) / h)[:, None]
    h2 = (h**2)[:, None]
    return (
        a * f[idx]
        + b * f[idx + 1]
        + ((a**3 - a) * g[idx] + (b**3 - b) * g[idx + 1]) * h2 / 6.0
    )


def _as_points(x, y, min_points: int, purpose: str = ""):
    """x and y as float arrays, checked: 1-D, equal length, at least
    `min_points` long (else InsufficientDataError) and finite."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("x and y must be 1-D and equal length")
    if len(x) < min_points:
        raise InsufficientDataError(
            f"need >= {min_points} points{purpose}, got {len(x)}"
        )
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("non-finite input")
    return x, y


@functools.cache
def _pbsv():
    from scipy.linalg import get_lapack_funcs

    return get_lapack_funcs("pbsv", (np.empty(0),))  # the float64 routine


def _solve_band(ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """`solveh_banded(ab, b, check_finite=False)` for a float64 upper
    band and a right-hand side of shape (m,) or (m, B): the same LAPACK
    pbsv call, resolved once, without the wrapper's per-call argument
    handling, so the result is bitwise the same."""
    _, x, info = _pbsv()(ab, b)
    if info > 0:
        raise np.linalg.LinAlgError(f"{info}th leading minor not positive definite")
    if info < 0:
        raise ValueError(f"illegal value in {-info}th argument of internal pbsv")
    return x


def _smooth(h: np.ndarray, y: np.ndarray, lam: float):
    """Interior second derivatives and fitted values for knot spacings h
    and ordinates y of shape (n,) or (n, B), all finite."""
    r_band, qtq_band = _penalty_matrices(h)
    gamma = _solve_band(r_band + lam * qtq_band, _qt_matvec(h, y))
    return gamma, y - lam * _q_matvec(h, gamma)


def fit_points(x, y, lam: float) -> SplineFit:
    """Fit the penalized least-squares natural cubic spline at fixed lam."""
    x, y = _as_points(x, y, 4)
    if not 0 <= lam < math.inf:
        raise ValueError("lam must be nonnegative and finite")
    gamma, fitted = _smooth(_spacings(x), y, lam)
    return SplineFit(x=x, y=y, lam=float(lam), fitted=fitted, gamma=gamma)


def gcv_score(x, y, lam: float) -> float:
    """Generalized cross-validation score at one smoothing parameter."""
    from scipy.linalg import solveh_banded

    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    h = _spacings(x)
    r_band, qtq_band = _penalty_matrices(h)
    m_band = r_band + lam * qtq_band
    qtq = _qt_matvec(h, _q_matvec(h, np.eye(n - 2)))  # dense Q'Q
    df = n - lam * np.trace(solveh_banded(m_band, qtq))
    resid = lam * _q_matvec(h, solveh_banded(m_band, _qt_matvec(h, y)))
    rss = float(resid @ resid)
    denom = 1.0 - df / n
    if denom <= 0:
        return math.inf
    return (rss / n) / denom**2


def default_lambda_grid(x, n_grid: int = 61) -> np.ndarray:
    """Logarithmic lam grid spanning 1e-6*s to 1e6*s, s set by spacing."""
    h = _spacings(np.asarray(x, dtype=float))
    scale = len(x) * float(np.mean(h)) ** 3
    return np.geomspace(1e-6 * scale, 1e6 * scale, n_grid)


def select_lambda_gcv(x, y, grid=None) -> float:
    """Pick lam minimizing GCV over a log grid; deterministic, first
    minimizer wins on ties."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 5:
        raise InsufficientDataError(f"need >= 5 points for GCV, got {len(x)}")
    if grid is None:
        grid = default_lambda_grid(x)
    scores = np.array([gcv_score(x, y, lam) for lam in grid])
    return float(grid[int(np.argmin(scores))])


def select_lambda_block_cv(
    x,
    y,
    block_length: int = 7,
    gap: int = 6,
    grid=None,
) -> float:
    """Pick lam by leave-block-out cross-validation with a buffer gap.

    Rates built from 7-day trailing averages carry noise correlated over
    the window span, which makes leave-one-out criteria (GCV included)
    undersmooth badly: every held-out point has near-duplicates in the
    training set. Holding out `block_length`-day blocks and additionally
    dropping a `gap`-day buffer on each side from the training set breaks
    that leakage. Deterministic; first minimizer wins on ties.
    """
    x, y = _as_points(x, y, 4 + block_length + 2 * gap, " for block CV")
    if grid is None:
        grid = default_lambda_grid(x)
    scores = _block_cv_scores(x, y, block_length, gap, grid)
    return float(grid[int(np.argmin(scores))])


def _block_cv_scores(x, y, block_length: int, gap: int, grid) -> np.ndarray:
    """Mean squared held-out error of each grid lam (validated x, y).

    Each block builds its bands and Q'y once and solves every lam against
    them; the arithmetic is that of one `fit_points` per (block, lam).
    """
    lams = np.asarray(grid, dtype=float)
    if np.any(lams < 0):
        raise ValueError("lam must be nonnegative")
    _spacings(x)
    n = len(x)
    err = np.zeros(len(lams))
    count = 0
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
        gammas = np.empty((len(qty), len(lams)))
        for k, lam in enumerate(lams):
            gammas[:, k] = _solve_band(r_band + lam * qtq_band, qty)
        fitted = yt[:, None] - lams * _q_matvec(h, gammas)
        pred = _eval_natural_cubic(xt, fitted, gammas, x[held], extrapolate=True)
        # per-lam rows, contiguous, so each sum runs as a 1-D np.sum does
        sq = np.ascontiguousarray(((y[held][:, None] - pred) ** 2).T)
        err += sq.sum(axis=1)
        count += len(pred)
    if count == 0:
        raise InsufficientDataError("no usable cross-validation blocks")
    return err / count


def fit_smoothing_spline(series: RateSeries, lam="block-cv") -> SplineFit:
    """Fit the trend spline to a rate series on its defined days only.

    `lam` may be a number, "gcv", or "block-cv" (default: block CV, which
    is robust to the window-induced residual correlation of these series).
    """
    defined = ~series.series.gaps
    x = np.flatnonzero(defined).astype(float)
    y = series.series.values[defined]
    if isinstance(lam, str):
        if lam == "gcv":
            lam = select_lambda_gcv(x, y)
        elif lam == "block-cv":
            lam = select_lambda_block_cv(x, y)
        else:
            raise ValueError(f"unknown lam spec: {lam}")
    return fit_points(x, y, float(lam))


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 1000
    block_length: int = 7
    seed: int = 0
    level: float = 0.95

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.block_length < 1:
            raise ValueError("block_length must be >= 1")
        if not (0 < self.level < 1):
            raise ValueError("level must be in (0, 1)")


def moving_block_resample(
    residuals: np.ndarray, block_length: int, rng: np.random.Generator
) -> np.ndarray:
    """One moving-block resample of a residual series.

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


def post_blacken(base: SplineFit, resampled_residuals: np.ndarray) -> np.ndarray:
    """Synthetic ordinates: base fitted values plus resampled residuals."""
    resampled_residuals = np.asarray(resampled_residuals, dtype=float)
    if resampled_residuals.shape != base.fitted.shape:
        raise ValueError("residual length does not match the fit")
    return base.fitted + resampled_residuals


@dataclass
class ReplicateSet:
    """B refitted trends from one resampling pass over the base fit."""

    base: SplineFit
    lams: np.ndarray  # per-replicate smoothing parameter
    fitted: np.ndarray  # (n, B)
    gammas: np.ndarray  # (n-2, B)

    @property
    def n_replicates(self) -> int:
        return self.fitted.shape[1]

    def evaluate(self, xq) -> np.ndarray:
        """Replicate trend values at query points, shape (m, B)."""
        return _eval_natural_cubic(
            self.base.x, self.fitted, self.gammas, np.asarray(xq, dtype=float)
        )


def build_replicates(base: SplineFit, config: BootstrapConfig) -> ReplicateSet:
    """Resample residual blocks, post-blacken, refit each replicate.

    Per-replicate RNG streams are spawned deterministically from the
    master seed, so parallel and sequential execution agree; here all
    replicates share one banded factorization (same lam, same knots) and
    are solved as a single multi-RHS system.
    """
    b = config.replicates
    children = np.random.SeedSequence(config.seed).spawn(b)
    residuals = base.residuals
    synthetic = np.empty((len(base.x), b))
    for j, child in enumerate(children):
        rng = np.random.default_rng(child)
        synthetic[:, j] = post_blacken(
            base, moving_block_resample(residuals, config.block_length, rng)
        )

    gammas, fitted = _smooth(_spacings(base.x), synthetic, base.lam)
    lams = np.full(b, base.lam)
    return ReplicateSet(base=base, lams=lams, fitted=fitted, gammas=gammas)


@dataclass(frozen=True)
class IntervalEstimate:
    date: dt.date
    median: float
    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= self.median <= self.upper):
            raise ValueError("percentiles out of order")


@dataclass(frozen=True)
class DropEstimate:
    date_old: dt.date
    date_new: dt.date
    median: float
    lower: float
    upper: float
    excluded_replicates: int = 0
    flagged: bool = False

    def __post_init__(self):
        if not (self.lower <= self.median <= self.upper):
            raise ValueError("percentiles out of order")


def _nearest_rank(sorted_values: np.ndarray, q: float) -> float:
    """Nearest-rank percentile: the ceil(q*B)-th order statistic."""
    b = len(sorted_values)
    k = min(max(math.ceil(q * b), 1), b)
    return float(sorted_values[k - 1])


def _percentile_triplet(values: np.ndarray, level: float) -> tuple[float, float, float]:
    s = np.sort(values)
    alpha = (1.0 - level) / 2.0
    return (
        _nearest_rank(s, 0.5),
        _nearest_rank(s, alpha),
        _nearest_rank(s, 1.0 - alpha),
    )


@dataclass
class TrendResult:
    """Levels and drops read off one shared replicate set."""

    base: SplineFit
    replicates: ReplicateSet
    levels: list[IntervalEstimate] = field(default_factory=list)
    drops: list[DropEstimate] = field(default_factory=list)
    clipped_bounds: int = 0


def analyze_trend(
    series: RateSeries,
    config: BootstrapConfig,
    dates: list[dt.date],
    date_pairs: list[tuple[dt.date, dt.date]] = (),
    lam="block-cv",
    clip_to_unit: bool = True,
) -> TrendResult:
    """Fit, bootstrap once, and extract levels and relative drops."""
    reps = build_replicates(fit_smoothing_spline(series, lam=lam), config)
    return read_estimates(reps, series, dates, date_pairs, config.level,
                          clip_to_unit)


def read_estimates(
    reps: ReplicateSet,
    series: RateSeries,
    dates: list[dt.date],
    date_pairs: list[tuple[dt.date, dt.date]] = (),
    level: float = 0.95,
    clip_to_unit: bool = True,
) -> TrendResult:
    """Levels and relative drops of `series`, read off its replicate set.

    Levels and drops come from the same replicate trends, so drop
    intervals reflect within-replicate dependence between the two dates.
    Rates live on [0, 1]; reported values are clipped there with a count.
    A date outside the fitted range raises OutOfRangeError.
    """
    result = TrendResult(base=reps.base, replicates=reps)
    all_dates = list(dates) + [d for pair in date_pairs for d in pair]
    xq = np.array([series.series.day_index(d) for d in all_dates], dtype=float)
    values = reps.evaluate(xq) if len(xq) else np.empty((0, reps.n_replicates))

    for i, date in enumerate(dates):
        triplet = _percentile_triplet(values[i], level)
        if clip_to_unit:
            result.clipped_bounds += sum(v < 0.0 or v > 1.0 for v in triplet)
            triplet = [min(max(v, 0.0), 1.0) for v in triplet]
        result.levels.append(IntervalEstimate(date, *triplet))

    offset = len(dates)
    for j, (d_old, d_new) in enumerate(date_pairs):
        old = values[offset + 2 * j]
        new = values[offset + 2 * j + 1]
        ok = old != 0.0
        excluded = int(np.sum(~ok))
        if excluded == len(old):
            raise InsufficientDataError("all replicates have zero old-date value")
        rel = (new[ok] - old[ok]) / old[ok]
        result.drops.append(DropEstimate(
            d_old, d_new, *_percentile_triplet(rel, level),
            excluded_replicates=excluded,
            flagged=excluded > 0.01 * reps.n_replicates,
        ))
    return result


def estimate_with_ci(
    series: RateSeries, config: BootstrapConfig, dates: list[dt.date], lam="block-cv"
) -> list[IntervalEstimate]:
    """Per-date median and percentile bounds across bootstrap replicates."""
    return analyze_trend(series, config, dates, lam=lam).levels


def estimate_drop(
    series: RateSeries,
    config: BootstrapConfig,
    date_old: dt.date,
    date_new: dt.date,
    lam="block-cv",
) -> DropEstimate:
    """Relative change (new - old)/old with percentile bounds, computed
    per replicate."""
    return analyze_trend(
        series, config, [], [(date_old, date_new)], lam=lam
    ).drops[0]
