"""Trend estimation: natural cubic smoothing splines plus a residual
moving-block bootstrap with post-blackening.

The spline minimizes sum (y_i - f(x_i))^2 + lam * integral f''(x)^2 dx
over natural cubic splines with knots at the data abscissae. With the
standard tridiagonal Q (second-difference) and R (roughness) matrices,
the interior second derivatives solve (R + lam Q'Q) g = Q'y and the
fitted values are y - lam Q g; R + lam Q'Q is symmetric pentadiagonal,
so every solve is one O(n) LDL' elimination in numpy (`_eliminate`),
vectorized over right-hand sides or over a lam grid. The smoothing
parameter is a given number or is chosen by block cross-validation,
which eliminates the whole series once down and once up over the grid
and then solves four rows per held-out block (`_block_cv_scores`).

Uncertainty: resample residual blocks with replacement, add them back
onto the base trend (post-blackening), refit with the base smoothing
parameter, and read 95% percentile intervals off the replicate trends,
with levels clipped to [0, 1]. A refit is linear in its series, so a
replicate's value at a point is the smoother's weights there times its
series; one solve gives the weights. A stratum is bootstrapped once,
and its replicate values exist only at the points requested from
`build_replicates`, which draws REPLICATE_SLICE replicates at a time so
that no (n, B) array outlives its slice; every requested date and drop
is read off that one replicate set (`read_estimates`).

Replicate stream contract: a stratum's block starts are 32-bit
little-endian words of `random.Random(seed).randbytes`, each masked to
the bit length of n-L and rejected above n-L, so uniform on [0, n-L];
they fill a (B, ceil(n/L)) array row after row, row j for replicate j,
with L = `signals.WINDOW`. So replicate j depends on (seed, n), not on
B or the residuals.
"""

from __future__ import annotations

import datetime as dt
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .signals import WINDOW, RateSeries

LAMBDA_GRID_SIZE = 61  # points in default_lambda_grid
CV_BLOCK_LENGTH = WINDOW  # days held out per block CV fold: one trailing window
CV_GAP = WINDOW - 1  # days dropped each side of a fold: a window's overlap with it
REPLICATE_SLICE = 64  # replicates drawn at once: bounds their (slice, n) arrays


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
    """R and Q'Q of size n-2 as lower bands: band[0, j] = A[j, j],
    band[1, j] = A[j+1, j], band[2, j] = A[j+2, j], zero past the last row."""
    m = len(h) - 1  # n - 2
    inv = 1.0 / h
    r_band = np.zeros((3, m))
    r_band[0] = (h[:-1] + h[1:]) / 3.0
    r_band[1, :-1] = h[1:-1] / 6.0

    qtq_band = np.zeros((3, m))
    qtq_band[0] = inv[:-1] ** 2 + (inv[:-1] + inv[1:]) ** 2 + inv[1:] ** 2
    qtq_band[1, :-1] = -(inv[1:-1]) * (inv[:-2] + 2.0 * inv[1:-1] + inv[2:])
    qtq_band[2, :-2] = inv[1:-2] * inv[2:-1]
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

    def evaluate(self, xq) -> np.ndarray:
        return _eval_natural_cubic(
            self.x, self.fitted[:, None], self.gamma[:, None],
            np.asarray(xq, dtype=float),
        )[:, 0]


def _eval_natural_cubic(x, f, gamma, xq, extrapolate: bool = False) -> np.ndarray:
    """Evaluate natural cubic splines given (n, B) knot values and (n-2, B)
    interior second derivatives at m points: an (m, B) result. Outside
    the knot range the natural spline continues linearly; that is an
    OutOfRangeError unless `extrapolate`."""
    if not extrapolate and (np.any(xq < x[0]) or np.any(xq > x[-1])):
        raise OutOfRangeError("evaluation point outside fitted range")
    g = np.pad(gamma, ((1, 1), (0, 0)))  # second derivatives, 0 at the ends
    idx, *weights = _cubic_weights(x, xq)
    a, b, c, d = (w[:, None] for w in weights)
    return a * f[idx] + b * f[idx + 1] + c * g[idx] + d * g[idx + 1]


def _cubic_weights(x, xq):
    """For points xq: each one's interval start i, and the weights of f[i],
    f[i+1], g[i] and g[i+1] in the cubic's value there. Past an end a or b
    is negative and its cube drops: with g 0 there, the value goes on linearly."""
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, len(x) - 2)
    h = x[idx + 1] - x[idx]
    a = (x[idx + 1] - xq) / h
    b = (xq - x[idx]) / h
    return idx, a, b, *((np.maximum(w, 0) ** 3 - w) * h**2 / 6.0 for w in (a, b))


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


def _eliminate(band, rhs, state=(0.0,) * 5):
    """Eliminate a symmetric pentadiagonal system top-down (LDL', the O(n)
    solve of Green & Silverman 1994, ch. 2) for a lower band and a
    right-hand side with the rows first; further axes broadcast, so one
    sweep can carry a lam grid. `state` is what rows eliminated before add
    to the first two: (A[0,0], A[1,0], A[1,1], b[0], b[1]). Yields, per
    row, the state before it and the row as eliminated (pivot, A[j+1,j],
    A[j+2,j], b[j]). A pivot that is not positive raises LinAlgError."""
    s00, s10, s11, t0, t1 = state
    for a0, a1, a2, b in zip(*band, rhs):
        pivot, a1, b = a0 + s00, a1 + s10, b + t0
        if not np.all(pivot > 0):
            raise np.linalg.LinAlgError("matrix not positive definite")
        yield (s00, s10, s11, t0, t1), (pivot, a1, a2, b)
        l1, l2 = a1 / pivot, a2 / pivot
        s00, s10, s11 = s11 - l1 * a1, -l1 * a2, -l2 * a2
        t0, t1 = t1 - l1 * b, -l2 * b


def _solve(band, rhs, state=(0.0,) * 5) -> np.ndarray:
    """The solution of `_eliminate`'s system, by back substitution."""
    out, x1, x2 = [], 0.0, 0.0
    for pivot, a1, a2, b in reversed([row for _, row in _eliminate(band, rhs, state)]):
        x1, x2 = (b - a1 * x1 - a2 * x2) / pivot, x1
        out.append(x1)
    return np.array(out[::-1])


def _states(band, rhs, rows) -> dict:
    """`_eliminate`'s state before each of `rows`, every one an array."""
    start = np.zeros((5,) + band.shape[2:])
    sweep = zip(range(max(rows, default=-1) + 1), _eliminate(band, rhs, start))
    return {j: state for j, (state, _) in sweep if j in rows}


def fit_points(x, y, lam: float) -> SplineFit:
    """Fit the penalized least-squares natural cubic spline at fixed lam."""
    x, y = _as_points(x, y, 4)
    if not 0 <= lam < math.inf:
        raise ValueError("lam must be nonnegative and finite")
    h = _spacings(x)
    r_band, qtq_band = _penalty_matrices(h)
    gamma = _solve(r_band + lam * qtq_band, _qt_matvec(h, y))
    return SplineFit(x, y, float(lam), y - lam * _q_matvec(h, gamma), gamma)


def default_lambda_grid(x) -> np.ndarray:
    """Logarithmic lam grid spanning 1e-6*s to 1e6*s, s set by spacing."""
    h = _spacings(np.asarray(x, dtype=float))
    scale = len(x) * float(np.mean(h)) ** 3
    return np.geomspace(1e-6 * scale, 1e6 * scale, LAMBDA_GRID_SIZE)


def select_lambda_block_cv(x, y) -> float:
    """Pick lam from `default_lambda_grid` by leave-block-out
    cross-validation with a buffer gap.

    Rates built from 7-day trailing averages carry noise correlated over
    the window span, which makes leave-one-out criteria (generalized
    cross-validation included) undersmooth badly: every held-out point has near-duplicates in the
    training set. Holding out CV_BLOCK_LENGTH-day blocks and additionally
    dropping a CV_GAP-day buffer on each side from the training set breaks
    that leakage. Deterministic; first minimizer wins on ties.
    """
    x, y = _as_points(x, y, 4 + CV_BLOCK_LENGTH + 2 * CV_GAP, " for block CV")
    grid = default_lambda_grid(x)
    scores = _block_cv_scores(x, y, grid)
    if not np.all(np.isfinite(scores)):
        raise np.linalg.LinAlgError("block CV score not finite")
    return float(grid[int(np.argmin(scores))])


def _block_cv_scores(x, y, lams) -> np.ndarray:
    """Mean squared held-out error of each lam of a grid array, for validated,
    strictly increasing x (h-block CV: Burman, Chow & Nolan 1994).

    A block that drops points [lo, hi) from training leaves m unknowns,
    and its system equals the series' system on every row but the four
    of its window [k, k+4), k = clip(lo-3, 0, m-4): rows above k are the
    series' rows, rows from k+4 on its rows hi-lo further on. So a sweep
    down and one up the series, over the whole grid, eliminate every
    block's rows above and below its window, which it then solves alone
    (all m rows when m < 4). The window's six knots carry the training
    spline over the held-out points: between the knots around the gap,
    or linearly past an end.
    """
    n, h = len(x), np.diff(x)
    r_band, qtq_band = _penalty_matrices(h)
    band = r_band[..., None] + lams * qtq_band[..., None]
    qty = _qt_matvec(h, y)
    blocks = []  # every point is held out once; n >= 4 + L + 2 gaps leaves m >= 2
    for s in range(0, n, CV_BLOCK_LENGTH):
        lo, hi = max(0, s - CV_GAP), min(n, s + CV_BLOCK_LENGTH + CV_GAP)
        m = n - (hi - lo) - 2
        blocks.append((s, lo, hi, m, max(0, min(lo - 3, m - 4))))
    flipped = np.zeros_like(band)  # rows and columns in reverse order
    for d in range(3):
        flipped[d, :n - 2 - d] = band[d, :n - 2 - d][::-1]
    # the series' row k+4+hi-lo is the upward sweep's row m-k-4
    above = _states(band, qty, {k for *_, k in blocks})
    below = _states(flipped, qty[::-1], {m - k - 4 for *_, m, k in blocks if m >= 4})
    err = np.zeros(len(lams))
    for s, lo, hi, m, k in blocks:
        knots = np.r_[:lo, hi:n][k:k + 6]
        xw, yw, hw = x[knots], y[knots], np.diff(x[knots])
        r_w, qtq_w = _penalty_matrices(hw)
        window = r_w[..., None] + lams * qtq_w[..., None]
        rhs = np.repeat(_qt_matvec(hw, yw)[:, None], len(lams), axis=1)
        if m >= 4:  # rows below it, eliminated upward, add to its last two
            s00, s10, s11, t0, t1 = below[m - k - 4]
            window[0, 2:] += s11, s00
            window[1, 2] += s10
            rhs[2:] += t1, t0
        gammas = _solve(window, rhs, above[k])
        fitted = yw[:, None] - lams * _q_matvec(hw, gammas)
        held = slice(s, min(s + CV_BLOCK_LENGTH, n))
        pred = _eval_natural_cubic(xw, fitted, gammas, x[held], extrapolate=True)
        err += ((y[held, None] - pred) ** 2).sum(axis=0)
    return err / n


def fit_smoothing_spline(series: RateSeries, lam: float | None = None) -> SplineFit:
    """Fit the trend spline to a rate series on its defined days only.

    `lam` is a number, or None for block CV, which is robust to the
    window-induced residual correlation of these series.
    """
    defined = ~series.series.gaps
    x = np.flatnonzero(defined).astype(float)
    y = series.series.values[defined]
    return fit_points(x, y, select_lambda_block_cv(x, y) if lam is None else float(lam))


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("replicates must be >= 1")
        if self.seed < 0:  # random.Random seeds with |seed|
            raise ValueError("seed must be >= 0")


def _block_starts(rng: random.Random, rows: int, n: int, block_length: int):
    """The next (rows, ceil(n/L)) block starts of `rng` (module docstring).
    Each draw asks for exactly the words still missing, so successive
    calls continue one stream and drop no accepted word."""
    high, size = n - block_length, -(-n // block_length)
    mask = (1 << high.bit_length()) - 1
    starts = np.empty(0, dtype=np.uint32)
    while (missing := rows * size - len(starts)) > 0:
        words = np.frombuffer(rng.randbytes(4 * missing), dtype="<u4") & mask
        starts = np.concatenate([starts, words[words <= high]])
    return starts.reshape(rows, size)


@dataclass
class ReplicateSet:
    """B replicate trends, kept only at the points they were built for."""

    base: SplineFit
    points: np.ndarray  # (m,) requested points in the fitted range, sorted
    values: np.ndarray  # (m, B) replicate trend values at `points`

    def evaluate(self, xq) -> np.ndarray:
        """Values at query points, shape (len(xq), B). A point outside the
        fitted range raises OutOfRangeError, one not requested ValueError."""
        xq = np.asarray(xq, dtype=float)
        if np.any(xq < self.base.x[0]) or np.any(xq > self.base.x[-1]):
            raise OutOfRangeError("evaluation point outside fitted range")
        if not np.all(np.isin(xq, self.points)):
            raise ValueError("point not requested from build_replicates")
        return self.values[np.searchsorted(self.points, xq)]


def build_replicates(base: SplineFit, config: BootstrapConfig, points) -> ReplicateSet:
    """Resample residual blocks, post-blacken, and read each replicate's
    refit off the smoother's weights.

    Each replicate y* concatenates ceil(n/L) of the n-L+1 overlapping
    length-L residual windows, drawn uniformly with replacement from the
    stratum's one stream (module docstring), truncated to n, onto the
    base fit; L = WINDOW, so a block spans the dependence the rate window
    puts into the noise (Kunsch 1989). Its refit at the base lam is
    w_p . y* at point p, with w_p = e_f + Q (R + lam Q'Q)^-1 (e_g - lam Q'e_f)
    for e_f and e_g the cubic's weights at p on knot values and second
    derivatives; one solve gives every w_p. Replicates are drawn
    REPLICATE_SLICE at a time, and each dot product is one contiguous row
    sum, so no value depends on the slice or on B.
    """
    x, n = base.x, len(base.x)
    if n < WINDOW:
        raise InsufficientDataError(
            f"series length {n} shorter than block length {WINDOW}")
    # not np.unique: in numpy 2.4 it imports numpy.ma
    points = np.array(sorted(set(np.asarray(points, dtype=float).tolist())))
    points = points[(points >= x[0]) & (points <= x[-1])]
    idx, a, b, c, d = _cubic_weights(x, points)
    on_f, on_g = on = np.zeros((2, n, len(points)))  # e_f and e_g, as columns
    cols = np.arange(len(points))
    on[:, idx, cols], on[:, idx + 1, cols] = (a, c), (b, d)
    h = _spacings(x)
    r_band, qtq_band = _penalty_matrices(h)
    solved = _solve(r_band + base.lam * qtq_band,
                    on_g[1:-1] - base.lam * _qt_matvec(h, on_f))
    weights = np.ascontiguousarray((on_f + _q_matvec(h, solved)).T)
    rng = random.Random(config.seed)
    residuals = base.residuals
    values = np.empty((len(points), config.replicates))
    for lo in range(0, config.replicates, REPLICATE_SLICE):
        block = _block_starts(rng, min(REPLICATE_SLICE, config.replicates - lo), n, WINDOW)
        index = (block[:, :, None] + np.arange(WINDOW)).reshape(len(block), -1)
        resampled = residuals[index[:, :n]]
        for row, w in zip(values, weights):
            row[lo:lo + len(block)] = (resampled * w).sum(axis=1)
    values += (weights * base.fitted).sum(axis=1)[:, None]
    return ReplicateSet(base=base, points=points, values=values)


@dataclass(frozen=True)
class IntervalEstimate:
    median: float
    lower: float
    upper: float

    def __post_init__(self):
        if not (self.lower <= self.median <= self.upper):
            raise ValueError("percentiles out of order")


@dataclass(frozen=True)
class DropEstimate(IntervalEstimate):
    excluded_replicates: int = 0
    flagged: bool = False


def _nearest_rank(sorted_values: np.ndarray, q: float, per: int = 1) -> float:
    """Nearest-rank percentile: the ceil(B*q/per)-th order statistic, exact
    when q and per are integers."""
    b = len(sorted_values)
    k = min(max(int(-(-q * b // per)), 1), b)
    return float(sorted_values[k - 1])


LEVEL_PERCENT = 95  # coverage of every reported interval


def _percentile_triplet(values: np.ndarray) -> tuple[float, float, float]:
    s = np.sort(values)
    tails = 100 - LEVEL_PERCENT  # per 200 for each tail: ranks 25 and 975 of 1000
    return (
        _nearest_rank(s, 1, 2),
        _nearest_rank(s, tails, 200),
        _nearest_rank(s, 200 - tails, 200),
    )


@dataclass
class TrendResult:
    """Levels and drops read off one shared replicate set."""

    levels: list[IntervalEstimate] = field(default_factory=list)
    drops: list[DropEstimate] = field(default_factory=list)
    clipped_bounds: int = 0


def analyze_trend(
    series: RateSeries,
    config: BootstrapConfig,
    dates: list[dt.date],
    date_pairs: list[tuple[dt.date, dt.date]] = (),
    lam: float | None = None,
) -> TrendResult:
    """Fit, bootstrap once, and extract levels and relative drops."""
    base = fit_smoothing_spline(series, lam=lam)
    reps = build_replicates(base, config, day_points(series, dates, date_pairs))
    return read_estimates(reps, series, dates, date_pairs)


def day_points(series: RateSeries, dates, date_pairs) -> np.ndarray:
    """Day indices of `dates`, then of each pair's old and new date."""
    all_dates = [*dates, *(d for pair in date_pairs for d in pair)]
    return np.array([series.series.day_index(d) for d in all_dates], dtype=float)


def read_estimates(
    reps: ReplicateSet,
    series: RateSeries,
    dates: list[dt.date],
    date_pairs: list[tuple[dt.date, dt.date]] = (),
) -> TrendResult:
    """Levels and relative drops of `series`, read off its replicate set.

    Levels and drops come from the same replicate trends, so drop
    intervals reflect within-replicate dependence between the two dates.
    Rates live on [0, 1]; reported values are clipped there with a count.
    A date outside the fitted range raises OutOfRangeError; `reps` must
    have been built with the day of every date in range.
    """
    result = TrendResult()
    values = reps.evaluate(day_points(series, dates, date_pairs))

    n = len(dates)
    for level in values[:n]:
        triplet = _percentile_triplet(level)
        result.clipped_bounds += sum(v < 0.0 or v > 1.0 for v in triplet)
        triplet = [min(max(v, 0.0), 1.0) for v in triplet]
        result.levels.append(IntervalEstimate(*triplet))

    for old, new in zip(values[n::2], values[n + 1::2]):
        ok = old != 0.0
        excluded = int(np.sum(~ok))
        if excluded == len(old):
            raise InsufficientDataError("all replicates have zero old-date value")
        rel = (new[ok] - old[ok]) / old[ok]
        result.drops.append(DropEstimate(
            *_percentile_triplet(rel),
            excluded_replicates=excluded,
            flagged=excluded > 0.01 * len(old),
        ))
    return result


def estimate_drop(
    series: RateSeries,
    config: BootstrapConfig,
    date_old: dt.date,
    date_new: dt.date,
) -> DropEstimate:
    """Relative change (new - old)/old with percentile bounds, computed
    per replicate."""
    return analyze_trend(series, config, [], [(date_old, date_new)]).drops[0]
