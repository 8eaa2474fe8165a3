"""Smoothing and rate computation.

Every rate, share and fraction is one rule: the 7-day trailing mean of
one count over that of another, gap-marked (and 0) where a window is
incomplete or the denominator is not positive. `_window_sums` smooths an
array of any rank along its last axis, so all age bands, or all (female,
male) pairs, are smoothed in one call. A gap day's CSV cell is empty.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .cohort import ALL_GENDERS, CohortTable, StratumKey
from .records import AGE_BANDS
from .store import write_csv


@dataclass
class TimeSeries:
    """Daily values on a dense grid with a gap mask (True = undefined)."""

    start: dt.date
    values: np.ndarray
    gaps: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        self.gaps = np.asarray(
            np.zeros(len(self.values)) if self.gaps is None else self.gaps, dtype=bool)
        if len(self.gaps) != len(self.values):
            raise ValueError("values and gap mask lengths differ")
        if not np.all(np.isfinite(self.values[~self.gaps])):
            raise ValueError("non-finite value outside gaps")

    def __len__(self) -> int:
        return len(self.values)

    @property
    def dates(self) -> list[dt.date]:
        return [self.start + dt.timedelta(days=i) for i in range(len(self))]

    def day_index(self, date: dt.date) -> int:
        return (date - self.start).days


def _cells(series: TimeSeries):
    """Each day's CSV cell, lazily: empty at a gap, else the value to 10 digits."""
    return ("" if gap else f"{value:.10g}"
            for value, gap in zip(series.values, series.gaps))


@dataclass
class RateSeries:
    """A smoothed ratio with its smoothed support counts."""

    series: TimeSeries
    numerator_support: np.ndarray
    denominator_support: np.ndarray
    kind: str  # {cfr, hfr, pos_test_rate, share}

    def write_long_csv(self, path, stratum: str = "aggregate") -> None:
        ts = self.series
        write_csv(
            path, ["date", "stratum", "value", "num_support", "den_support", "gap"],
            ([date.isoformat(), stratum, value, f"{num:.10g}", f"{den:.10g}", int(gap)]
             for date, value, num, den, gap in zip(
                 ts.dates, _cells(ts), self.numerator_support,
                 self.denominator_support, ts.gaps)),
        )


def write_band_csv(path, band_series: dict[str, TimeSeries]) -> None:
    """A date column, then one column of cells per band."""
    dates = next(iter(band_series.values())).dates
    columns = [_cells(ts) for ts in band_series.values()]
    write_csv(path, ["date", *band_series],
              ([date.isoformat(), *cells] for date, *cells in zip(dates, *columns)))


WINDOW = 7  # days per rate window; also trend's block-CV fold and bootstrap block


def _window_sums(values) -> tuple[np.ndarray, np.ndarray]:
    """Sums over [t-6, t] along the last axis, and each day's gap mark:
    the first 6 days have no complete window (their sums are 0)."""
    values = np.asarray(values, dtype=float)
    n = values.shape[-1]
    sums = np.zeros(values.shape)
    if n >= WINDOW:
        windows = np.lib.stride_tricks.sliding_window_view(values, WINDOW, axis=-1)
        sums[..., WINDOW - 1:] = windows.sum(axis=-1)
    return sums, np.arange(n) < WINDOW - 1


def _ratio(start: dt.date, num, den, gaps) -> TimeSeries:
    """num / den, gap-marked (and 0) where `gaps` marks a day or den <= 0."""
    gaps = gaps | (den <= 0)
    return TimeSeries(start, np.where(gaps, 0.0, num / np.where(gaps, 1.0, den)), gaps)


def trailing_average_7d(raw: TimeSeries) -> TimeSeries:
    """Trailing mean over [t-6, t] on a dense daily grid.

    The first 6 days have no complete trailing window inside the series
    and are gap-marked, as is any day whose window touches a gap.
    Callers wanting defined values early must supply pre-window data.
    """
    sums, gaps = _window_sums(raw.values)
    gaps = gaps | (_window_sums(raw.gaps)[0] > 0)
    return TimeSeries(raw.start, np.where(gaps, 0.0, sums / WINDOW), gaps)


def _rate(start: dt.date, numerator, denominator, kind: str,
          min_window_numerator: int = 0) -> RateSeries:
    """Smoothed numerator over smoothed denominator, also gap-marked
    where the numerator's 7-day total is below `min_window_numerator`."""
    sums, gaps = _window_sums(np.stack([numerator, denominator]))
    num, den = sums / WINDOW
    gaps = gaps | (sums[0] < min_window_numerator)
    return RateSeries(_ratio(start, num, den, gaps), num, den, kind)


def cfr_series(table: CohortTable, stratum: StratumKey = StratumKey()) -> RateSeries:
    """Cohort CFR: smoothed eventual deaths over smoothed cases."""
    counts = table.counts(stratum)
    return _rate(table.start, counts[:, 2], counts[:, 0], "cfr")


def hfr_series(table: CohortTable, stratum: StratumKey = StratumKey()) -> RateSeries:
    """Cohort HFR: smoothed hospitalized-and-died over smoothed
    eventual hospitalizations.

    Dates whose trailing 7-day hospitalized-and-died total is below the
    table's `min_deaths` are gap-marked (inadequate support).
    """
    counts = table.counts(stratum)
    return _rate(table.start, counts[:, 3], counts[:, 1], "hfr", table.min_deaths)


def positive_test_rate(start: dt.date, positives, tests) -> RateSeries:
    """Smoothed new positives over smoothed new tests, on a dense daily
    grid from `start`."""
    if len(tests) == 0:
        raise ValueError("no testing days")
    return _rate(start, positives, tests, "pos_test_rate")


def age_distribution_shares(table: CohortTable, signal: str) -> dict[str, TimeSeries]:
    """Per-date share of each known-age band in the smoothed signal.

    Shares over the named bands sum to 1 wherever the smoothed known-age
    denominator is positive; dates with zero denominator are gap-marked.
    """
    sums, gaps = _window_sums(
        [table.signal(StratumKey(band, ALL_GENDERS), signal) for band in AGE_BANDS]
    )
    means = sums / WINDOW
    total = means.sum(axis=0)
    return {band: _ratio(table.start, mean, total, gaps)
            for band, mean in zip(AGE_BANDS, means)}


def gender_fraction_series(table: CohortTable, signal: str) -> dict[str, TimeSeries]:
    """Per-date female fraction per age band on smoothed counts.

    fraction = female / (female + male); dates where the smoothed
    female+male denominator is below 5 are gap-marked.
    """
    sums, gaps = _window_sums(
        [[table.signal(StratumKey(band, gender), signal)
          for gender in ("female", "male")] for band in AGE_BANDS]
    )
    female, male = np.moveaxis(sums / WINDOW, 1, 0)  # each (band, day)
    total = female + male
    return {band: _ratio(table.start, num, den, gaps | (den < 5.0))
            for band, num, den in zip(AGE_BANDS, female, total)}
