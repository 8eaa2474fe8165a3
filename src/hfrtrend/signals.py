"""Smoothing and rate computation.

All rates are ratios of 7-day trailing-averaged counts: numerator and
denominator are smoothed separately, then divided. Undefined dates carry
a gap mark, never a zero, so exports and spline fits can skip them. The
rates are read off a cohort table (CFR, HFR, age-band shares, female
fractions) or off a dense daily testing grid (positive-test rate).
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass

import numpy as np

from .cohort import ALL_GENDERS, CohortTable, StratumKey
from .records import AGE_BANDS


@dataclass
class TimeSeries:
    """Daily values on a dense grid with a gap mask (True = undefined)."""

    start: dt.date
    values: np.ndarray
    gaps: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.gaps is None:
            self.gaps = np.zeros(len(self.values), dtype=bool)
        else:
            self.gaps = np.asarray(self.gaps, dtype=bool)
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


@dataclass
class RateSeries:
    """A smoothed ratio with its smoothed support counts."""

    series: TimeSeries
    numerator_support: np.ndarray
    denominator_support: np.ndarray
    kind: str  # {cfr, hfr, pos_test_rate, share}

    def write_long_csv(self, path, stratum: str = "aggregate") -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["date", "stratum", "value", "num_support", "den_support", "gap"]
            )
            for i, date in enumerate(self.series.dates):
                gap = bool(self.series.gaps[i])
                writer.writerow(
                    [
                        date.isoformat(),
                        stratum,
                        "" if gap else f"{self.series.values[i]:.10g}",
                        f"{self.numerator_support[i]:.10g}",
                        f"{self.denominator_support[i]:.10g}",
                        int(gap),
                    ]
                )


WINDOW = 7


def trailing_average_7d(raw: TimeSeries) -> TimeSeries:
    """Trailing mean over [t-6, t] on a dense daily grid.

    The first 6 days have no complete trailing window inside the series
    and are gap-marked, as is any day whose window touches a gap.
    Callers wanting defined values early must supply pre-window data.
    """
    n = len(raw)
    values = np.zeros(n)
    gaps = np.ones(n, dtype=bool)
    if n >= WINDOW:
        windows = np.lib.stride_tricks.sliding_window_view(raw.values, WINDOW)
        values[WINDOW - 1 :] = windows.sum(axis=1) / WINDOW
        gap_windows = np.lib.stride_tricks.sliding_window_view(raw.gaps, WINDOW)
        gaps[WINDOW - 1 :] = gap_windows.any(axis=1)
    values[gaps] = 0.0
    return TimeSeries(raw.start, values, gaps)


def _ratio_of_smoothed(
    start: dt.date,
    numerator: np.ndarray,
    denominator: np.ndarray,
    kind: str,
    extra_gaps: np.ndarray | None = None,
) -> RateSeries:
    num = trailing_average_7d(TimeSeries(start, np.asarray(numerator, dtype=float)))
    den = trailing_average_7d(TimeSeries(start, np.asarray(denominator, dtype=float)))
    gaps = num.gaps | den.gaps | (den.values <= 0)
    if extra_gaps is not None:
        gaps = gaps | extra_gaps
    safe = np.where(den.values > 0, den.values, 1.0)
    values = np.where(gaps, 0.0, num.values / safe)
    return RateSeries(
        series=TimeSeries(start, values, gaps),
        numerator_support=num.values,
        denominator_support=den.values,
        kind=kind,
    )


def cfr_series(table: CohortTable, stratum: StratumKey = StratumKey()) -> RateSeries:
    """Cohort CFR: smoothed eventual deaths over smoothed cases."""
    counts = table.counts(stratum)
    return _ratio_of_smoothed(table.start, counts[:, 2], counts[:, 0], "cfr")


def hfr_series(
    table: CohortTable, stratum: StratumKey = StratumKey(), min_deaths: int = 2
) -> RateSeries:
    """Cohort HFR: smoothed hospitalized-and-died over smoothed
    eventual hospitalizations.

    Dates whose trailing 7-day hospitalized-and-died total is below
    `min_deaths` are gap-marked (inadequate support).
    """
    counts = table.counts(stratum)
    hosp_and_died = counts[:, 3].astype(float)
    n = len(hosp_and_died)
    window_deaths = np.zeros(n)
    if n >= WINDOW:
        window_deaths[WINDOW - 1 :] = np.lib.stride_tricks.sliding_window_view(
            hosp_and_died, WINDOW
        ).sum(axis=1)
    low_support = window_deaths < min_deaths
    return _ratio_of_smoothed(
        table.start, counts[:, 3], counts[:, 1], "hfr", extra_gaps=low_support
    )


def positive_test_rate(start: dt.date, positives, tests) -> RateSeries:
    """Smoothed new positives over smoothed new tests, on a dense daily
    grid from `start`."""
    if len(tests) == 0:
        raise ValueError("no testing days")
    return _ratio_of_smoothed(start, positives, tests, "pos_test_rate")


def age_distribution_shares(table: CohortTable, signal: str) -> dict[str, TimeSeries]:
    """Per-date share of each known-age band in the smoothed signal.

    Shares over the named bands sum to 1 wherever the smoothed known-age
    denominator is positive; dates with zero denominator are gap-marked.
    """
    smoothed = {}
    for band in AGE_BANDS:
        raw = table.signal(StratumKey(band, ALL_GENDERS), signal).astype(float)
        smoothed[band] = trailing_average_7d(TimeSeries(table.start, raw))
    denom = np.sum([smoothed[b].values for b in AGE_BANDS], axis=0)
    gaps = next(iter(smoothed.values())).gaps | (denom <= 0)
    out = {}
    safe = np.where(denom > 0, denom, 1.0)
    for band in AGE_BANDS:
        out[band] = TimeSeries(table.start, smoothed[band].values / safe, gaps.copy())
    return out


def gender_fraction_series(table: CohortTable, signal: str) -> dict[str, TimeSeries]:
    """Per-date female fraction per age band on smoothed counts.

    fraction = female / (female + male); dates where the smoothed
    female+male denominator is below 5 are gap-marked.
    """
    out = {}
    for band in AGE_BANDS:
        female = trailing_average_7d(
            TimeSeries(
                table.start,
                table.signal(StratumKey(band, "female"), signal).astype(float),
            )
        )
        male = trailing_average_7d(
            TimeSeries(
                table.start,
                table.signal(StratumKey(band, "male"), signal).astype(float),
            )
        )
        denom = female.values + male.values
        gaps = female.gaps | male.gaps | (denom < 5.0)
        safe = np.where(denom > 0, denom, 1.0)
        out[band] = TimeSeries(table.start, female.values / safe, gaps)
    return out
