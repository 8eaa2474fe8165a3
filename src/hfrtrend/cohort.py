"""Cohort selection, daily per-stratum counts and demographics.

A CohortTable holds, for every (age band, gender) cell and every date in
a contiguous range, the number of cases confirmed that day together with
how many of them were eventually hospitalized, eventually died, and were
hospitalized AND died (the HFR numerator). `build_cohort_table` is one
count over the store's cells, weighted by their counts, and
`detect_reporting_artifacts` reads one weighted (state, date) count; the
demographics summary is read off the table.
"""

from __future__ import annotations

import datetime as dt
import logging
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .records import ALL_AGE_BANDS, GENDERS, LineRecord
from .store import (BAND_INDEX, GENDER_INDEX, NO_STATE, PROFILES, CaseColumns,
                    as_columns, day_date, day_index, write_csv)

log = logging.getLogger(__name__)

AGGREGATE = "aggregate"
ALL_GENDERS = "all"

SIGNALS = ("cases", "hosp", "deaths", "hosp_and_died")
_SIG_INDEX = {name: i for i, name in enumerate(SIGNALS)}
# SIGNALS of each joint outcome code, hospitalized + 2 * died (`store.count_cells`)
_SIGNALS_OF_JOINT = np.array(
    [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 1, 1, 1]], np.int64)
DUMP_FRACTION = 0.5


@dataclass(frozen=True, slots=True)
class StratumKey:
    """An (age band, gender) cell; 'aggregate' / 'all' are union sentinels."""

    age_band: str = AGGREGATE
    gender: str = ALL_GENDERS

    def __post_init__(self):
        if self.age_band not in ALL_AGE_BANDS + (AGGREGATE,):
            raise ValueError(f"bad age band: {self.age_band}")
        if self.gender not in GENDERS + (ALL_GENDERS,):
            raise ValueError(f"bad gender: {self.gender}")


@dataclass
class CohortTable:
    """Daily counts per base (age band, gender) cell over [start, end]."""

    start: dt.date
    end: dt.date
    # int64, shape (len(ALL_AGE_BANDS), len(GENDERS), n_days, len(SIGNALS))
    array: np.ndarray
    # the 7-day hospitalized-and-died total below which an HFR day is a gap
    min_deaths: int = 2

    @property
    def n_days(self) -> int:
        return (self.end - self.start).days + 1

    @property
    def dates(self) -> list[dt.date]:
        return [self.start + dt.timedelta(days=i) for i in range(self.n_days)]

    @property
    def cells(self) -> dict[tuple[str, str], np.ndarray]:
        """(age band, gender) -> (n_days, 4) counts, for cells with cases."""
        present = self.array[..., 0].sum(axis=2) > 0
        return {
            (ALL_AGE_BANDS[b], GENDERS[g]): self.array[b, g]
            for b, g in zip(*np.nonzero(present))
        }

    def counts(self, stratum: StratumKey = StratumKey()) -> np.ndarray:
        """Summed (n_days, 4) counts for a stratum, resolving sentinels.

        The aggregate band includes unknown-age records; named age bands
        never do.
        """
        bands = (slice(None) if stratum.age_band == AGGREGATE
                 else [BAND_INDEX[stratum.age_band]])
        genders = (slice(None) if stratum.gender == ALL_GENDERS
                   else [GENDER_INDEX[stratum.gender]])
        return self.array[bands][:, genders].sum(axis=(0, 1))

    def signal(self, stratum: StratumKey, name: str) -> np.ndarray:
        return self.counts(stratum)[:, _SIG_INDEX[name]]

    def write_long_csv(self, path) -> None:
        """Serialize to tidy long format (one row per date and base cell)."""
        dates = [d.isoformat() for d in self.dates]
        write_csv(path, ["date", "age_band", "gender", *SIGNALS],
                  ([date, band, gender, *row]
                   for (band, gender), arr in sorted(self.cells.items())
                   for date, row in zip(dates, arr.tolist())))


def detect_reporting_artifacts(cases: CaseColumns) -> list[tuple[str, dict]]:
    """Flag states whose top two event dates hold >= DUMP_FRACTION of
    their cases (bulk-dump reporting rather than daily reporting).

    Returns (state, evidence) pairs sorted by state code; evidence gives
    the offending dates and the joint fraction.
    """
    named, n_dates = cases.state != NO_STATE, len(cases.date_vocab)
    margin = np.bincount(
        cases.state[named].astype(np.intp) * n_dates + cases.date[named],
        cases.count[named], len(cases.state_vocab) * n_dates).reshape(-1, n_dates)
    flagged = []
    for code in np.argsort(cases.state_vocab):
        dates = np.flatnonzero(margin[code])
        counts, days = margin[code, dates], cases.date_vocab[dates]
        # ties broken by date so the evidence is input-order invariant
        top = np.lexsort((days, -counts))[:2]
        total, top_total = int(counts.sum()), int(counts[top].sum())
        if total and top_total / total >= DUMP_FRACTION:
            flagged.append((str(cases.state_vocab[code]), {
                "top_dates": [day_date(d).isoformat() for d in days[top]],
                "top_fraction": top_total / total,
                "total_cases": total,
            }))
    return flagged


def build_cohort_table(
    records: Iterable[LineRecord] | CaseColumns, start: dt.date, end: dt.date,
    last: dt.date | None = None, excluded_states: Iterable[str] = (),
) -> CohortTable:
    """Count the cohort into a dense daily table.

    Every base cell covers exactly [start, end] with zero-filled gaps so
    downstream rolling windows stay well-defined. A case is counted when
    its event date falls in [start, min(last, end)] and its state is not
    excluded; analyze sets `last` to the vintage less the maturity days,
    so every counted outcome had time to be recorded.
    """
    if start > end:
        raise ValueError("start after end")
    cases = as_columns(records)
    n_days = (end - start).days + 1
    n_kept = n_days if last is None else min(n_days, (last - start).days + 1)
    day = cases.date_vocab[cases.date] - np.int32(day_index(start))
    kept = (day >= 0) & (day < n_kept)
    if excluded_states := list(excluded_states):  # np.isin on strings imports numpy.ma
        kept &= ~np.isin(cases.state, cases.state_codes(excluded_states))
    joint = np.bincount(day[kept] * PROFILES + cases.profile[kept], cases.count[kept],
                        n_days * PROFILES)  # float, so exact below 2**53 cases
    counts = joint.astype(np.int64).reshape(n_days, len(ALL_AGE_BANDS), len(GENDERS), 4)
    if not counts.any():
        log.warning("cohort filter produced an empty result")
    array = np.ascontiguousarray((counts @ _SIGNALS_OF_JOINT).transpose(1, 2, 0, 3))
    return CohortTable(start=start, end=end, array=array)


def summarize_demographics(table: CohortTable) -> dict:
    """Totals of the cases a table counts, summed over its days: the dict
    that demographics.json holds."""
    totals = table.array.sum(axis=2)  # (band, gender, signal)
    cases = totals[..., _SIG_INDEX["cases"]]
    demo = {
        "total_cases": int(cases.sum()),
        "age_counts": {b: int(n) for b, n in zip(ALL_AGE_BANDS, cases.sum(axis=1))},
        "gender_counts": {g: int(n) for g, n in zip(GENDERS, cases.sum(axis=0))},
    }
    for outcome, signal in (("hospitalized", "hosp"), ("died", "deaths")):
        demo[f"{outcome}_yes"] = int(totals[..., _SIG_INDEX[signal]].sum())
        demo[f"{outcome}_no"] = demo["total_cases"] - demo[f"{outcome}_yes"]
    return demo


def demographics_text(demo: dict) -> str:
    """demographics.txt: each count of `demo` with its percent of all cases."""
    total = demo["total_cases"]

    def row(label: str, n: int, width: int) -> str:
        return f"  {label:<{width}} {n:>9} ({100.0 * n / total if total else 0.0:.1f}%)"

    lines = [f"Lab Confirmed COVID-19 Cases  {total}", "Age"]
    lines += [row(b, demo["age_counts"][b], 8) for b in ALL_AGE_BANDS]
    lines.append("Gender")
    lines += [row(g, demo["gender_counts"][g], 14) for g in GENDERS]
    for outcome in ("hospitalized", "died"):
        lines.append(outcome.capitalize())
        lines += [row(answer, demo[f"{outcome}_{answer}"], 3) for answer in ("yes", "no")]
    return "\n".join(lines)
