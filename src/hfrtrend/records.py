"""Core record types shared across the pipeline.

Line-level surveillance rows come in raw (four-category outcome labels,
age as years or a pre-binned band) and normalized (strict booleans, decade
age bands) flavors. The normalization rules live here; the store keeps
the normalized form as columns, and LineRecord is its per-record view.
Ingest counts kept rows per chunk from their outcome label codes
(`IngestReport.tally_kept`), never per row.
"""

from __future__ import annotations

import datetime as dt
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

AGE_BANDS = (
    "0-9",
    "10-19",
    "20-29",
    "30-39",
    "40-49",
    "50-59",
    "60-69",
    "70-79",
    "80+",
)
AGE_UNKNOWN = "unknown"
ALL_AGE_BANDS = AGE_BANDS + (AGE_UNKNOWN,)

GENDERS = ("female", "male", "other-unknown")

OUTCOME_CATEGORIES = ("yes", "no", "unknown", "missing")

CONFIRMED_PCR = "pcr_positive"


@dataclass(frozen=True, slots=True)
class RawLineRecord:
    """One parsed row before outcome recoding and age binning."""

    event_date: dt.date
    age_years: int | None  # integer age when the source gives years
    age_band: str | None  # pre-binned band when the source gives bands
    gender: str  # one of GENDERS
    hospitalized_raw: str  # one of OUTCOME_CATEGORIES
    died_raw: str  # one of OUTCOME_CATEGORIES
    state: str | None
    confirmation_kind: str  # CONFIRMED_PCR (unconfirmed rows are rejected)


@dataclass(frozen=True, slots=True)
class LineRecord:
    """One confirmed case with recoding completed."""

    event_date: dt.date
    age_band: str  # one of ALL_AGE_BANDS
    gender: str  # one of GENDERS
    hospitalized: bool
    died: bool
    state: str | None = None


@dataclass
class IngestReport:
    """Accounting for one parsed file: every input row is kept or rejected."""

    total_rows: int = 0
    kept_rows: int = 0
    rejected_rows_by_reason: Counter = field(default_factory=Counter)
    hospitalized_tallies: Counter = field(default_factory=Counter)
    died_tallies: Counter = field(default_factory=Counter)
    clamped_values: int = 0
    excluded_states: list[str] = field(default_factory=list)

    def reject(self, reason: str, count: int = 1) -> None:
        self.total_rows += count
        self.rejected_rows_by_reason[reason] += count

    def tally_kept(self, hospitalized, died) -> None:
        """Count kept rows from their raw outcome labels. Each argument is
        a (labels, codes) pair: one int code per kept row, indexing the
        label sequence."""
        for tallies, (labels, codes) in (
            (self.hospitalized_tallies, hospitalized),
            (self.died_tallies, died),
        ):
            counts = np.bincount(codes, minlength=len(labels))
            tallies.update({lab: int(n) for lab, n in zip(labels, counts) if n})
        self.total_rows += len(died[1])
        self.kept_rows += len(died[1])

    @property
    def conserved(self) -> bool:
        return self.total_rows == self.kept_rows + sum(
            self.rejected_rows_by_reason.values()
        )

    def as_dict(self) -> dict:
        return {
            "total_rows": self.total_rows,
            "kept_rows": self.kept_rows,
            "rejected_rows_by_reason": dict(self.rejected_rows_by_reason),
            "hospitalized_tallies": dict(self.hospitalized_tallies),
            "died_tallies": dict(self.died_tallies),
            "clamped_values": self.clamped_values,
            "excluded_states": list(self.excluded_states),
        }


@dataclass(frozen=True, slots=True)
class DailyTestRecord:
    """Daily testing aggregates (already differenced to daily increments)."""

    date: dt.date
    new_positives: int
    new_tests: int
    region: str


class Memo(dict):
    """Maps a key to decode(key), computing each distinct key once."""

    __slots__ = ("decode",)

    def __init__(self, decode):
        super().__init__()
        self.decode = decode

    def __missing__(self, key):
        value = self[key] = self.decode(key)
        return value


def recode_outcome(raw: str) -> bool:
    """Collapse the four outcome categories to a boolean.

    Only an explicit "yes" counts as an event; "no", "unknown" and
    "missing" all recode to False.
    """
    if raw not in OUTCOME_CATEGORIES:
        raise ValueError(f"not an outcome category: {raw!r}")
    return raw == "yes"


def bin_age(age_years: int) -> str:
    """Map integer age in years to its decade band (80+ open above)."""
    if age_years < 0:
        raise ValueError(f"negative age: {age_years}")
    if age_years >= 80:
        return "80+"
    return AGE_BANDS[age_years // 10]


def resolve_age_band(age_band: str | None, age_years: int | None) -> str:
    """An explicit band wins over binned years; neither means unknown."""
    if age_band is not None:
        return age_band
    if age_years is not None:
        return bin_age(age_years)
    return AGE_UNKNOWN


def normalize_record(raw: RawLineRecord) -> LineRecord:
    """Recode outcomes to booleans and resolve the age band."""
    return LineRecord(
        event_date=raw.event_date,
        age_band=resolve_age_band(raw.age_band, raw.age_years),
        gender=raw.gender,
        hospitalized=recode_outcome(raw.hospitalized_raw),
        died=recode_outcome(raw.died_raw),
        state=raw.state,
    )
