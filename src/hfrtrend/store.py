"""Normalized columnar case store.

Parsing the multi-gigabyte national file is slow; analysis is iterated
many times with different strata and dates. The store decouples the two:
ingest normalizes parsed rows straight into parallel numpy columns
(`CaseColumns`), built in fixed-size chunks and written as a versioned
.npz, and analysis works on those columns without a Python object per
case.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, fields
from itertools import islice
from operator import itemgetter
from typing import Iterable

import numpy as np

from .records import (
    ALL_AGE_BANDS,
    GENDERS,
    LineRecord,
    Memo,
    RawLineRecord,
    recode_outcome,
    resolve_age_band,
)

STORE_VERSION = 2
NO_STATE = -1  # state code of a case without a state
CHUNK_ROWS = 1 << 16

EPOCH = dt.date(1970, 1, 1)
BAND_INDEX = {b: i for i, b in enumerate(ALL_AGE_BANDS)}
GENDER_INDEX = {g: i for i, g in enumerate(GENDERS)}


def day_index(date: dt.date) -> int:
    """Days since EPOCH, the store's date encoding."""
    return (date - EPOCH).days


def day_date(day) -> dt.date:
    return EPOCH + dt.timedelta(days=int(day))


@dataclass(frozen=True)
class CaseColumns:
    """Normalized cases as parallel arrays, one entry per case."""

    event_day: np.ndarray  # int32, days since EPOCH
    age_band: np.ndarray  # uint8 index into ALL_AGE_BANDS
    gender: np.ndarray  # uint8 index into GENDERS
    hospitalized: np.ndarray  # bool
    died: np.ndarray  # bool
    state: np.ndarray  # int32 index into state_vocab, NO_STATE if none
    state_vocab: np.ndarray  # state codes (str), in first-seen order

    def __len__(self) -> int:
        return len(self.event_day)

    def select(self, mask: np.ndarray) -> CaseColumns:
        return CaseColumns(
            self.event_day[mask], self.age_band[mask], self.gender[mask],
            self.hospitalized[mask], self.died[mask], self.state[mask],
            self.state_vocab,
        )

    def state_codes(self, names: Iterable[str]) -> np.ndarray:
        """Codes of the named states present in the vocabulary."""
        return np.flatnonzero(np.isin(self.state_vocab, list(names)))


_DTYPES = (np.int32, np.uint8, np.uint8, bool, bool, np.int32)


def _build(rows: Iterable[tuple]) -> CaseColumns:
    """Columns from (day, band, gender, hosp, died, state name) rows,
    taken CHUNK_ROWS at a time into numpy chunks so that memory holds at
    most one chunk of Python tuples."""
    vocab: list[str] = []

    def new_state(name):
        vocab.append(name)
        return len(vocab) - 1

    codes = Memo(new_state)
    codes.update({None: NO_STATE, "": NO_STATE})
    chunks = [[np.empty(0, t) for t in _DTYPES]]
    rows = iter(rows)
    while chunk := list(islice(rows, CHUNK_ROWS)):
        values = [map(itemgetter(i), chunk) for i in range(len(_DTYPES))]
        values[-1] = map(codes.__getitem__, values[-1])
        chunks.append(
            [np.fromiter(v, t, len(chunk)) for v, t in zip(values, _DTYPES)]
        )
    columns = [np.concatenate(c) for c in zip(*chunks)]
    return CaseColumns(*columns, state_vocab=np.array(vocab, dtype=str))


def columns_from_raw(raws: Iterable[RawLineRecord]) -> CaseColumns:
    """Normalize parsed rows into columns (the ingest path).

    The normalization rules are the ones `normalize_record` applies, run
    once per distinct date, age and outcome label rather than per row.
    """
    days = Memo(day_index)
    bands = Memo(lambda key: BAND_INDEX[resolve_age_band(*key)])
    events = Memo(recode_outcome)
    return _build(
        (days[r.event_date], bands[r.age_band, r.age_years],
         GENDER_INDEX[r.gender], events[r.hospitalized_raw],
         events[r.died_raw], r.state)
        for r in raws
    )


def as_columns(records: Iterable[LineRecord] | CaseColumns) -> CaseColumns:
    """Columns of already-normalized records; columns pass through. This
    lets record-level entry points share the columnar implementation."""
    if isinstance(records, CaseColumns):
        return records
    return _build(
        (day_index(r.event_date), BAND_INDEX[r.age_band],
         GENDER_INDEX[r.gender], r.hospitalized, r.died, r.state)
        for r in records
    )


def save_store(path, cases: CaseColumns, meta: dict | None = None) -> int:
    """Write the columns and metadata; returns the row count."""
    np.savez_compressed(
        path,
        version=np.int64(STORE_VERSION),
        meta_json=np.str_(json.dumps(meta or {})),
        **{f.name: getattr(cases, f.name) for f in fields(CaseColumns)},
    )
    return len(cases)


def load_store(path) -> tuple[CaseColumns, dict]:
    """Load the columns and the metadata dict."""
    with np.load(path, allow_pickle=False) as npz:
        version = int(npz["version"]) if "version" in npz.files else None
        if version != STORE_VERSION:
            raise ValueError(
                f"unsupported store version {version} in {path} (this tool "
                f"reads version {STORE_VERSION}); re-run ingest"
            )
        cases = CaseColumns(**{f.name: npz[f.name] for f in fields(CaseColumns)})
        meta = json.loads(str(npz["meta_json"]))
    return cases, meta
