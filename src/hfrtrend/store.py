"""Normalized columnar case store.

Parsing the multi-gigabyte national file is slow; analysis is iterated
many times with different strata and dates. The store decouples the two:
ingest hands over each chunk of rows as int codes into per-column lists
of decoded values, `columns_from_codes` maps the codes to parallel numpy
columns (`CaseColumns`) through per-value lookup tables, `save_store`
writes them as a versioned .npz, and analysis works on those columns
without a Python object per case.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, fields
from itertools import product
from math import prod
from typing import Iterable

import numpy as np

from .records import (
    ALL_AGE_BANDS,
    GENDERS,
    LineRecord,
    Memo,
    recode_outcome,
    resolve_age_band,
)

STORE_VERSION = 2
NO_STATE = -1  # state code of a case without a state

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


def columns_from_codes(chunks: Iterable[tuple[list[list], np.ndarray]]) -> CaseColumns:
    """Normalize decoded row chunks into columns (the ingest path).

    A chunk gives, per RawLineRecord field, the list of distinct decoded
    values, and an int array whose row k holds the kept rows' indices into
    list k. The rules of `normalize_record` run once per distinct value,
    through lookup tables rebuilt when a value list grows; each chunk is
    turned into store dtypes before the next is decoded, so memory holds
    the final columns plus one chunk.
    """
    memos: dict[int, Memo] = {}
    tables: dict[int, np.ndarray] = {}

    def lookup(key, rule, dtype, *values) -> np.ndarray:
        """rule(*v) for every combination v of decoded values, indexed by
        their codes."""
        shape = tuple(map(len, values))
        table = tables.get(key)
        if table is None or table.shape != shape:
            memo = memos.setdefault(key, Memo(lambda v: rule(*v)))
            table = tables[key] = np.fromiter(
                map(memo.__getitem__, product(*values)), dtype, prod(shape)
            ).reshape(shape)
        return table

    states: list = []
    seen: dict[int, None] = {}  # decoded states in the order kept rows meet them
    parts = [[np.empty(0, t) for t in _DTYPES]]
    for values, codes in chunks:
        dates, ages, bands, genders, hosps, dieds, states, _ = values
        day, age, band, gender, hosp, died, state, _ = codes
        found, first = np.unique(state, return_index=True)
        seen.update(dict.fromkeys(found[np.argsort(first)].tolist()))
        parts.append([
            lookup(0, day_index, np.int32, dates)[day],
            lookup(1, lambda b, a: BAND_INDEX[resolve_age_band(b, a)],
                   np.uint8, bands, ages)[band, age],
            lookup(2, GENDER_INDEX.__getitem__, np.uint8, genders)[gender],
            lookup(3, recode_outcome, bool, hosps)[hosp],
            lookup(4, recode_outcome, bool, dieds)[died],
            state,
        ])
    *columns, state = (np.concatenate(c) for c in zip(*parts))
    named = [code for code in seen if states[code]]
    vocab_code = np.full(len(states), NO_STATE, np.int32)
    vocab_code[named] = np.arange(len(named))
    return CaseColumns(*columns, vocab_code[state],
                       state_vocab=np.array([states[c] for c in named], dtype=str))


def as_columns(records: Iterable[LineRecord] | CaseColumns) -> CaseColumns:
    """Columns of already-normalized records; columns pass through. This
    lets record-level entry points share the columnar implementation."""
    if isinstance(records, CaseColumns):
        return records
    records = list(records)
    vocab = list(dict.fromkeys(r.state for r in records if r.state))
    state_code = {name: i for i, name in enumerate(vocab)}
    columns = (
        [day_index(r.event_date) for r in records],
        [BAND_INDEX[r.age_band] for r in records],
        [GENDER_INDEX[r.gender] for r in records],
        [r.hospitalized for r in records],
        [r.died for r in records],
        [state_code.get(r.state, NO_STATE) for r in records],
    )
    return CaseColumns(
        *(np.array(c, t) for c, t in zip(columns, _DTYPES)),
        state_vocab=np.array(vocab, dtype=str),
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
