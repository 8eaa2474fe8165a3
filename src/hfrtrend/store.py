"""Normalized case store: counts of (date, state, profile) cells.

Parsing the multi-gigabyte national file is slow; analysis is iterated
many times with different strata and dates. The store decouples the two:
ingest counts a file's cases into cells (`count_cells`, `CaseColumns`),
`save_store` writes them as a versioned .npz, and `cohort` counts the
cells weighted by their counts. A cell takes 8 bytes, so the store
follows the cells, not the cases: a 2-byte date and 1-byte state code
into vocabularies, a 1-byte profile of age band, gender and outcomes,
and a 4-byte count.
`write_npz` and `open_npz` are the tool's one .npz writer and reader:
the archive is what `np.savez_compressed` writes, at zlib level 1.
`write_csv` writes every CSV table the tool reports.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import json
import zipfile
from dataclasses import dataclass, fields
from typing import Iterable, Iterator

import numpy as np

from .records import ALL_AGE_BANDS, GENDERS, LineRecord
from .schemas import SchemaError

STORE_VERSION = 4
NO_STATE = 255  # state code of a case without a state
MAX_DATES, MAX_STATES = 1 << 16, NO_STATE  # distinct values a column codes
PROFILES = len(ALL_AGE_BANDS) * len(GENDERS) * 4  # `pack` codes

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
    """Normalized cases as parallel arrays, one entry per distinct (date,
    state, profile) cell that holds a case, in key order (`count_cells`),
    and the vocabularies the date and state codes index."""

    profile: np.ndarray  # uint8 (band·3 + gender)·4 + hospitalized + 2·died
    date: np.ndarray  # uint16 index into date_vocab
    state: np.ndarray  # uint8 index into state_vocab, NO_STATE if none
    count: np.ndarray  # uint32 cases in the cell, at least 1
    date_vocab: np.ndarray  # int32 days since EPOCH, distinct
    state_vocab: np.ndarray  # state codes (str), in first-seen order

    def __post_init__(self):
        for what, n, limit in (("event dates", len(self.date_vocab), MAX_DATES),
                               ("states", len(self.state_vocab), MAX_STATES)):
            if n > limit:
                raise SchemaError(f"more than {limit:,} distinct {what}: too many to store")

    @classmethod
    def of_cells(cls, cells, date_vocab, state_vocab) -> CaseColumns:
        """The columns of `count_cells`'s (keys, counts)."""
        key, count = cells
        joint, state = np.divmod(key, 1 << 8)
        date, profile = np.divmod(joint, PROFILES)
        # a code past its column's dtype wraps, and __post_init__ refuses it
        return cls(profile.astype(np.uint8), date.astype(np.uint16),
                   state.astype(np.uint8), count, date_vocab, state_vocab)

    def state_codes(self, names: Iterable[str]) -> np.ndarray:
        """Codes of the named states present in the vocabulary."""
        return np.flatnonzero(np.isin(self.state_vocab, list(names)))


NO_CELLS = (np.zeros(0, np.int32), np.zeros(0, np.uint32))  # `count_cells` of no case


def count_cells(cells, date, state, band, gender, hospitalized, died):
    """`cells`, sorted int32 keys and their uint32 counts, with one case
    counted in per entry of the code arrays. A cell's key is (date ·
    PROFILES + profile) · 256 + state, below 2**31 while the codes are in
    their columns' ranges. The arrays of `cells` may be updated in place."""
    joint = ((date.astype(np.int64) * len(ALL_AGE_BANDS) + band) * len(GENDERS)
             + gender) * 4 + hospitalized + 2 * died
    new, n = np.unique((joint << 8 | state).astype(np.int32), return_counts=True)
    key, count = cells
    at = np.searchsorted(key, new)
    old = at < len(key)
    old[old] = key[at[old]] == new[old]
    count[at[old]] += n[old].astype(np.uint32)
    if old.all():
        return key, count
    return np.insert(key, at[~old], new[~old]), np.insert(count, at[~old], n[~old])


def as_columns(records: Iterable[LineRecord] | CaseColumns) -> CaseColumns:
    """The cells of already-normalized records; cells pass through. This
    lets record-level entry points share the implementation on cells."""
    if isinstance(records, CaseColumns):
        return records
    records = list(records)
    date_code = {d: i for i, d in enumerate(dict.fromkeys(r.event_date for r in records))}
    state_code = {s: i for i, s in enumerate(
        dict.fromkeys(r.state for r in records if r.state))}
    cells = np.array([(BAND_INDEX[r.age_band], GENDER_INDEX[r.gender], r.hospitalized,
                       r.died, date_code[r.event_date], state_code.get(r.state, NO_STATE))
                      for r in records], np.intp).reshape(-1, 6)
    return CaseColumns.of_cells(
        count_cells(NO_CELLS, cells[:, 4], cells[:, 5], *cells[:, :4].T),
        date_vocab=np.array([day_index(d) for d in date_code], np.int32),
        state_vocab=np.array(list(state_code), dtype=str),
    )


def write_npz(path, **arrays) -> None:
    """Write `arrays` as the .npz `np.savez_compressed` writes, at zlib
    level 1, not 6: a store deflates several times faster into about half
    again the bytes. Each member is stamped 1980-01-01 as numpy's are, so
    equal arrays give equal bytes."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED, compresslevel=1) as zf:
        for name, value in arrays.items():
            value = np.asarray(value, order="C")
            # zip64 as numpy forces it: a member's size is not known ahead
            with zf.open(name + ".npy", "w", force_zip64=True) as fh:
                np.lib.format.write_array_header_1_0(
                    fh, np.lib.format.header_data_from_array_1_0(value))
                fh.write(value.data)  # the array's own buffer, not a copy


def write_csv(path, header: list[str], rows) -> None:
    """Write a header row, then `rows`, in the csv module's default dialect."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def save_store(path, cases: CaseColumns, meta: dict) -> None:
    """Write the columns and metadata."""
    write_npz(
        path,
        version=np.int64(STORE_VERSION),
        meta_json=np.str_(json.dumps(meta)),
        **{f.name: getattr(cases, f.name) for f in fields(CaseColumns)},
    )


@contextlib.contextmanager
def open_npz(path, writer: str) -> Iterator[np.lib.npyio.NpzFile]:
    """Open an .npz that the `writer` stage wrote; any other file is a
    SchemaError naming the path and the stage to re-run. Unlike `np.load`,
    this never returns a .npy file's array or leaks a bad zip's handle."""
    try:
        with open(path, "rb") as fh, \
                np.lib.npyio.NpzFile(fh, allow_pickle=False) as npz:
            yield npz
    except SchemaError:
        raise
    except (ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise SchemaError(f"{path} is not an .npz written by this version's "
                          f"{writer} ({exc}); re-run {writer}") from exc


def load_store(path) -> tuple[CaseColumns, dict]:
    """Load the columns and the metadata dict."""
    with open_npz(path, "ingest") as npz:
        version = int(npz["version"]) if "version" in npz.files else None
        if version != STORE_VERSION:
            raise SchemaError(
                f"unsupported store version {version} in {path} (this tool "
                f"reads version {STORE_VERSION}); re-run ingest"
            )
        cases = CaseColumns(**{f.name: npz[f.name] for f in fields(CaseColumns)})
        meta = json.loads(str(npz["meta_json"]))
    return cases, meta
