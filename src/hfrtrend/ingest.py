"""Parsing and filtering of line-level surveillance files.

Two layouts are supported (Florida FDOH line list and the national CDC
case-surveillance file) via declarative schemas, plus daily testing
aggregates. `parse_columns` reads `csv.reader` rows CHUNK_ROWS at a
time and decodes them column by column: each column's coder maps cell
text to an int code for the decoded value (negative for a reject
reason), so each distinct date, age or label is decoded once (a study
window has a few hundred distinct dates and ages) and the per-row work
is dict lookups driven from C. The kept rows' codes go to
`store.columns_from_codes` chunk by chunk; no Python object is built
per row and the file is never held in memory. `parse_florida_lines`
and `parse_cdc_lines` build RawLineRecords from the same decoded
chunks. Cohort filtering and artifact detection work on store columns.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import gzip
import io
import logging
from itertools import compress, islice
from operator import itemgetter
from typing import IO, Iterable, Iterator

import numpy as np

from .records import (
    AGE_UNKNOWN,
    CONFIRMED_PCR,
    IngestReport,
    DailyTestRecord,
    LineRecord,
    Memo,
    RawLineRecord,
)
from .schemas import CDC_SCHEMA, FLORIDA_SCHEMA, ParseSchema, SchemaError
from .store import CaseColumns, as_columns, columns_from_codes, day_date, day_index

log = logging.getLogger(__name__)

STUDY_WINDOW = (dt.date(2020, 3, 26), dt.date(2020, 11, 1))
DATA_VINTAGE = dt.date(2020, 12, 4)
# Rows decoded per step. Each chunk is turned into store dtypes before
# the next is read, so a small chunk keeps peak memory near the final
# columns' size; past a few hundred rows the per-chunk numpy overhead
# is already negligible.
CHUNK_ROWS = 512


@contextlib.contextmanager
def _open_text(file) -> Iterator[IO[str]]:
    """Open a path or stream as text, gunzipping when it starts with the
    gzip magic bytes.

    The start is peeked, never re-read, so pipes and stdin work. A file
    opened here is closed on exit; a caller's stream is left open.
    """
    owned = isinstance(file, (str, bytes)) or hasattr(file, "__fspath__")
    if not owned and isinstance(file.read(0), str):
        yield file
        return
    with contextlib.ExitStack() as stack:
        raw = stack.enter_context(open(file, "rb")) if owned else file
        if not hasattr(raw, "peek"):
            raw = io.BufferedReader(raw)
            stack.callback(raw.detach)
        if raw.peek(2)[:2] == b"\x1f\x8b":
            raw = stack.enter_context(gzip.GzipFile(fileobj=raw))
        text = io.TextIOWrapper(raw, encoding="utf-8")
        stack.callback(text.detach)
        yield text


def _parse_date(text: str, formats: tuple[str, ...]) -> dt.date | None:
    text = text.strip()
    if not text:
        return None
    for fmt in formats:
        try:
            return dt.datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


# A decoder returns minus a reason's index here for a cell that rejects
# its row; no decoded value is a negative int.
_REASONS = (None, "bad_date", "bad_age", "bad_gender", "bad_outcome",
            "not_lab_confirmed", "malformed_row")
_BAD_DATE, _BAD_AGE, _BAD_GENDER, _BAD_OUTCOME, _NOT_CONFIRMED, _MALFORMED = (
    range(-1, -7, -1))


class _Coder(Memo):
    """Memo from cell text to an int code: the index of the decoded value
    in `values`, which lists each distinct value once, or the negative
    reject code."""

    __slots__ = ("values",)

    def __init__(self, decode):
        self.values: list = []
        index: dict = {}

        def code(text: str) -> int:
            value = decode(text)
            if isinstance(value, int) and value < 0:
                return value
            if value not in index:
                index[value] = len(self.values)
                self.values.append(value)
            return index[value]

        super().__init__(code)


def _decode_age(text: str) -> int | None:
    text = text.strip()
    if not text:
        return None
    try:
        years = int(float(text))
    except (ValueError, OverflowError):
        return _BAD_AGE
    return years if 0 <= years <= 120 else _BAD_AGE


def _label(spellings: dict[str, str], reject: int, unknown: str | None = None):
    """Decoder of a category cell; the `unknown` spelling decodes to None."""

    def decode(text: str):
        value = spellings.get(text.strip().lower(), reject)
        return None if value == unknown else value

    return decode


def _decode_chunks(
    file,
    schema: ParseSchema,
    report: IngestReport,
    use_alt_event_date: bool = False,
    quarantine: IO[str] | None = None,
) -> Iterator[tuple[list[list], np.ndarray]]:
    """Decode a delimited file CHUNK_ROWS rows at a time under the rules
    of `parse_columns`, filling `report`.

    Yields per chunk the RawLineRecord fields' lists of distinct decoded
    values (they grow as the file is read) and an int array whose row k
    holds the kept rows' indices into list k. Each cell goes through its
    column's `_Coder`, so a cell text seen before costs one dict lookup
    made from C.
    """
    date_col = schema.event_date_column
    if use_alt_event_date:
        if schema.alt_event_date_column is None:
            raise SchemaError(f"schema {schema.name} has no alternate date column")
        date_col = schema.alt_event_date_column
    with _open_text(file) as text:
        reader = csv.reader(text, delimiter=schema.delimiter)
        header = next(reader, None)
        if header is None:
            raise SchemaError("input file has no header row")
        index = {name: i for i, name in enumerate(header)}
        required = dict.fromkeys([date_col, *schema.required_columns()])
        missing = [c for c in required if c not in index]
        if missing:
            raise SchemaError(f"missing required column(s): {', '.join(missing)}")
        width = len(header)
        writer = None
        if quarantine is not None:
            writer = csv.writer(quarantine, delimiter=schema.delimiter)
            writer.writerow(header + ["rejection_reason"])

        def coder(column, decode, absent=None):
            """(cell index, coder); a column the schema lacks reads as
            its one value `absent`, code 0."""
            codes = _Coder(decode)
            if column is None:
                codes.values.append(absent)
                return None, codes
            return index[column], codes

        outcome = _label(schema.outcome_spellings, _BAD_OUTCOME)
        confirmed = schema.confirmed_values
        # In RawLineRecord field order, which is also the reject precedence.
        columns = [
            coder(date_col,
                  lambda t: _parse_date(t, schema.date_formats) or _BAD_DATE),
            coder(schema.age_column, _decode_age),
            coder(schema.age_band_column,
                  _label(schema.age_band_spellings, _BAD_AGE, AGE_UNKNOWN)),
            coder(schema.gender_column,
                  _label(schema.gender_spellings, _BAD_GENDER)),
            coder(schema.hospitalized_column, outcome),
            coder(schema.died_column, outcome),
            coder(schema.state_column, lambda t: t.strip().upper() or None),
            coder(schema.confirmation_column,
                  lambda t: CONFIRMED_PCR if t.strip().lower() in confirmed
                  else _NOT_CONFIRMED,
                  CONFIRMED_PCR),
        ]
        values = [codes.values for _, codes in columns]
        read = [(k, i, codes.__getitem__)
                for k, (i, codes) in enumerate(columns) if i is not None]

        while chunk := list(islice(reader, CHUNK_ROWS)):
            lengths = np.fromiter(map(len, chunk), np.intp, len(chunk))
            whole = lengths >= width
            rows = chunk if whole.all() else list(compress(chunk, whole))
            codes = np.zeros((len(columns), len(rows)), np.int32)
            for k, i, code in read:
                codes[k] = np.fromiter(
                    map(code, map(itemgetter(i), rows)), np.int32, len(rows))
            first_bad = np.argmax(codes < 0, axis=0)
            row_reason = np.minimum(codes[first_bad, np.arange(len(rows))], 0)
            # short rows are malformed; blank ones (length 0) are skipped
            reason = np.where(lengths > 0, _MALFORMED, 0)
            reason[whole] = row_reason
            rejected = np.flatnonzero(reason).tolist()
            if rejected:
                counts = np.bincount(-reason[rejected], minlength=len(_REASONS))
                for name, n in zip(_REASONS[1:], counts[1:].tolist()):
                    if n:
                        report.reject(name, n)
                if writer is not None:
                    writer.writerows(
                        chunk[j][:width] + [""] * (width - len(chunk[j]))
                        + [_REASONS[-reason[j]]]
                        for j in rejected
                    )
            kept = codes[:, row_reason == 0]
            # fields 4 and 5: hospitalized and died
            report.tally_kept((values[4], kept[4]), (values[5], kept[5]))
            yield values, kept


def parse_columns(
    file,
    schema: ParseSchema,
    report: IngestReport,
    use_alt_event_date: bool = False,
    quarantine: IO[str] | None = None,
) -> CaseColumns:
    """Parse a delimited file straight into store columns, filling
    `report`.

    A row is rejected for its first bad cell in field order (date, age,
    band, gender, hospitalized, died, confirmation); lab-unconfirmed rows
    (schemas with a confirmation column) are rejected, and rows with
    fewer fields than the header are malformed_row. When `quarantine` is
    given, rejected rows are written there in input order with a trailing
    reason column. As with csv.DictReader, blank lines are skipped
    uncounted and fields past the header's are ignored.
    """
    return columns_from_codes(
        _decode_chunks(file, schema, report, use_alt_event_date, quarantine)
    )


def parse_florida_lines(
    file, schema: ParseSchema = FLORIDA_SCHEMA, **kwargs
) -> tuple[list[RawLineRecord], IngestReport]:
    """Parse a Florida-layout line list into RawLineRecords; event date is
    the positive-test confirmation date column. Keyword arguments are
    those of `parse_columns`."""
    report = IngestReport()
    records: list[RawLineRecord] = []
    for values, codes in _decode_chunks(file, schema, report, **kwargs):
        records += map(RawLineRecord, *(
            map(v.__getitem__, c.tolist()) for v, c in zip(values, codes)
        ))
    return records, report


def parse_cdc_lines(
    file, schema: ParseSchema = CDC_SCHEMA, **kwargs
) -> tuple[list[RawLineRecord], IngestReport]:
    """Parse a CDC-layout surveillance file; event date defaults to the
    CDC report date (pass use_alt_event_date=True for specimen date)."""
    return parse_florida_lines(file, schema, **kwargs)


def cohort_mask(
    cases: CaseColumns,
    window: tuple[dt.date, dt.date] = STUDY_WINDOW,
    maturity_days: int = 30,
    data_vintage: dt.date = DATA_VINTAGE,
    excluded_states: Iterable[str] = (),
) -> np.ndarray:
    """Cases inside the study window whose outcomes had time to be
    recorded (event date at least `maturity_days` before the vintage),
    outside the excluded states."""
    start, end = window
    if start > end:
        raise ValueError("window start after end")
    if maturity_days < 0:
        raise ValueError("maturity_days must be nonnegative")
    last = min(end, data_vintage - dt.timedelta(days=maturity_days))
    day = cases.event_day
    mask = (day >= day_index(start)) & (day <= day_index(last))
    excluded = cases.state_codes(excluded_states)
    if excluded.size:
        mask &= ~np.isin(cases.state, excluded)
    if not mask.any():
        log.warning("cohort filter produced an empty result")
    return mask


def filter_cohort(
    records: Iterable[LineRecord],
    window: tuple[dt.date, dt.date] = STUDY_WINDOW,
    maturity_days: int = 30,
    data_vintage: dt.date = DATA_VINTAGE,
) -> list[LineRecord]:
    """The records `cohort_mask` keeps."""
    records = list(records)
    mask = cohort_mask(as_columns(records), window, maturity_days, data_vintage)
    return [r for r, keep in zip(records, mask) if keep]


def detect_reporting_artifacts(
    records: Iterable[LineRecord] | CaseColumns, dump_fraction: float = 0.5
) -> list[tuple[str, dict]]:
    """Flag states whose top two event dates hold >= dump_fraction of
    their cases (bulk-dump reporting rather than daily reporting).

    Returns (state, evidence) pairs sorted by state code; evidence gives
    the offending dates and the joint fraction.
    """
    if not (0 < dump_fraction <= 1):
        raise ValueError("dump_fraction must be in (0, 1]")
    cases = as_columns(records)
    by_state = np.argsort(cases.state)
    bounds = np.searchsorted(
        cases.state[by_state], np.arange(len(cases.state_vocab) + 1)
    )
    flagged = []
    for code in np.argsort(cases.state_vocab):
        rows = by_state[bounds[code]:bounds[code + 1]]
        days, counts = np.unique(cases.event_day[rows], return_counts=True)
        # ties broken by date so the evidence is input-order invariant
        top = np.lexsort((days, -counts))[:2]
        total, top_total = int(counts.sum()), int(counts[top].sum())
        if total and top_total / total >= dump_fraction:
            flagged.append((str(cases.state_vocab[code]), {
                "top_dates": [day_date(d).isoformat() for d in days[top]],
                "top_fraction": top_total / total,
                "total_cases": total,
            }))
    return flagged


def load_testing_series(
    file,
    region: str,
    cumulative: bool = True,
    date_column: str = "date",
    positives_column: str = "positive",
    tests_column: str = "totalTestResults",
    date_formats: tuple[str, ...] = ("%Y-%m-%d", "%Y%m%d", "%m/%d/%Y"),
    report: IngestReport | None = None,
) -> list[DailyTestRecord]:
    """Load daily testing aggregates, differencing cumulative inputs.

    Negative daily increments (reporting corrections) are clamped to zero
    and counted on the report. As in the line-list parser, a row with
    fewer fields than the header is rejected as malformed_row and blank
    lines are skipped; an empty count cell reads as 0.
    """
    if report is None:
        report = IngestReport()
    rows = []
    with _open_text(file) as text:
        reader = csv.reader(text)
        header = next(reader, None)
        if header is None:
            raise SchemaError("testing file has no header row")
        index = {name: i for i, name in enumerate(header)}
        columns = (date_column, positives_column, tests_column)
        for col in columns:
            if col not in index:
                raise SchemaError(f"missing required column(s): {col}")
        i_date, i_pos, i_tests = (index[col] for col in columns)
        for row in reader:
            if len(row) < len(header):
                if row:
                    report.reject("malformed_row")
                continue
            date = _parse_date(row[i_date], date_formats)
            if date is None:
                report.reject("bad_date")
                continue
            try:
                pos = int(float(row[i_pos] or 0))
                tests = int(float(row[i_tests] or 0))
            except ValueError:
                report.reject("bad_count")
                continue
            report.total_rows += 1
            report.kept_rows += 1
            rows.append((date, pos, tests))
    rows.sort(key=lambda t: t[0])

    out = []
    prev_pos = prev_tests = 0
    for date, pos, tests in rows:
        if cumulative:
            d_pos, d_tests = pos - prev_pos, tests - prev_tests
            prev_pos, prev_tests = pos, tests
        else:
            d_pos, d_tests = pos, tests
        if d_pos < 0:
            report.clamped_values += 1
            d_pos = 0
        if d_tests < 0:
            report.clamped_values += 1
            d_tests = 0
        if d_pos > d_tests:
            # positives can't exceed tests; trust tests, clamp positives
            report.clamped_values += 1
            d_pos = d_tests
        out.append(
            DailyTestRecord(
                date=date, new_positives=d_pos, new_tests=d_tests, region=region
            )
        )
    if report.clamped_values:
        log.warning("clamped %d non-monotone testing values", report.clamped_values)
    return out
