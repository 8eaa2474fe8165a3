"""Parsing and filtering of line-level surveillance files.

Two layouts are supported (Florida FDOH line list and the national CDC
case-surveillance file) via declarative schemas, plus daily testing
aggregates. Parsing streams rows through `csv.reader` and decodes each
cell through a per-column memo, so each distinct date, age or label is
decoded once (a study window has a few hundred distinct dates and ages);
one RawLineRecord is yielded per kept row and the file is never held in
memory. Cohort filtering and artifact detection work on store columns.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import gzip
import io
import logging
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
from .store import CaseColumns, as_columns, day_date, day_index

log = logging.getLogger(__name__)

STUDY_WINDOW = (dt.date(2020, 3, 26), dt.date(2020, 11, 1))
DATA_VINTAGE = dt.date(2020, 12, 4)


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


class _Reject:
    """Decoded value of a cell that rejects its row."""

    def __init__(self, reason: str):
        self.reason = reason


_BAD_DATE, _BAD_AGE, _BAD_GENDER, _BAD_OUTCOME, _NOT_CONFIRMED = map(
    _Reject, ("bad_date", "bad_age", "bad_gender", "bad_outcome", "not_lab_confirmed")
)
_REJECTS = frozenset((_BAD_DATE, _BAD_AGE, _BAD_GENDER, _BAD_OUTCOME, _NOT_CONFIRMED))


def _decode_age(text: str) -> int | None | _Reject:
    text = text.strip()
    if not text:
        return None
    try:
        years = int(float(text))
    except (ValueError, OverflowError):
        return _BAD_AGE
    return years if 0 <= years <= 120 else _BAD_AGE


def _label(spellings: dict[str, str], reject: _Reject, unknown: str | None = None):
    """Decoder of a category cell; the `unknown` spelling decodes to None."""

    def decode(text: str):
        value = spellings.get(text.strip().lower(), reject)
        return None if value == unknown else value

    return decode


def iter_parse_lines(
    file,
    schema: ParseSchema,
    report: IngestReport,
    use_alt_event_date: bool = False,
    quarantine: IO[str] | None = None,
) -> Iterator[RawLineRecord]:
    """Stream RawLineRecords from a delimited file, filling `report`.

    Rejected rows are tallied per reason; when `quarantine` is given they
    are re-emitted there with a trailing reason column. Lab-unconfirmed
    rows (schemas with a confirmation column) are rejected, and so are
    rows with fewer fields than the header (malformed_row). As with
    csv.DictReader, blank lines are skipped uncounted and fields past the
    header's are ignored.
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

        # Per column: its index and a memo from cell text to the decoded
        # value or a _Reject; (None, None) when the schema lacks it.
        def memo(column, decode):
            return (None, None) if column is None else (index[column], Memo(decode))

        outcome = _label(schema.outcome_spellings, _BAD_OUTCOME)
        confirmed = schema.confirmed_values
        i_date, dates = memo(
            date_col, lambda t: _parse_date(t, schema.date_formats) or _BAD_DATE)
        i_age, ages = memo(schema.age_column, _decode_age)
        i_band, bands = memo(
            schema.age_band_column,
            _label(schema.age_band_spellings, _BAD_AGE, AGE_UNKNOWN))
        i_gender, genders = memo(
            schema.gender_column, _label(schema.gender_spellings, _BAD_GENDER))
        i_hosp, hosps = memo(schema.hospitalized_column, outcome)
        i_died, dieds = memo(schema.died_column, outcome)
        i_state, states = memo(
            schema.state_column, lambda t: t.strip().upper() or None)
        i_conf, confirmations = memo(
            schema.confirmation_column,
            lambda t: CONFIRMED_PCR if t.strip().lower() in confirmed
            else _NOT_CONFIRMED)

        for row in reader:
            if len(row) < width:
                if not row:
                    continue
                reason = "malformed_row"
            else:
                # RawLineRecord's field order is also the reject precedence:
                # bad_date, bad_age, bad_gender, bad_outcome, not_lab_confirmed.
                values = (
                    dates[row[i_date]],
                    None if ages is None else ages[row[i_age]],
                    None if bands is None else bands[row[i_band]],
                    genders[row[i_gender]],
                    hosps[row[i_hosp]],
                    dieds[row[i_died]],
                    None if states is None else states[row[i_state]],
                    CONFIRMED_PCR if confirmations is None
                    else confirmations[row[i_conf]],
                )
                if _REJECTS.isdisjoint(values):
                    raw = RawLineRecord(*values)
                    report.keep(raw)
                    yield raw
                    continue
                reason = next(v for v in values if v in _REJECTS).reason
            report.reject(reason)
            if writer is not None:
                writer.writerow(row[:width] + [""] * (width - len(row)) + [reason])


def parse_florida_lines(
    file, schema: ParseSchema = FLORIDA_SCHEMA, **kwargs
) -> tuple[list[RawLineRecord], IngestReport]:
    """Parse a Florida-layout line list; event date is the positive-test
    confirmation date column."""
    report = IngestReport()
    return list(iter_parse_lines(file, schema, report, **kwargs)), report


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
