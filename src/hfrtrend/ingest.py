"""Readers of line-level surveillance files and testing aggregates.

Two layouts are supported (Florida FDOH line list and the national CDC
case-surveillance file) via declarative schemas, plus daily testing
aggregates. `parse_columns` reads the file in text blocks of about
BLOCK_CHARS characters, each cut at a newline, and decodes them column
by column. A plain block (no quote, no carriage return, no blank line,
every row exactly as wide as the header) is cut into cells by one
`str.split`, and a column is a slice of that cell list; any other block
goes through `csv.reader`. Each column's coder maps cell text to an int
code (negative for a reject reason), so each distinct date, age or label
is decoded once (a study window has a few hundred distinct dates and
ages) and the per-row work is dict lookups driven from C. Category
columns code into fixed code spaces laid out for the store (AGE_VALUES,
BAND_VALUES, GENDERS, OUTCOME_CATEGORIES), so each block's cases are
counted into the store's cells by array arithmetic; only dates and
states grow a vocabulary. No Python object is built per row and the
file is never held in memory. `parse_florida_lines` builds
RawLineRecords from the same decoded blocks, for either layout.
`load_testing_series` reads the few hundred rows of a testing file one
by one into a dense daily grid of new positives and new tests.
Cohort selection and artifact detection on the store's cells live in `cohort`.
"""

from __future__ import annotations

import contextlib
import csv
import datetime as dt
import gzip
import io
import logging
import re
from itertools import chain, compress, islice
from operator import itemgetter
from typing import IO, Iterator

import numpy as np

from .records import (
    AGE_BANDS,
    AGE_UNKNOWN,
    GENDERS,
    OUTCOME_CATEGORIES,
    IngestReport,
    RawLineRecord,
    recode_outcome,
    resolve_age_band,
)
from .schemas import FLORIDA_SCHEMA, ParseSchema, SchemaError, fold
from .store import BAND_INDEX, NO_CELLS, NO_STATE, CaseColumns, count_cells, day_index

log = logging.getLogger(__name__)

# Characters read per block, before the cut at the next newline. Each
# block is counted into the store's cells before the next is read, so a
# small block keeps peak memory near the cells' size; at a few thousand
# rows the per-block numpy overhead is already negligible.
BLOCK_CHARS = 1 << 16


@contextlib.contextmanager
def _open_text(file) -> Iterator[IO[str]]:
    """Open a path or stream as text, gunzipping when it starts with the
    gzip magic bytes and dropping a leading UTF-8 byte-order mark.

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
        text = io.TextIOWrapper(raw, encoding="utf-8-sig")
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


# The fixed code spaces of the age and band columns; GENDERS and
# OUTCOME_CATEGORIES are those of the gender and outcome columns. The
# schema's checks and `_decode_age` keep every decoded value inside them.
AGE_VALUES = (None, *range(121))
BAND_VALUES = (None, *AGE_BANDS)
# store band code by (band code, age code): an explicit band wins
_BAND_TABLE = np.array([[BAND_INDEX[resolve_age_band(b, a)] for a in AGE_VALUES]
                        for b in BAND_VALUES], np.uint8)
_RECODE = np.array([recode_outcome(c) for c in OUTCOME_CATEGORIES])  # by outcome code
_NUMBER_TEXT = re.compile(r"[+-]?[0-9]+(\.[0-9]+)?")  # ASCII digits, one optional point


class _Coder(dict):
    """Maps cell text to an int code, decoding each distinct text once:
    the index of the decoded value in `values`, or the negative reject
    code. `values` starts as the column's code space; a value outside it
    (a new date or state) is appended."""

    __slots__ = ("decode", "values", "index")

    def __init__(self, decode, values):
        super().__init__()
        self.decode = decode
        self.values = list(values)
        self.index = {v: i for i, v in enumerate(self.values)}

    def __missing__(self, text: str) -> int:
        value = self.decode(text)
        if isinstance(value, int) and value < 0:
            code = value
        elif (code := self.index.get(value)) is None:
            code = self.index[value] = len(self.values)
            self.values.append(value)
        self[text] = code
        return code


def _decode_age(text: str) -> int | None:
    text = text.strip()
    if not text:
        return None
    if not _NUMBER_TEXT.fullmatch(text):  # float alone reads 1_0, 5e1 and nan
        return _BAD_AGE
    years = float(text)
    return int(years) if 0 <= years < 121 else _BAD_AGE  # so -0.5 is no age 0


def _label(spellings: dict[str, str], reject: int, unknown: str | None = None):
    """Decoder of a category cell; the `unknown` spelling decodes to None."""

    def decode(text: str):
        value = spellings.get(fold(text), reject)
        return None if value == unknown else value

    return decode


def _blocks(text: IO[str], delimiter: str, width: int):
    """Yield the rows left in `text` a block at a time, as (lengths,
    column, row): each row's field count (0 for a blank line), a function
    of cell index i giving cell i of each row with at least `width`
    fields, and a function of row index j giving row j's fields.

    A block is BLOCK_CHARS characters cut at the next newline. It is
    plain when csv.reader would cut each of its lines at every delimiter
    into exactly `width` fields: no quote, no carriage return, no blank
    line, no more characters than csv.field_size_limit() (so a field over
    it meets csv.reader's error), (width - 1) delimiters a line, and every
    line's first cell at a multiple of `width` in the split (a short and
    a long row can cancel out in the delimiter count). A plain block is
    split once into a flat cell list and a column is a slice of it; the
    newline that ends each row stays at the start of the next row's first
    cell, which every decoder strips. Any other block goes through
    csv.reader, which takes as many rows as the block has lines and reads
    on into the stream where a quoted field spans lines, so no row is cut
    in two.
    """
    while block := text.read(BLOCK_CHARS):
        if block[-1] != "\n":
            block += text.readline()
        lines = block.count("\n") + (block[-1] != "\n")
        if not ('"' in block or "\r" in block or "\n\n" in block
                or block[0] == "\n" or len(block) > csv.field_size_limit()) \
                and block.count(delimiter) == (width - 1) * lines:
            cells = block.rstrip("\n").replace(
                "\n", delimiter + "\n").split(delimiter)
            if "".join(cells[width::width]).count("\n") == lines - 1:
                yield (np.full(lines, width), lambda i: cells[i::width],
                       lambda j: [cells[j * width].lstrip("\n"),
                                  *cells[j * width + 1:(j + 1) * width]])
                continue
        rows = list(islice(csv.reader(chain(io.StringIO(block),
                                            iter(text.readline, "")),
                                      delimiter=delimiter), lines))
        lengths = np.fromiter(map(len, rows), np.intp, len(rows))
        whole = lengths >= width
        kept = rows if whole.all() else list(compress(rows, whole))
        yield lengths, lambda i: map(itemgetter(i), kept), rows.__getitem__


def _decode_blocks(
    file,
    schema: ParseSchema,
    report: IngestReport,
    use_alt_event_date: bool = False,
    quarantine: IO[str] | None = None,
) -> Iterator[tuple[list[list], np.ndarray]]:
    """Decode a delimited file a block at a time (see `_blocks`) under the
    rules of `parse_columns`, filling `report`.

    Yields per block the code spaces of the RawLineRecord fields and of
    the confirmation column (the date and state lists grow as the file
    is read) and an int array whose row k holds the kept rows' indices
    into code space k. Each cell goes through its column's `_Coder`, so
    a cell text seen before costs one dict lookup made from C.
    """
    date_col = schema.event_date_column
    if use_alt_event_date:
        if schema.alt_event_date_column is None:
            raise SchemaError(f"schema {schema.name} has no alternate date column")
        date_col = schema.alt_event_date_column
    with _open_text(file) as text:
        header = next(csv.reader(iter(text.readline, ""),
                                 delimiter=schema.delimiter), None)
        if header is None:
            raise SchemaError("input file has no header row")
        index = {name: i for i, name in enumerate(header)}
        outcome = _label(schema.outcome_spellings, _BAD_OUTCOME)
        confirmed = schema.confirmed_values
        # (column name, coder) in RawLineRecord field order, which is also
        # the reject precedence, then the confirmation column, which only
        # rejects; a column the schema lacks (None) reads as code 0.
        columns = [
            (date_col, _Coder(
                lambda t: _parse_date(t, schema.date_formats) or _BAD_DATE, ())),
            (schema.age_column, _Coder(_decode_age, AGE_VALUES)),
            (schema.age_band_column, _Coder(
                _label(schema.age_band_spellings, _BAD_AGE, AGE_UNKNOWN), BAND_VALUES)),
            (schema.gender_column,
             _Coder(_label(schema.gender_spellings, _BAD_GENDER), GENDERS)),
            (schema.hospitalized_column, _Coder(outcome, OUTCOME_CATEGORIES)),
            (schema.died_column, _Coder(outcome, OUTCOME_CATEGORIES)),
            (schema.state_column, _Coder(lambda t: t.strip().upper() or None, (None,))),
            (schema.confirmation_column, _Coder(
                lambda t: None if fold(t) in confirmed else _NOT_CONFIRMED,
                (None,))),
        ]
        missing = dict.fromkeys(c for c, _ in columns if c is not None and c not in index)
        if missing:
            raise SchemaError(f"missing required column(s): {', '.join(missing)}")
        width = len(header)
        writer = None
        if quarantine is not None:
            writer = csv.writer(quarantine, delimiter=schema.delimiter)
            writer.writerow(header + ["rejection_reason"])
        values = [codes.values for _, codes in columns]
        read = [(k, index[c], codes.__getitem__)
                for k, (c, codes) in enumerate(columns) if c is not None]

        for lengths, column, row in _blocks(text, schema.delimiter, width):
            whole = lengths >= width
            n = int(np.count_nonzero(whole))
            codes = np.zeros((len(columns), n), np.int32)
            for k, i, code in read:
                codes[k] = np.fromiter(map(code, column(i)), np.int32, n)
            first_bad = np.argmax(codes < 0, axis=0)
            row_reason = np.minimum(codes[first_bad, np.arange(n)], 0)
            # short rows are malformed; blank ones (length 0) are skipped
            reason = np.where(lengths > 0, _MALFORMED, 0)
            reason[whole] = row_reason
            rejected = np.flatnonzero(reason).tolist()
            if rejected:
                counts = np.bincount(-reason[rejected], minlength=len(_REASONS))
                for name, n_rows in zip(_REASONS[1:], counts[1:].tolist()):
                    if n_rows:
                        report.reject(name, n_rows)
                if writer is not None:
                    for j in rejected:
                        fields = row(j)
                        writer.writerow(fields[:width] + [""] * (width - len(fields))
                                        + [_REASONS[-reason[j]]])
            kept = codes[:, row_reason == 0]
            # fields 4 and 5: hospitalized and died
            report.tally_kept(kept[4], kept[5])
            yield values, kept


def parse_columns(
    file,
    schema: ParseSchema,
    report: IngestReport,
    use_alt_event_date: bool = False,
    quarantine: IO[str] | None = None,
) -> CaseColumns:
    """Parse a delimited file straight into the store's cells, filling
    `report`.

    A row is rejected for its first bad cell in field order (date, age,
    band, gender, hospitalized, died, confirmation); lab-unconfirmed rows
    (schemas with a confirmation column) are rejected, and rows with
    fewer fields than the header are malformed_row. When `quarantine` is
    given, rejected rows are written there in input order with a trailing
    reason column. As with csv.DictReader, blank lines are skipped
    uncounted and fields past the header's are ignored.

    Each block's cases are counted into the store's cells (`count_cells`;
    states in store codes, dates in the file's) before the next block is
    decoded, so no array outlives its block but the cells.
    """
    dates, states, cells = [], [], NO_CELLS
    # store code by named state code, in the order kept rows meet them
    store_code: dict[int, int] = {}
    for values, codes in _decode_blocks(
            file, schema, report, use_alt_event_date, quarantine):
        dates, states = values[0], values[6]
        day, age, band, gender, hosp, died, state, _ = codes
        found, first = np.unique(state, return_index=True)
        for code in found[np.argsort(first)].tolist():
            if states[code]:
                store_code.setdefault(code, len(store_code))
        vocab_code = np.array([store_code.get(c, NO_STATE) for c in range(len(states))])
        cells = count_cells(cells, day, vocab_code[state], _BAND_TABLE[band, age], gender,
                            _RECODE[hosp], _RECODE[died])
    return CaseColumns.of_cells(
        cells, date_vocab=np.fromiter(map(day_index, dates), np.int32),
        state_vocab=np.array([states[c] for c in store_code], dtype=str))


def parse_florida_lines(
    file, schema: ParseSchema = FLORIDA_SCHEMA, **kwargs
) -> tuple[list[RawLineRecord], IngestReport]:
    """Parse a line list into RawLineRecords under `schema` (Florida by
    default; pass CDC_SCHEMA for the CDC layout). Keyword arguments are
    those of `parse_columns`."""
    report = IngestReport()
    records: list[RawLineRecord] = []
    for values, codes in _decode_blocks(file, schema, report, **kwargs):
        # every field but the confirmation column's, which only rejects
        records += map(RawLineRecord, *(
            map(v.__getitem__, c.tolist()) for v, c in zip(values, codes[:-1])
        ))
    return records, report


def load_testing_series(
    file,
    cumulative: bool,
    report: IngestReport,
) -> tuple[dt.date, np.ndarray, np.ndarray]:
    """Load daily testing aggregates, differencing cumulative inputs.

    The file has `date`, `positive` and `totalTestResults` columns, with
    dates as YYYY-MM-DD, YYYYMMDD or MM/DD/YYYY. Returns the first date
    and the new positives and new tests of each day from it to the last
    date, on a dense grid; a day with no row holds 0. In a daily file the
    rows of one date are summed; in a cumulative file they are running
    totals, so a date's last row in file order is its total.

    Negative daily increments (reporting corrections) are clamped to zero
    and counted on the report. As in the line-list parser, a row with
    fewer fields than the header is rejected as malformed_row and blank
    lines are skipped. A count is a whole number in ASCII digits, and an
    empty or blank cell reads as 0; any other rejects its row as
    bad_count. A file with no usable row is a SchemaError.
    """
    rows = []
    with _open_text(file) as text:
        reader = csv.reader(text)
        header = next(reader, None)
        if header is None:
            raise SchemaError("testing file has no header row")
        index = {name: i for i, name in enumerate(header)}
        columns = ("date", "positive", "totalTestResults")
        for col in columns:
            if col not in index:
                raise SchemaError(f"missing required column(s): {col}")
        i_date, i_pos, i_tests = (index[col] for col in columns)
        for row in reader:
            if len(row) < len(header):
                if row:
                    report.reject("malformed_row")
                continue
            date = _parse_date(row[i_date], ("%Y-%m-%d", "%Y%m%d", "%m/%d/%Y"))
            if date is None:
                report.reject("bad_date")
                continue
            counts = [row[i_pos].strip() or "0", row[i_tests].strip() or "0"]
            if not all(_NUMBER_TEXT.fullmatch(c) and float(c).is_integer()
                       for c in counts):  # float alone reads 1_5 and 12.7
                report.reject("bad_count")
                continue
            pos, tests = (int(float(c)) for c in counts)
            report.total_rows += 1
            report.kept_rows += 1
            rows.append((date, pos, tests))
    if not rows:
        raise SchemaError("testing file has no usable row")
    if cumulative:
        rows = list({row[0]: row for row in rows}.values())
    rows.sort(key=itemgetter(0))

    start = rows[0][0]
    positives = np.zeros((rows[-1][0] - start).days + 1)
    totals = np.zeros(len(positives))
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
        i = (date - start).days
        positives[i] += d_pos
        totals[i] += d_tests
    if report.clamped_values:
        log.warning("clamped %d non-monotone testing values", report.clamped_values)
    return start, positives, totals
