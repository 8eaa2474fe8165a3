"""Parsing and filtering, checked against hand-built fixture files."""

import csv
import datetime as dt
import gc
import gzip
import io
import os
import warnings
from collections import Counter, defaultdict
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfrtrend import LineRecord, ingest
from hfrtrend.ingest import (
    cohort_mask,
    detect_reporting_artifacts,
    filter_cohort,
    load_testing_series,
    parse_columns,
    parse_cdc_lines,
    parse_florida_lines,
)
from hfrtrend.records import (
    AGE_UNKNOWN,
    CONFIRMED_PCR,
    IngestReport,
    RawLineRecord,
    normalize_record,
)
from hfrtrend.schemas import CDC_SCHEMA, FLORIDA_SCHEMA, SchemaError
from hfrtrend.store import NO_STATE, CaseColumns, as_columns
from tests.conftest import make_records

FLORIDA_FIXTURE = """\
ChartDate,Age,Gender,Hospitalized,Died
2020-04-01,34,Female,NO,NO
2020-04-01,67,Male,YES,YES
2020-04-02,85,female,yes,no
2020-04-02,,Male,UNKNOWN,NO
2020-04-03,52,Unknown,NO,
2020-04-03,twelve,Male,NO,NO
not-a-date,40,Female,NO,NO
2020-04-04,41,Female,MAYBE,NO
2020-04-05,23,F,N,N
2020-04-05,150,Male,NO,NO
"""

CDC_FIXTURE = """\
cdc_report_dt,pos_spec_dt,age_group,sex,hosp_yn,death_yn,res_state,current_status
2020-04-10,2020-04-08,30 - 39 Years,Female,No,No,FL,Laboratory-confirmed case
2020-04-10,2020-04-07,80+ Years,Male,Yes,Yes,NJ,Laboratory-confirmed case
2020-04-11,2020-04-09,50 - 59 Years,Male,Unknown,No,IL,Laboratory-confirmed case
2020-04-11,2020-04-10,Unknown,Female,No,No,,Laboratory-confirmed case
2020-04-12,2020-04-10,20 - 29 Years,Other,Missing,No,CT,Laboratory-confirmed case
2020-04-12,2020-04-11,40 - 49 Years,Female,No,No,FL,Probable Case
"""


class TestParseFlorida:
    def test_fixture_accounting(self, tmp_path):
        path = tmp_path / "fl.csv"
        path.write_text(FLORIDA_FIXTURE)
        records, report = parse_florida_lines(path)
        # 10 data rows: 6 kept, 1 bad_age (text), 1 bad_age (150),
        # 1 bad_date, 1 bad_outcome
        assert report.total_rows == 10
        assert report.kept_rows == 6
        assert report.rejected_rows_by_reason == {
            "bad_age": 2,
            "bad_date": 1,
            "bad_outcome": 1,
        }
        assert report.conserved
        assert len(records) == 6

    def test_first_row_fields(self, tmp_path):
        path = tmp_path / "fl.csv"
        path.write_text(FLORIDA_FIXTURE)
        records, _ = parse_florida_lines(path)
        first = records[0]
        assert first.event_date == dt.date(2020, 4, 1)
        assert first.age_years == 34
        assert first.gender == "female"
        assert first.hospitalized_raw == "no"
        assert first.died_raw == "no"
        assert first.confirmation_kind == CONFIRMED_PCR

    def test_spelling_variants_normalize(self, tmp_path):
        path = tmp_path / "fl.csv"
        path.write_text(FLORIDA_FIXTURE)
        records, _ = parse_florida_lines(path)
        by_date = {(r.event_date, r.age_years): r for r in records}
        short_forms = by_date[(dt.date(2020, 4, 5), 23)]
        assert short_forms.gender == "female"
        assert short_forms.hospitalized_raw == "no"
        empty_died = by_date[(dt.date(2020, 4, 3), 52)]
        assert empty_died.died_raw == "missing"
        assert empty_died.gender == "other-unknown"

    def test_gzip_input_transparent(self, tmp_path):
        path = tmp_path / "fl.csv.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(FLORIDA_FIXTURE)
        records, report = parse_florida_lines(path)
        assert report.kept_rows == 6
        assert len(records) == 6

    def test_quarantine_gets_rejects_with_reason(self, tmp_path):
        path = tmp_path / "fl.csv"
        path.write_text(FLORIDA_FIXTURE)
        quarantine = io.StringIO()
        report = IngestReport()
        parse_columns(path, FLORIDA_SCHEMA, report, quarantine=quarantine)
        lines = quarantine.getvalue().strip().splitlines()
        assert lines[0].endswith("rejection_reason")
        assert len(lines) == 1 + 4
        reasons = sorted(line.rsplit(",", 1)[1] for line in lines[1:])
        assert reasons == ["bad_age", "bad_age", "bad_date", "bad_outcome"]

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "fl.csv"
        path.write_text("ChartDate,Age,Gender\n2020-04-01,5,Female\n")
        with pytest.raises(SchemaError, match="Hospitalized"):
            parse_florida_lines(path)


class TestRowShapes:
    """Blank, short and long rows behave as under csv.DictReader, except
    that a short row is rejected instead of crashing the parser."""

    FIXTURE = (
        "ChartDate,Age,Gender,Hospitalized,Died\n"
        "2020-04-01,34,Female,NO,NO\n"
        "\n"
        "2020-04-02,54\n"
        "2020-04-03,61,Male,YES,NO,trailing,fields\n"
    )

    def test_short_blank_and_extra_fields(self, tmp_path):
        path = tmp_path / "fl.csv"
        path.write_text(self.FIXTURE)
        quarantine = io.StringIO()
        records, report = parse_florida_lines(path, quarantine=quarantine)
        assert [r.age_years for r in records] == [34, 61]
        assert report.total_rows == 3  # the blank line is not a row
        assert report.rejected_rows_by_reason == {"malformed_row": 1}
        assert report.conserved
        assert quarantine.getvalue().splitlines() == [
            "ChartDate,Age,Gender,Hospitalized,Died,rejection_reason",
            "2020-04-02,54,,,,malformed_row",
        ]

    def test_empty_file_is_schema_error(self, tmp_path):
        path = tmp_path / "fl.csv"
        path.write_text("")
        with pytest.raises(SchemaError, match="header"):
            parse_florida_lines(path)

    def test_missing_alternate_date_column_is_schema_error(self, tmp_path):
        path = tmp_path / "fl.csv"
        path.write_text(FLORIDA_FIXTURE)
        with pytest.raises(SchemaError, match="alternate"):
            parse_florida_lines(path, use_alt_event_date=True)


class TestInputStreams:
    def _through_pipe(self, payload: bytes):
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "wb") as fh:  # fixture fits the pipe buffer
            fh.write(payload)
        with os.fdopen(read_fd, "rb") as fh:
            records, report = parse_florida_lines(fh)
            assert not fh.closed  # the caller's stream stays the caller's
        return records, report

    def test_plain_pipe(self):
        records, report = self._through_pipe(FLORIDA_FIXTURE.encode())
        assert report.kept_rows == 6
        assert len(records) == 6

    def test_gzip_pipe(self):
        records, report = self._through_pipe(gzip.compress(FLORIDA_FIXTURE.encode()))
        assert report.kept_rows == 6
        assert len(records) == 6

    def test_unpeekable_binary_stream(self):
        stream = io.BytesIO(gzip.compress(FLORIDA_FIXTURE.encode()))
        records, _ = parse_florida_lines(stream)
        assert len(records) == 6
        assert not stream.closed

    def test_text_stream(self):
        records, _ = parse_florida_lines(io.StringIO(FLORIDA_FIXTURE))
        assert len(records) == 6

    @pytest.mark.parametrize("name", ["fl.csv", "fl.csv.gz"])
    def test_input_file_closed_after_parse(self, tmp_path, name):
        path = tmp_path / name
        data = FLORIDA_FIXTURE.encode()
        path.write_bytes(gzip.compress(data) if name.endswith(".gz") else data)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            parse_florida_lines(path)
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestParseCdc:
    def test_fixture_accounting(self, tmp_path):
        path = tmp_path / "cdc.csv"
        path.write_text(CDC_FIXTURE)
        records, report = parse_cdc_lines(path)
        assert report.total_rows == 6
        assert report.kept_rows == 5
        assert report.rejected_rows_by_reason == {"not_lab_confirmed": 1}
        assert len(records) == 5

    def test_band_labels_and_state(self, tmp_path):
        path = tmp_path / "cdc.csv"
        path.write_text(CDC_FIXTURE)
        records, _ = parse_cdc_lines(path)
        assert records[0].age_band == "30-39"
        assert records[1].age_band == "80+"
        assert records[1].state == "NJ"
        assert records[3].age_band is None  # unknown label
        assert records[3].state is None  # empty state cell
        assert records[4].gender == "other-unknown"

    def test_alternate_event_date_column(self, tmp_path):
        path = tmp_path / "cdc.csv"
        path.write_text(CDC_FIXTURE)
        default, _ = parse_cdc_lines(path)
        alt, _ = parse_cdc_lines(path, use_alt_event_date=True)
        assert default[0].event_date == dt.date(2020, 4, 10)
        assert alt[0].event_date == dt.date(2020, 4, 8)


def oracle_parse(text, schema, use_alt_event_date=False):
    """The row-at-a-time parser the column parser replaced, in plain
    Python: every cell decoded on its own, one RawLineRecord per kept row,
    per-row report counts, then `normalize_record` per record.

    Returns (raw records, CaseColumns, report, quarantine text).
    """
    date_col = (schema.alt_event_date_column if use_alt_event_date
                else schema.event_date_column)
    confirmed = schema.confirmed_values

    def date(cell):
        for fmt in schema.date_formats:
            try:
                return dt.datetime.strptime(cell.strip(), fmt).date()
            except ValueError:
                pass
        return "bad_date"

    def age(cell):
        if not cell.strip():
            return None
        try:
            years = int(float(cell))
        except (ValueError, OverflowError):
            return "bad_age"
        return years if 0 <= years <= 120 else "bad_age"

    def label(spellings, reason, unknown=None):
        def decode(cell):
            value = spellings.get(cell.strip().lower(), reason)
            return None if value == unknown else value
        return decode

    outcome = label(schema.outcome_spellings, "bad_outcome")
    decoders = [
        (date_col, date),
        (schema.age_column, age),
        (schema.age_band_column,
         label(schema.age_band_spellings, "bad_age", AGE_UNKNOWN)),
        (schema.gender_column, label(schema.gender_spellings, "bad_gender")),
        (schema.hospitalized_column, outcome),
        (schema.died_column, outcome),
        (schema.state_column, lambda cell: cell.strip().upper() or None),
        (schema.confirmation_column,
         lambda cell: CONFIRMED_PCR if cell.strip().lower() in confirmed
         else "not_lab_confirmed"),
    ]
    absent = [None] * 7 + [CONFIRMED_PCR]
    reasons = {"bad_date", "bad_age", "bad_gender", "bad_outcome",
               "not_lab_confirmed"}

    report, quarantine, raws = IngestReport(), io.StringIO(), []
    reader = csv.reader(io.StringIO(text), delimiter=schema.delimiter)
    header = next(reader)
    index = {name: i for i, name in enumerate(header)}
    writer = csv.writer(quarantine, delimiter=schema.delimiter)
    writer.writerow(header + ["rejection_reason"])
    for row in reader:
        if not row:
            continue
        if len(row) < len(header):
            reason = "malformed_row"
        else:
            values = [decode(row[index[col]]) if col is not None else default
                      for (col, decode), default in zip(decoders, absent)]
            reason = next((v for v in values if v in reasons), None)
        if reason is not None:
            report.reject(reason)
            padded = row[:len(header)] + [""] * (len(header) - len(row))
            writer.writerow(padded + [reason])
            continue
        raw = RawLineRecord(*values)
        report.total_rows += 1
        report.kept_rows += 1
        report.hospitalized_tallies[raw.hospitalized_raw] += 1
        report.died_tallies[raw.died_raw] += 1
        raws.append(raw)
    cases = as_columns([normalize_record(r) for r in raws])
    return raws, cases, report, quarantine.getvalue()


MESSY_CDC = (
    "cdc_report_dt,pos_spec_dt,age_group,sex,hosp_yn,death_yn,res_state,"
    "current_status\n"
    "2020-04-10,2020-04-08,30 - 39 Years,Female,No,No,NYC,"
    "Laboratory-confirmed case\n"
    "2020/04/11,,80+ Years,Male,Yes,Yes,ny,Laboratory-confirmed case\n"
    "\n"
    "2020-04-11,2020-04-09,Unknown,F,unknown,nan,,Laboratory-confirmed case\n"
    "bad,2020-04-09,90 - 99 Years,Female,No,No,NY,Laboratory-confirmed case\n"
    "2020-04-11,2020-04-09,90 - 99 Years,Robot,No,No,NY,Laboratory-confirmed case\n"
    "2020-04-12,bad,40 - 49 Years,Robot,Maybe,No,FL,Laboratory-confirmed case\n"
    "2020-04-12,2020-04-11,40 - 49 Years,Male,Maybe,No,FL,Probable Case\n"
    "2020-04-12,2020-04-11,40 - 49 Years,Male,No,No,FL,Probable Case\n"
    '2020-04-13,2020-04-12,"50 - 59 Years","Male, adult",No,No,TX,'
    "Laboratory-confirmed case\n"
    '"2020-04-13",2020-04-12,50 - 59 Years,Other,No,"No",TX,'
    '"Laboratory-confirmed case",extra,"a,b"\n'
    "2020-04-13,2020-04-12,50 - 59 Years\n"
    " 04/14/2020 ,2020-04-13,,,,,  nyc ,Laboratory-confirmed case\n"
)

MESSY_FLORIDA = (
    "ChartDate,Age,Gender,Hospitalized,Died\n"
    "2020-04-01,34,Female,NO,NO\n"
    "2020-04-01,inf,Male,YES,YES\n"
    "2020-04-02,-1,Male,YES,YES\n"
    "2020-04-02, 120 ,f,y,n\n"
    "2020-04-02,121,Male,YES,YES\n"
    "2020-13-01,twelve,Robot,MAYBE,NO\n"
    "2020-04-03,twelve,Robot,MAYBE,NO\n"
    "2020-04-03,80.9,Robot,MAYBE,NO\n"
    "2020-04-03,1e1,Male,MAYBE,NO\n"
    "2020-04-03,,Male,NO,MAYBE\n"
    "\n"
    "2020-04-04\n"
    '"2020-04-04","7","Female, girl",NO,NO\n'
    "2020-04-05,7,,,,extra\n"
)


def _random_line_list(rng, schema, n_rows):
    """Rows drawn cell by cell from good and bad spellings, plus short,
    blank and long rows, as delimited text."""
    pools = {
        "date": ["2020-04-01", "2020-04-02", "2020/04/03", "04/05/2020",
                 " 2020-04-06", "not-a-date", "", "2020-13-01"],
        "age": ["34", "0", "120", "121", "-1", "", " 45 ", "x", "inf", "80.9"],
        "band": ["30 - 39 Years", "80+ Years", "Unknown", "", "90 - 99 Years",
                 "50-59"],
        "gender": ["Female", "male", "F", "", "Other", "Robot", "Male, adult"],
        "outcome": ["Yes", "NO", "unknown", "", "nan", "MAYBE"],
        "state": ["FL", "ny", "NYC", " NY ", "", "TX", "nyc"],
        "status": ["Laboratory-confirmed case", "Laboratory-confirmed case",
                   "Probable Case"],
    }
    kinds = {schema.event_date_column: "date", schema.alt_event_date_column: "date",
             schema.age_column: "age", schema.age_band_column: "band",
             schema.gender_column: "gender", schema.hospitalized_column: "outcome",
             schema.died_column: "outcome", schema.state_column: "state",
             schema.confirmation_column: "status"}
    header = [c for c in kinds if c is not None]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    for _ in range(n_rows):
        row = [str(rng.choice(pools[kinds[c]])) for c in header]
        shape = rng.random()
        if shape < 0.03:
            out.write("\n")
            continue
        if shape < 0.08:
            row = row[:int(rng.integers(1, len(header)))]
        elif shape < 0.12:
            row += ["extra", "x,y"]
        writer.writerow(row)
    return out.getvalue()


class TestColumnParser:
    """`parse_columns` and the record adapters against the row-at-a-time
    oracle: equal columns, report and quarantine text."""

    def check(self, text, schema, stream=None, **kwargs):
        raws, want, want_report, want_quarantine = oracle_parse(
            text, schema, **kwargs)
        report, quarantine = IngestReport(), io.StringIO()
        got = parse_columns(io.StringIO(text) if stream is None else stream,
                            schema, report, quarantine=quarantine, **kwargs)
        for f in fields(CaseColumns):
            a, b = getattr(got, f.name), getattr(want, f.name)
            assert a.dtype == b.dtype, f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        assert report.as_dict() == want_report.as_dict()
        assert report.conserved
        assert quarantine.getvalue() == want_quarantine
        if stream is None:
            records, record_report = parse_florida_lines(
                io.StringIO(text), schema, **kwargs)
            assert records == raws
            assert record_report.as_dict() == want_report.as_dict()
        return report

    @pytest.mark.parametrize("alt", [False, True])
    def test_cdc_fixtures(self, alt):
        for text in (CDC_FIXTURE, MESSY_CDC):
            self.check(text, CDC_SCHEMA, use_alt_event_date=alt)

    def test_florida_fixtures(self):
        for text in (FLORIDA_FIXTURE, MESSY_FLORIDA):
            self.check(text, FLORIDA_SCHEMA)

    def test_every_reason_and_precedence(self):
        report = self.check(MESSY_CDC, CDC_SCHEMA)
        assert set(report.rejected_rows_by_reason) == {
            "bad_date", "bad_age", "bad_gender", "bad_outcome",
            "not_lab_confirmed", "malformed_row"}
        # two bad cells: the first in field order names the reason
        assert report.rejected_rows_by_reason["bad_age"] == 1  # and gender
        assert report.rejected_rows_by_reason["bad_date"] == 1  # and band
        report = self.check(MESSY_FLORIDA, FLORIDA_SCHEMA)
        assert report.rejected_rows_by_reason["bad_date"] == 1  # and 3 more

    def test_states_keep_their_full_codes(self):
        got = parse_columns(io.StringIO(MESSY_CDC), CDC_SCHEMA, IngestReport())
        assert got.state_vocab.tolist() == ["NYC", "NY", "TX"]
        assert (got.state == NO_STATE).sum() == 1

    def test_gzip_through_a_pipe(self):
        text = MESSY_CDC + "".join(MESSY_CDC.splitlines(True)[1:]) * 20
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "wb") as fh:  # fits the pipe buffer
            fh.write(gzip.compress(text.encode()))
        with os.fdopen(read_fd, "rb") as fh:
            self.check(text, CDC_SCHEMA, stream=fh)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 7, 64])
    def test_rows_spanning_chunks(self, monkeypatch, rng, chunk_rows):
        monkeypatch.setattr(ingest, "CHUNK_ROWS", chunk_rows)
        for schema in (CDC_SCHEMA, FLORIDA_SCHEMA):
            text = _random_line_list(rng, schema, 150)
            report = self.check(text, schema)
            assert report.kept_rows and sum(
                report.rejected_rows_by_reason.values())
        for text, schema in ((MESSY_CDC, CDC_SCHEMA),
                             (MESSY_FLORIDA, FLORIDA_SCHEMA)):
            self.check(text, schema)


def _rec(day, state=None):
    return LineRecord(
        event_date=dt.date(2020, 1, 1) + dt.timedelta(days=day),
        age_band="50-59",
        gender="female",
        hospitalized=False,
        died=False,
        state=state,
    )


class TestFilterCohort:
    @given(
        days=st.lists(st.integers(min_value=0, max_value=400), max_size=60),
        start_off=st.integers(min_value=0, max_value=200),
        span=st.integers(min_value=0, max_value=200),
        maturity=st.integers(min_value=0, max_value=90),
        vintage_off=st.integers(min_value=200, max_value=450),
    )
    @settings(max_examples=60)
    def test_matches_bruteforce_predicate(
        self, days, start_off, span, maturity, vintage_off
    ):
        base = dt.date(2020, 1, 1)
        records = [_rec(d) for d in days]
        window = (
            base + dt.timedelta(days=start_off),
            base + dt.timedelta(days=start_off + span),
        )
        vintage = base + dt.timedelta(days=vintage_off)
        kept = filter_cohort(
            records, window=window, maturity_days=maturity, data_vintage=vintage
        )
        expected = [
            r
            for r in records
            if window[0] <= r.event_date <= window[1]
            and (vintage - r.event_date).days >= maturity
        ]
        assert kept == expected

    def test_columnar_mask_matches_loop_oracle(self, rng):
        """Random records with states; the window edges and the maturity
        cutoff fall inside the record span."""
        start = dt.date(2020, 4, 1)
        states = ["FL", "NJ", "NYC", "NY", None]
        for _ in range(20):
            records = make_records(rng, 500, start=start, span_days=40, states=states)
            lo, hi = sorted(int(d) for d in rng.integers(0, 40, size=2))
            window = (start + dt.timedelta(days=lo), start + dt.timedelta(days=hi))
            maturity = int(rng.integers(0, 20))
            vintage = start + dt.timedelta(days=int(rng.integers(10, 60)))
            excluded = [s for s in ("NYC", "FL", "TX") if rng.random() < 0.5]
            mask = cohort_mask(
                as_columns(records), window, maturity, vintage, excluded
            )
            expected = [
                window[0] <= r.event_date <= window[1]
                and (vintage - r.event_date).days >= maturity
                and r.state not in excluded
                for r in records
            ]
            assert mask.tolist() == expected

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            filter_cohort([], window=(dt.date(2020, 2, 1), dt.date(2020, 1, 1)))


class TestDetectReportingArtifacts:
    def _dump_state(self, state, n_dump, n_spread):
        records = [_rec(10, state) for _ in range(n_dump // 2)]
        records += [_rec(11, state) for _ in range(n_dump - n_dump // 2)]
        records += [_rec(20 + i, state) for i in range(n_spread)]
        return records

    def test_flags_concentrated_state_only(self):
        records = self._dump_state("NJ", 80, 20) + self._dump_state("FL", 10, 90)
        flagged = detect_reporting_artifacts(records)
        assert [s for s, _ in flagged] == ["NJ"]
        evidence = flagged[0][1]
        assert evidence["total_cases"] == 100
        assert evidence["top_fraction"] == pytest.approx(0.8)
        assert evidence["top_dates"] == ["2020-01-11", "2020-01-12"]

    def test_threshold_is_inclusive(self):
        records = self._dump_state("CT", 50, 50)
        assert [s for s, _ in detect_reporting_artifacts(records)] == ["CT"]

    def test_order_invariant_under_permutation(self, rng):
        records = self._dump_state("NJ", 60, 20) + self._dump_state("IL", 70, 30)
        shuffled = list(records)
        rng.shuffle(shuffled)
        assert detect_reporting_artifacts(records) == detect_reporting_artifacts(
            shuffled
        )

    def test_stateless_records_ignored(self):
        assert detect_reporting_artifacts([_rec(1), _rec(1)]) == []

    def test_columnar_matches_loop_oracle(self, rng):
        for dump_fraction in (0.1, 0.3, 0.5, 1.0):
            records = make_records(
                rng, 300, span_days=int(rng.integers(1, 30)),
                states=["FL", "NJ", "NYC", "NY", "CT", None],
            )
            expected = oracle_artifacts(records, dump_fraction)
            got = detect_reporting_artifacts(as_columns(records),
                                             dump_fraction)
            assert got == expected
            assert detect_reporting_artifacts(records, dump_fraction) == expected


def oracle_artifacts(records, dump_fraction):
    """Per-state date tallies in plain Python loops."""
    by_state = defaultdict(Counter)
    for r in records:
        if r.state is not None:
            by_state[r.state][r.event_date] += 1
    flagged = []
    for state in sorted(by_state):
        counts = by_state[state]
        total = sum(counts.values())
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:2]
        top_total = sum(c for _, c in top)
        if top_total / total >= dump_fraction:
            flagged.append((state, {
                "top_dates": [d.isoformat() for d, _ in top],
                "top_fraction": top_total / total,
                "total_cases": total,
            }))
    return flagged


TESTING_FIXTURE = """\
date,positive,totalTestResults
2020-04-03,150,900
2020-04-01,100,500
2020-04-02,130,700
2020-04-04,140,1100
2020-04-05,160,1050
"""


class TestLoadTestingSeries:
    def test_cumulative_differencing_and_clamps(self, tmp_path):
        path = tmp_path / "tests.csv"
        path.write_text(TESTING_FIXTURE)
        report = IngestReport()
        out = load_testing_series(path, region="florida", report=report)
        assert [r.date.day for r in out] == [1, 2, 3, 4, 5]
        assert [r.new_positives for r in out] == [100, 30, 20, 0, 0]
        # day 4: positives drop -10 clamped; day 5: tests drop -50 clamped,
        # then positives 20 > tests 0 clamped to 0
        assert [r.new_tests for r in out] == [500, 200, 200, 200, 0]
        assert report.clamped_values == 3

    def test_daily_mode_passthrough(self, tmp_path):
        path = tmp_path / "tests.csv"
        path.write_text("date,positive,totalTestResults\n2020-04-01,10,50\n")
        out = load_testing_series(path, region="x", cumulative=False)
        assert out[0].new_positives == 10
        assert out[0].new_tests == 50

    def test_short_row_is_malformed(self, tmp_path):
        path = tmp_path / "tests.csv"
        path.write_text("date,positive,totalTestResults\n"
                        "2020-04-01,10,50\n"
                        "2020-04-02,12\n"
                        "\n"
                        "2020-04-03,20,80\n")
        report = IngestReport()
        out = load_testing_series(path, region="x", report=report)
        assert [r.date.day for r in out] == [1, 3]
        assert report.rejected_rows_by_reason == {"malformed_row": 1}
        assert report.total_rows == 3 and report.kept_rows == 2
        assert report.clamped_values == 0

    def test_missing_column_is_schema_error(self, tmp_path):
        path = tmp_path / "tests.csv"
        path.write_text("date,positive\n2020-04-01,10\n")
        with pytest.raises(SchemaError):
            load_testing_series(path, region="x")
