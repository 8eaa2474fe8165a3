"""Record normalization: outcome recoding, age binning, ingest accounting."""

import datetime as dt

import pytest
from hypothesis import given, strategies as st

from hfrtrend.records import (
    AGE_BANDS,
    AGE_UNKNOWN,
    OUTCOME_CATEGORIES,
    IngestReport,
    RawLineRecord,
    bin_age,
    normalize_record,
    recode_outcome,
)


class TestRecodeOutcome:
    def test_only_yes_is_true(self):
        assert recode_outcome("yes") is True
        for label in ("no", "unknown", "missing"):
            assert recode_outcome(label) is False

    def test_rejects_unlisted_category(self):
        with pytest.raises(ValueError):
            recode_outcome("maybe")
        with pytest.raises(ValueError):
            recode_outcome("YES")

    @given(st.sampled_from(OUTCOME_CATEGORIES))
    def test_total_on_categories(self, label):
        assert recode_outcome(label) in (True, False)


class TestBinAge:
    @given(st.integers(min_value=0, max_value=200))
    def test_matches_arithmetic_definition(self, age):
        band = bin_age(age)
        if age >= 80:
            assert band == "80+"
        else:
            lo, hi = band.split("-")
            assert int(lo) <= age <= int(hi)

    def test_band_edges(self):
        assert bin_age(0) == "0-9"
        assert bin_age(9) == "0-9"
        assert bin_age(10) == "10-19"
        assert bin_age(79) == "70-79"
        assert bin_age(80) == "80+"
        assert bin_age(107) == "80+"

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            bin_age(-1)

    @given(st.integers(min_value=0, max_value=120))
    def test_every_age_maps_to_a_known_band(self, age):
        assert bin_age(age) in AGE_BANDS


def _raw(age_years=None, age_band=None, hosp="yes", died="no"):
    return RawLineRecord(
        event_date=dt.date(2020, 5, 1),
        age_years=age_years,
        age_band=age_band,
        gender="female",
        hospitalized_raw=hosp,
        died_raw=died,
        state="FL",
    )


class TestNormalizeRecord:
    def test_prefers_explicit_band_over_years(self):
        rec = normalize_record(_raw(age_years=25, age_band="50-59"))
        assert rec.age_band == "50-59"

    def test_bins_years_when_no_band(self):
        assert normalize_record(_raw(age_years=25)).age_band == "20-29"

    def test_unknown_when_neither_given(self):
        assert normalize_record(_raw()).age_band == AGE_UNKNOWN

    def test_recodes_outcomes(self):
        rec = normalize_record(_raw(hosp="unknown", died="yes"))
        assert rec.hospitalized is False
        assert rec.died is True


def _keep(report, raw):
    """Count one kept row the way ingest does, from outcome codes."""
    report.tally_kept([OUTCOME_CATEGORIES.index(raw.hospitalized_raw)],
                      [OUTCOME_CATEGORIES.index(raw.died_raw)])


class TestIngestReport:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from(["bad_date", "bad_age"])),
            max_size=50,
        )
    )
    def test_every_row_kept_or_rejected(self, events):
        report = IngestReport()
        for keep, reason in events:
            if keep:
                _keep(report, _raw())
            else:
                report.reject(reason)
        assert report.total_rows == report.kept_rows + sum(
            report.rejected_rows_by_reason.values())
        assert report.total_rows == len(events)
        assert report.kept_rows == sum(1 for keep, _ in events if keep)

    def test_tallies_raw_outcome_labels(self):
        report = IngestReport()
        _keep(report, _raw(hosp="yes", died="no"))
        _keep(report, _raw(hosp="unknown", died="no"))
        assert report.hospitalized_tallies == {"yes": 1, "unknown": 1}
        assert report.died_tallies == {"no": 2}

    def test_as_dict_round_trips_counts(self):
        report = IngestReport()
        _keep(report, _raw())
        report.reject("bad_date")
        d = report.as_dict()
        assert d["total_rows"] == 2
        assert d["rejected_rows_by_reason"] == {"bad_date": 1}
