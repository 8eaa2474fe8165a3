"""Cohort aggregation against a brute-force nested-loop oracle."""

import datetime as dt
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hfrtrend import LineRecord, StratumKey, build_cohort_table
from hfrtrend.cohort import (
    AGGREGATE,
    ALL_GENDERS,
    SIGNALS,
    CohortTable,
    demographics_text,
    summarize_demographics,
)
from hfrtrend.records import AGE_BANDS, AGE_UNKNOWN, ALL_AGE_BANDS, GENDERS
from hfrtrend.signals import (
    TimeSeries,
    age_distribution_shares,
    gender_fraction_series,
    trailing_average_7d,
)
from hfrtrend.store import PROFILES, CaseColumns, NO_STATE, as_columns, day_index
from tests.conftest import make_records, unpack

START = dt.date(2020, 4, 1)


def oracle_counts(records, start, end, bands, genders):
    """Nested-loop group-by: the independent reference implementation."""
    n_days = (end - start).days + 1
    out = np.zeros((n_days, 4), dtype=np.int64)
    for day in range(n_days):
        date = start + dt.timedelta(days=day)
        for r in records:
            if r.event_date != date or r.age_band not in bands:
                continue
            if r.gender not in genders:
                continue
            out[day, 0] += 1
            out[day, 1] += int(r.hospitalized)
            out[day, 2] += int(r.died)
            out[day, 3] += int(r.hospitalized and r.died)
    return out


def oracle_mask(cases, window, maturity_days, data_vintage, excluded_states):
    """The whole-array cohort mask of the cases the cells expand to: in the
    window, at least `maturity_days` before the vintage, outside the
    excluded states."""
    start, end = window
    last = min(end, data_vintage - dt.timedelta(days=maturity_days))
    fields = unpack(cases)
    day = fields["day"]
    mask = (day >= day_index(start)) & (day <= day_index(last))
    if excluded_states:
        mask &= ~np.isin(fields["state"], cases.state_codes(excluded_states))
    return mask


def oracle_table(cases, start, end, mask=None):
    """The whole-array count of the cases the cells expand to: masked
    per-case copies, one bincount per signal."""
    n_days = (end - start).days + 1
    fields = unpack(cases)
    day = fields["day"] - np.int32(day_index(start))
    keep = (day >= 0) & (day < n_days)
    if mask is not None:
        keep &= mask
    shape = (len(ALL_AGE_BANDS), len(GENDERS), n_days)
    cell = np.ravel_multi_index(
        (fields["band"][keep], fields["gender"][keep], day[keep]), shape
    )
    hosp, died = fields["hospitalized"][keep], fields["died"][keep]
    counts = [np.bincount(cell, weights, np.prod(shape))
              for weights in (None, hosp, died, hosp & died)]
    array = np.stack(counts, axis=-1).astype(np.int64).reshape(*shape, len(SIGNALS))
    return CohortTable(start=start, end=end, array=array)


def random_columns(rng, n, vocab=("FL", "NJ", "NY")):
    """n distinct random cells, in no order, of 1 to 4 cases each, dated
    from 10 days before START to 70 after it in a shuffled date vocabulary,
    every profile (band, gender, hospitalized and died) equally likely, a
    quarter of them without a state."""
    first = day_index(START)
    n_states = len(vocab) + 1
    date, rest = np.divmod(rng.choice(80 * PROFILES * n_states, n, replace=False),
                           PROFILES * n_states)
    profile, state = np.divmod(rest, n_states)
    return CaseColumns(
        profile=profile.astype(np.uint8),
        date=date.astype(np.uint16),
        state=np.where(state < len(vocab), state, NO_STATE).astype(np.uint8),
        count=rng.integers(1, 5, n).astype(np.uint32),
        date_vocab=rng.permutation(np.arange(first - 10, first + 70, dtype=np.int32)),
        state_vocab=np.array(vocab),
    )


record_strategy = st.builds(
    LineRecord,
    event_date=st.integers(min_value=-5, max_value=45).map(
        lambda d: START + dt.timedelta(days=d)
    ),
    age_band=st.sampled_from(ALL_AGE_BANDS),
    gender=st.sampled_from(GENDERS),
    hospitalized=st.booleans(),
    died=st.booleans(),
    state=st.none(),
)


class TestBuildCohortTable:
    @given(st.lists(record_strategy, max_size=80))
    @settings(max_examples=60)
    def test_matches_oracle_all_strata(self, records):
        end = START + dt.timedelta(days=40)
        table = build_cohort_table(records, START, end)
        strata = [(AGGREGATE, ALL_GENDERS), ("50-59", "female"), ("80+", ALL_GENDERS)]
        for band, gender in strata:
            bands = ALL_AGE_BANDS if band == AGGREGATE else (band,)
            genders = GENDERS if gender == ALL_GENDERS else (gender,)
            expected = oracle_counts(records, START, end, bands, genders)
            got = table.counts(StratumKey(band, gender))
            assert np.array_equal(got, expected)

    @given(st.lists(record_strategy, max_size=80))
    @settings(max_examples=40)
    def test_cells_sum_to_aggregate(self, records):
        end = START + dt.timedelta(days=40)
        table = build_cohort_table(records, START, end)
        total = np.zeros((table.n_days, 4), dtype=np.int64)
        for arr in table.cells.values():
            total += arr
        assert np.array_equal(total, table.counts())

    def test_out_of_range_records_dropped(self):
        records = [
            LineRecord(START - dt.timedelta(days=1), "0-9", "male", False, False),
            LineRecord(START, "0-9", "male", False, False),
        ]
        table = build_cohort_table(records, START, START + dt.timedelta(days=5))
        assert table.counts()[:, 0].sum() == 1

    def test_named_bands_exclude_unknown_age(self):
        records = [LineRecord(START, AGE_UNKNOWN, "male", True, True)]
        table = build_cohort_table(records, START, START)
        assert table.counts(StratumKey()).sum() > 0
        for band in AGE_BANDS:
            assert table.counts(StratumKey(band, ALL_GENDERS)).sum() == 0

    def test_invalid_stratum_rejected(self):
        with pytest.raises(ValueError):
            StratumKey("50s", "all")
        with pytest.raises(ValueError):
            StratumKey("50-59", "nonbinary")

    def test_signal_column_order(self):
        records = [LineRecord(START, "50-59", "male", True, False)]
        table = build_cohort_table(records, START, START)
        key = StratumKey()
        assert table.signal(key, "cases")[0] == 1
        assert table.signal(key, "hosp")[0] == 1
        assert table.signal(key, "deaths")[0] == 0
        assert table.signal(key, "hosp_and_died")[0] == 0

    def test_long_csv_round_trip(self, tmp_path):
        records = [
            LineRecord(START, "50-59", "male", True, True),
            LineRecord(START + dt.timedelta(days=1), "0-9", "female", False, False),
        ]
        table = build_cohort_table(records, START, START + dt.timedelta(days=1))
        path = tmp_path / "long.csv"
        table.write_long_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "date,age_band,gender," + ",".join(SIGNALS)
        assert len(lines) == 1 + 2 * 2  # two cells, two days each


class TestColumnarPath:
    """The analyze path (store columns -> sliced count -> summary) against
    plain loops over the same LineRecords."""

    def _cases(self, rng, states=("FL", "NJ", "NYC", "NY", None)):
        records = make_records(rng, 2000, start=START, span_days=50, states=states)
        return records, as_columns(records)

    def test_masked_table_matches_oracle(self, rng):
        window = (START + dt.timedelta(days=5), START + dt.timedelta(days=44))
        vintage = START + dt.timedelta(days=60)  # maturity cutoff at day 40
        for excluded in ([], ["NYC"], ["FL", "NJ"]):
            records, cases = self._cases(rng)
            table = build_cohort_table(
                cases, *window, last=vintage - dt.timedelta(days=20),
                excluded_states=excluded,
            )
            kept = [
                r for r in records
                if window[0] <= r.event_date <= vintage - dt.timedelta(days=20)
                and r.state not in excluded
            ]
            for band, gender in [(AGGREGATE, ALL_GENDERS), ("50-59", "female"),
                                 (AGE_UNKNOWN, "male"), (AGGREGATE, "other-unknown")]:
                bands = ALL_AGE_BANDS if band == AGGREGATE else (band,)
                genders = GENDERS if gender == ALL_GENDERS else (gender,)
                expected = oracle_counts(kept, window[0], window[1], bands, genders)
                assert np.array_equal(table.counts(StratumKey(band, gender)), expected)

    def test_demographics_match_loop_oracle(self, rng):
        records, cases = self._cases(rng)
        demo = summarize_demographics(
            build_cohort_table(cases, START, START + dt.timedelta(days=49)))
        assert demo["total_cases"] == len(records)
        assert demo["age_counts"] == {
            b: sum(r.age_band == b for r in records) for b in ALL_AGE_BANDS
        }
        assert demo["gender_counts"] == {
            g: sum(r.gender == g for r in records) for g in GENDERS
        }
        assert demo["hospitalized_yes"] == sum(r.hospitalized for r in records)
        assert demo["died_yes"] == sum(r.died for r in records)

    def test_cells_are_the_nonempty_base_cells(self, rng):
        records, cases = self._cases(rng)
        table = build_cohort_table(cases, START, START + dt.timedelta(days=49))
        present = {(r.age_band, r.gender) for r in records}
        assert set(table.cells) == present
        for (band, gender), arr in table.cells.items():
            expected = oracle_counts(
                records, table.start, table.end, (band,), (gender,)
            )
            assert np.array_equal(arr, expected)


class TestSlicedCount:
    """The weighted count over the cells against the whole-array mask and
    count of the cases they expand to, bitwise, from no cell to 16,385."""

    LENGTHS = (0, 1, 16383, 16384, 16385)
    END = START + dt.timedelta(days=49)  # events run 10 days past it

    @pytest.mark.parametrize("n", LENGTHS)
    @pytest.mark.parametrize("last_day, excluded", [
        (None, []),  # the gate's three-argument call
        (30, []),  # maturity cut inside the window
        (-3, []),  # last before start: nothing kept
        (80, ["NJ"]),  # last after end
        (40, ["FL", "NY"]),
        (40, ["TX", "ZZ"]),  # states absent from the vocabulary
        (49, ["FL", "NJ", "NY"]),  # only stateless cases left
    ])
    def test_matches_whole_array_oracle(self, n, last_day, excluded):
        rng = np.random.default_rng(n)
        cases = random_columns(rng, n)
        if last_day is None:
            got = build_cohort_table(cases, START, self.END)
            expected = oracle_table(cases, START, self.END)
        else:
            # the oracle's maturity cut: vintage less 30 days is `last`
            last = START + dt.timedelta(days=last_day)
            got = build_cohort_table(cases, START, self.END, last=last,
                                     excluded_states=excluded)
            mask = oracle_mask(cases, (START, self.END), 30,
                               last + dt.timedelta(days=30), excluded)
            expected = oracle_table(cases, START, self.END, mask)
        assert got.array.dtype == np.int64
        assert got.array.tobytes() == expected.array.tobytes()

    def test_random_columns_reach_every_case(self):
        cases = random_columns(np.random.default_rng(1), 16385)
        fields = unpack(cases)
        day = fields["day"] - day_index(START)
        assert (day < 0).any() and (day > 49).any()  # outside on both sides
        assert (fields["died"] & ~fields["hospitalized"]).any()
        assert set(np.unique(cases.state)) == {NO_STATE, 0, 1, 2}
        assert set(np.unique(cases.profile)) == set(range(PROFILES))
        assert set(np.unique(cases.count)) == {1, 2, 3, 4}
        # dates out of order in the vocabulary, and every date a cell's
        assert (np.diff(cases.date_vocab) < 0).any()
        assert np.ptp(cases.date) == 79

    def test_peak_memory_does_not_grow_with_cases(self):
        """The count's temporaries follow the cells: a thousand times the
        cases in the same 30,000 cells peak no higher, under 2 MB."""
        import tracemalloc

        cells = random_columns(np.random.default_rng(2), 30_000)
        last = START + dt.timedelta(days=40)
        peaks = []
        for cases_a_count in (1, 1000):
            cases = replace(cells, count=cells.count * np.uint32(cases_a_count))
            tracemalloc.start()
            try:
                build_cohort_table(cases, START, self.END, last=last,
                                   excluded_states=["NJ"])
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] < 2 * 2**20, peaks


HAND_COUNTED = [
    LineRecord(START, "50-59", "female", True, True),
    LineRecord(START, "50-59", "male", False, False),
    LineRecord(START, AGE_UNKNOWN, "other-unknown", True, False),
]

HAND_COUNTED_TEXT = """\
Lab Confirmed COVID-19 Cases  3
Age
  0-9              0 (0.0%)
  10-19            0 (0.0%)
  20-29            0 (0.0%)
  30-39            0 (0.0%)
  40-49            0 (0.0%)
  50-59            2 (66.7%)
  60-69            0 (0.0%)
  70-79            0 (0.0%)
  80+              0 (0.0%)
  unknown          1 (33.3%)
Gender
  female                 1 (33.3%)
  male                   1 (33.3%)
  other-unknown          1 (33.3%)
Hospitalized
  yes         2 (66.7%)
  no          1 (33.3%)
Died
  yes         1 (33.3%)
  no          2 (66.7%)"""


class TestDemographics:
    def test_hand_counted_summary(self):
        demo = summarize_demographics(build_cohort_table(HAND_COUNTED, START, START))
        assert demo["total_cases"] == 3
        assert demo["age_counts"]["50-59"] == 2
        assert demo["age_counts"][AGE_UNKNOWN] == 1
        assert demo["gender_counts"] == {"female": 1, "male": 1, "other-unknown": 1}
        assert demo["hospitalized_yes"] == 2
        assert demo["hospitalized_no"] == 1
        assert demo["died_yes"] == 1
        assert demo["died_no"] == 2

    def test_hand_counted_text(self):
        """The layout of demographics.txt; each block's percents sum to 100."""
        demo = summarize_demographics(build_cohort_table(HAND_COUNTED, START, START))
        assert demographics_text(demo) == HAND_COUNTED_TEXT

    def test_empty_cohort_text(self):
        demo = summarize_demographics(build_cohort_table([], START, START))
        text = demographics_text(demo)
        lines = text.splitlines()
        assert lines[0] == "Lab Confirmed COVID-19 Cases  0"
        rows = [line for line in lines if line.startswith("  ")]
        assert len(rows) == len(ALL_AGE_BANDS) + len(GENDERS) + 4
        assert all(row.endswith(" 0 (0.0%)") for row in rows)

    def test_text_rendering_contains_counts(self):
        records = [LineRecord(START, "80+", "male", True, True)]
        text = demographics_text(summarize_demographics(
            build_cohort_table(records, START, START)))
        assert "Lab Confirmed COVID-19 Cases  1" in text
        assert "80+" in text


def _burst_table(rng, n_days=30):
    records = []
    for day in range(n_days):
        for band in ("20-29", "50-59"):
            for gender in ("female", "male"):
                for _ in range(int(rng.integers(3, 12))):
                    records.append(
                        LineRecord(
                            START + dt.timedelta(days=day),
                            band,
                            gender,
                            bool(rng.random() < 0.5),
                            False,
                        )
                    )
    return build_cohort_table(records, START, START + dt.timedelta(days=n_days - 1))


class TestDerivedSeries:
    def test_age_shares_sum_to_one(self, rng):
        table = _burst_table(rng)
        shares = age_distribution_shares(table, "cases")
        total = np.sum([shares[b].values for b in AGE_BANDS], axis=0)
        gaps = shares["0-9"].gaps
        assert np.allclose(total[~gaps], 1.0)
        assert gaps[:6].all()  # no complete trailing window yet

    def test_age_shares_match_direct_ratio(self, rng):
        table = _burst_table(rng)
        shares = age_distribution_shares(table, "cases")
        smoothed = {
            b: trailing_average_7d(
                TimeSeries(
                    table.start,
                    table.signal(StratumKey(b, ALL_GENDERS), "cases").astype(float),
                )
            ).values
            for b in AGE_BANDS
        }
        denom = np.sum([smoothed[b] for b in AGE_BANDS], axis=0)
        ok = ~shares["50-59"].gaps
        assert np.allclose(
            shares["50-59"].values[ok], smoothed["50-59"][ok] / denom[ok]
        )

    def test_gender_fraction_matches_direct_ratio(self, rng):
        table = _burst_table(rng)
        fractions = gender_fraction_series(table, "cases")
        female = trailing_average_7d(
            TimeSeries(
                table.start,
                table.signal(StratumKey("50-59", "female"), "cases").astype(float),
            )
        ).values
        male = trailing_average_7d(
            TimeSeries(
                table.start,
                table.signal(StratumKey("50-59", "male"), "cases").astype(float),
            )
        ).values
        ok = ~fractions["50-59"].gaps
        assert np.allclose(
            fractions["50-59"].values[ok], female[ok] / (female[ok] + male[ok])
        )
        assert np.all(fractions["50-59"].values[ok] >= 0)
        assert np.all(fractions["50-59"].values[ok] <= 1)

    def test_gender_fraction_gaps_low_support(self):
        # one lone male case: denominator below the support floor everywhere
        records = [LineRecord(START, "50-59", "male", False, False)]
        table = build_cohort_table(records, START, START + dt.timedelta(days=20))
        fractions = gender_fraction_series(table, "cases")
        assert fractions["50-59"].gaps.all()
