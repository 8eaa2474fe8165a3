"""Smoothing and rate series against naive loop oracles."""

import dataclasses
import datetime as dt
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as npst

from hfrtrend import LineRecord, StratumKey, build_cohort_table
from hfrtrend.cohort import ALL_GENDERS, SIGNALS, CohortTable
from hfrtrend.records import AGE_BANDS, ALL_AGE_BANDS, GENDERS
from hfrtrend.signals import (
    RATES,
    RateSeries,
    TimeSeries,
    age_distribution_shares,
    gender_fraction_series,
    hfr_series,
    positive_test_rate,
    rate_series,
    trailing_average_7d,
    write_band_csv,
)

START = dt.date(2020, 4, 1)


def oracle_trailing_average(values, gaps, window=7):
    """Plain double loop over windows; the reference implementation."""
    n = len(values)
    out = np.zeros(n)
    out_gaps = np.ones(n, dtype=bool)
    for t in range(window - 1, n):
        if any(gaps[t - window + 1 : t + 1]):
            continue
        out[t] = sum(values[t - window + 1 : t + 1]) / window
        out_gaps[t] = False
    return out, out_gaps


class TestTrailingAverage:
    @given(
        npst.arrays(
            np.int64,
            st.integers(min_value=0, max_value=120),
            elements=st.integers(min_value=0, max_value=10_000),
        )
    )
    @settings(max_examples=120)
    def test_matches_oracle_exactly(self, values):
        ts = trailing_average_7d(TimeSeries(START, values.astype(float)))
        exp_values, exp_gaps = oracle_trailing_average(
            values.astype(float), np.zeros(len(values), dtype=bool)
        )
        assert np.array_equal(ts.gaps, exp_gaps)
        # integer sums divided by 7: both sides compute sum/7, bitwise equal
        assert np.array_equal(ts.values, exp_values)

    @given(
        npst.arrays(
            np.float64,
            st.integers(min_value=0, max_value=60),
            elements=st.floats(min_value=-1e6, max_value=1e6),
        ),
        st.sets(st.integers(min_value=0, max_value=59)),
    )
    @settings(max_examples=60)
    def test_gap_propagation_matches_oracle(self, values, gap_idx):
        gaps = np.zeros(len(values), dtype=bool)
        for i in gap_idx:
            if i < len(values):
                gaps[i] = True
        ts = trailing_average_7d(TimeSeries(START, values, gaps))
        _, exp_gaps = oracle_trailing_average(values, gaps)
        assert np.array_equal(ts.gaps, exp_gaps)

    @given(
        npst.arrays(
            np.float64,
            st.integers(min_value=7, max_value=40),
            elements=st.floats(min_value=-1e3, max_value=1e3),
        ),
        st.floats(min_value=-100, max_value=100),
        st.floats(min_value=0.1, max_value=10),
    )
    @settings(max_examples=40)
    def test_affine_equivariance(self, values, shift, scale):
        base = trailing_average_7d(TimeSeries(START, values))
        moved = trailing_average_7d(TimeSeries(START, scale * values + shift))
        ok = ~base.gaps
        assert np.allclose(moved.values[ok], scale * base.values[ok] + shift)

    def test_constant_series_fixed_point(self):
        ts = trailing_average_7d(TimeSeries(START, np.full(20, 3.5)))
        assert np.allclose(ts.values[6:], 3.5)
        assert not ts.gaps[6:].any()

    def test_short_series_all_gaps(self):
        ts = trailing_average_7d(TimeSeries(START, np.arange(5.0)))
        assert ts.gaps.all()


def _table(rows):
    """rows: list of (day, band, gender, hosp, died) tuples."""
    records = [
        LineRecord(START + dt.timedelta(days=d), b, g, h, x)
        for d, b, g, h, x in rows
    ]
    end = START + dt.timedelta(days=max(d for d, *_ in rows))
    return build_cohort_table(records, START, end)


def _uniform_rows(n_days, per_day, hosp_every=2, die_every=4):
    rows = []
    for d in range(n_days):
        for i in range(per_day):
            hosp = i % hosp_every == 0
            died = hosp and i % die_every == 0
            rows.append((d, "50-59", "female", hosp, died))
    return rows


class TestRateSeries:
    def test_cfr_is_ratio_of_smoothed_counts(self):
        table = _table(_uniform_rows(20, 8))
        series = rate_series(table, "cfr", StratumKey())
        counts = table.counts(StratumKey())
        num, num_gaps = oracle_trailing_average(
            counts[:, 2].astype(float), np.zeros(20, dtype=bool)
        )
        den, _ = oracle_trailing_average(
            counts[:, 0].astype(float), np.zeros(20, dtype=bool)
        )
        ok = ~series.series.gaps
        assert np.allclose(series.series.values[ok], num[ok] / den[ok])
        assert np.array_equal(series.series.gaps[:6], np.ones(6, dtype=bool))

    def test_constant_process_gives_constant_rate(self):
        table = _table(_uniform_rows(30, 8))
        expected = {"cfr": 2 / 8, "hfr": 0.5}
        assert list(RATES) == list(expected)
        for name, rate in expected.items():
            series = rate_series(table, name, StratumKey())
            ok = ~series.series.gaps
            assert ok.any() and np.allclose(series.series.values[ok], rate)

    def test_rates_bounded_in_unit_interval(self, rng):
        rows = []
        for d in range(40):
            for _ in range(int(rng.integers(0, 15))):
                hosp = bool(rng.random() < 0.5)
                died = hosp and bool(rng.random() < 0.5)
                rows.append((d, "50-59", "female", hosp, died))
        rows.append((0, "50-59", "female", False, False))
        table = _table(rows)
        for name in RATES:
            series = rate_series(table, name, StratumKey())
            ok = ~series.series.gaps
            assert np.all(series.series.values[ok] >= 0)
            assert np.all(series.series.values[ok] <= 1)

    def test_hfr_numerator_is_joint_outcome(self):
        # deaths outside hospital must not enter the HFR numerator
        rows = [(d, "50-59", "female", False, True) for d in range(20)]
        rows += [(d, "50-59", "female", True, False) for d in range(20)]
        table = _table(rows)
        series = hfr_series(dataclasses.replace(table, min_deaths=0))
        ok = ~series.series.gaps
        assert np.allclose(series.series.values[ok], 0.0)

    def test_hfr_min_deaths_floor_marks_gaps(self):
        # one hospitalized death per week: trailing 7-day totals hover at 1
        rows = []
        for d in range(28):
            died = d % 7 == 0
            rows.append((d, "50-59", "female", True, died))
            rows.append((d, "50-59", "female", True, False))
        table = _table(rows)
        strict = hfr_series(dataclasses.replace(table, min_deaths=2))
        loose = hfr_series(dataclasses.replace(table, min_deaths=1))
        assert strict.series.gaps[6:].all()
        assert not loose.series.gaps[6:].all()

    def test_zero_denominator_is_gap_not_zero(self):
        rows = [(d, "50-59", "female", True, True) for d in range(10)]
        table = _table(rows)
        for name in RATES:
            assert rate_series(table, name, StratumKey("0-9", "all")).series.gaps.all()

    def test_long_csv_gap_rows_have_empty_value(self, tmp_path):
        table = _table(_uniform_rows(10, 8))
        series = rate_series(table, "cfr", StratumKey())
        path = tmp_path / "cfr.csv"
        series.write_long_csv(path, stratum="aggregate")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 11
        first_row = lines[1].split(",")
        assert first_row[2] == ""  # gap day: empty value cell
        assert first_row[5] == "1"


class TestPositiveTestRate:
    def test_matches_hand_ratio(self):
        series = positive_test_rate(START, 10 + np.arange(14), np.full(14, 100))
        ok = ~series.series.gaps
        expected = np.array([(10 + d - 3) / 100 for d in range(14)])
        # trailing mean of an arithmetic ramp lags the ramp by 3 days
        assert np.allclose(series.series.values[ok], expected[ok])

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            positive_test_rate(START, [], [])


class TestTimeSeries:
    def test_non_finite_outside_gaps_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(START, np.array([1.0, np.nan]))

    def test_non_finite_inside_gaps_allowed(self):
        ts = TimeSeries(START, np.array([1.0, np.nan]), np.array([False, True]))
        assert len(ts) == 2

    def test_day_index(self):
        ts = TimeSeries(START, np.zeros(3))
        assert ts.day_index(START + dt.timedelta(days=2)) == 2


# The per-series implementations the vectorized signals replaced: each
# count is smoothed alone by the loop oracle, then divided.


def smoothed(counts):
    values, gaps = oracle_trailing_average(
        np.asarray(counts, dtype=float), np.zeros(len(counts), dtype=bool)
    )
    return TimeSeries(START, values, gaps)


def oracle_rate(numerator, denominator, extra_gaps=None):
    """(values, gaps, numerator support, denominator support)."""
    num, den = smoothed(numerator), smoothed(denominator)
    gaps = num.gaps | den.gaps | (den.values <= 0)
    if extra_gaps is not None:
        gaps = gaps | extra_gaps
    safe = np.where(den.values > 0, den.values, 1.0)
    return np.where(gaps, 0.0, num.values / safe), gaps, num.values, den.values


def oracle_cfr(table, stratum, min_deaths):
    """The CFR floors no day, whatever the table's `min_deaths`."""
    counts = table.counts(stratum)
    return oracle_rate(counts[:, 2], counts[:, 0])


def oracle_hfr(table, stratum, min_deaths):
    counts = table.counts(stratum)
    n = len(counts)
    window_deaths = np.array(
        [counts[t - 6 : t + 1, 3].sum() if t >= 6 else 0 for t in range(n)]
    )
    return oracle_rate(counts[:, 3], counts[:, 1], window_deaths < min_deaths)


RATE_ORACLES = {"cfr": oracle_cfr, "hfr": oracle_hfr}


def oracle_shares(table, signal):
    smooth = {b: smoothed(table.signal(StratumKey(b, ALL_GENDERS), signal))
              for b in AGE_BANDS}
    denom = np.sum([smooth[b].values for b in AGE_BANDS], axis=0)
    gaps = smooth[AGE_BANDS[0]].gaps | (denom <= 0)
    safe = np.where(denom > 0, denom, 1.0)
    return {b: (smooth[b].values / safe, gaps) for b in AGE_BANDS}


def oracle_fractions(table, signal):
    out = {}
    for band in AGE_BANDS:
        female = smoothed(table.signal(StratumKey(band, "female"), signal))
        male = smoothed(table.signal(StratumKey(band, "male"), signal))
        denom = female.values + male.values
        gaps = female.gaps | male.gaps | (denom < 5.0)
        safe = np.where(denom > 0, denom, 1.0)
        out[band] = (female.values / safe, gaps)
    return out


def random_table(seed):
    """Sparse random counts: cells with no cases, cells whose smoothed
    support is below 5, and a run of at least 7 days with no cases, so
    some denominators are zero. Some tables are shorter than a window."""
    rng = np.random.default_rng(seed)
    n_days = int(rng.integers(1, 60))
    shape = (len(ALL_AGE_BANDS), len(GENDERS), n_days, len(SIGNALS))
    lam = rng.choice([0.0, 0.2, 1.0, 6.0], size=shape[:2] + (1, 1))
    array = rng.poisson(lam, size=shape)
    quiet = int(rng.integers(0, n_days))
    array[:, :, quiet : quiet + 8] = 0
    end = START + dt.timedelta(days=n_days - 1)
    return CohortTable(START, end, array.astype(np.int64))


def assert_same_on_defined_days(series, values, gaps):
    assert series.gaps.tobytes() == gaps.tobytes()
    assert series.values[~gaps].tobytes() == values[~gaps].tobytes()
    assert not series.values[gaps].any()  # every gap day holds 0


SEEDS = range(25)
STRATA = [StratumKey()] + [StratumKey(b, g) for b in AGE_BANDS
                           for g in (ALL_GENDERS, "female")]


class TestAgainstPerSeriesOracles:
    def test_random_tables_have_zero_and_low_support_days(self):
        """Some share has a zero denominator after the first window, and
        some female fraction is gap-marked for support below 5 while its
        denominator is positive."""
        zero_den = low_support = 0
        for seed in SEEDS:
            table = random_table(seed)
            _, gaps = oracle_shares(table, "cases")[AGE_BANDS[0]]
            zero_den += bool(gaps[6:].any())
            low_support += any((values[gaps] > 0).any() for values, gaps
                               in oracle_fractions(table, "cases").values())
        assert zero_den and low_support

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cfr_and_hfr(self, seed):
        assert list(RATES) == list(RATE_ORACLES)
        table = random_table(seed)
        for stratum, k, (name, oracle) in itertools.product(
                STRATA, (0, 2, 5), RATE_ORACLES.items()):
            series = rate_series(dataclasses.replace(table, min_deaths=k), name, stratum)
            values, gaps, num, den = oracle(table, stratum, k)
            assert series.kind == name
            assert_same_on_defined_days(series.series, values, gaps)
            assert series.numerator_support.tobytes() == num.tobytes()
            assert series.denominator_support.tobytes() == den.tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shares_and_fractions(self, seed):
        table = random_table(seed)
        for signal in ("cases", "hosp", "deaths"):
            for compute, oracle in ((age_distribution_shares, oracle_shares),
                                    (gender_fraction_series, oracle_fractions)):
                got, expected = compute(table, signal), oracle(table, signal)
                assert list(got) == list(AGE_BANDS)
                for band, (values, gaps) in expected.items():
                    assert_same_on_defined_days(got[band], values, gaps)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_positive_test_rate(self, seed):
        rng = np.random.default_rng(seed)
        n_days = int(rng.integers(1, 60))
        tests = rng.poisson(rng.choice([0.5, 50.0]), n_days)
        tests[int(rng.integers(0, n_days)):][:8] = 0
        positives = rng.binomial(tests, 0.2)
        series = positive_test_rate(START, positives, tests)
        values, gaps, num, den = oracle_rate(positives, tests)
        assert_same_on_defined_days(series.series, values, gaps)
        assert series.numerator_support.tobytes() == num.tobytes()
        assert series.denominator_support.tobytes() == den.tobytes()


class TestWriteBandCsv:
    def test_gap_cells_are_empty(self, tmp_path):
        series = {
            "a": TimeSeries(START, [0.25, 0.0], [False, True]),
            "b": TimeSeries(START, [1 / 3, 0.5], [False, False]),
        }
        path = tmp_path / "bands.csv"
        write_band_csv(path, series)
        assert path.read_text().splitlines() == [
            "date,a,b",
            "2020-04-01,0.25,0.3333333333",
            "2020-04-02,,0.5",
        ]
