"""Synthetic data generator: determinism, calibration, scenario shapes, and
the columnar generator and writers against the per-case oracle."""

import csv
import datetime as dt

import numpy as np
import pytest

from hfrtrend import normalize_record
from hfrtrend.records import RawLineRecord
from hfrtrend.synth import (
    FEMALE_FRACTION,
    SynthConfig,
    generate_cases,
    generate_line_records,
    simpson_paradox_holds,
    simpson_scenario,
    step_down_scenario,
    write_cases_csv,
    write_florida_csv,
)

START = dt.date(2020, 4, 1)
END = dt.date(2020, 5, 31)


def _flat_config(seed=0, hfr=0.3, p_hosp=0.25, cases=400.0, end=END, **kwargs):
    n = (end - START).days + 1
    return SynthConfig(
        start=START,
        end=end,
        case_intensity={"50-59": np.full(n, cases)},
        p_hosp={"50-59": np.full(n, p_hosp)},
        hfr={"50-59": np.full(n, hfr)},
        seed=seed,
        **kwargs,
    )


class TestGenerate:
    def test_deterministic_per_seed(self):
        a, _ = generate_line_records(_flat_config(seed=7))
        b, _ = generate_line_records(_flat_config(seed=7))
        c, _ = generate_line_records(_flat_config(seed=8))
        assert a == b
        assert a != c

    def test_empirical_rates_within_3_se(self):
        config = _flat_config(seed=3)
        records, _ = generate_line_records(config)
        recs = [normalize_record(r) for r in records]
        n = len(recs)
        hosp = [r for r in recs if r.hospitalized]
        died_in_hosp = sum(r.died for r in hosp)

        p = len(hosp) / n
        se = (0.25 * 0.75 / n) ** 0.5
        assert abs(p - 0.25) < 3 * se

        hfr = died_in_hosp / len(hosp)
        se = (0.3 * 0.7 / len(hosp)) ** 0.5
        assert abs(hfr - 0.3) < 3 * se

        females = sum(r.gender == "female" for r in recs)
        se = (0.25 / n) ** 0.5
        assert abs(females / n - 0.5) < 3 * se

    def test_death_implies_hospitalization(self):
        records, _ = generate_line_records(_flat_config(seed=1))
        for r in records:
            if r.died_raw == "yes":
                assert r.hospitalized_raw == "yes"

    def test_missingness_only_relabels_no(self):
        config = _flat_config(seed=2, missingness_rate=0.5)
        records, _ = generate_line_records(config)
        labels = {r.hospitalized_raw for r in records} | {r.died_raw for r in records}
        assert "unknown" in labels or "missing" in labels
        # relabeled "no" recodes back to False, so booleans are unchanged
        # versus the clean run with identical draws being impossible to
        # guarantee; instead check the recoded empirical HFR is unbiased
        recs = [normalize_record(r) for r in records]
        hosp = [r for r in recs if r.hospitalized]
        hfr = sum(r.died for r in hosp) / len(hosp)
        se = (0.3 * 0.7 / len(hosp)) ** 0.5
        assert abs(hfr - 0.3) < 4 * se

        # A band-day draws its cases before its relabel block, so on one day
        # a clean run of the same seed labels the same cases.
        rate = 0.3
        clean, _ = generate_line_records(_flat_config(seed=2, cases=20_000.0, end=START))
        relabeled, _ = generate_line_records(_flat_config(
            seed=2, cases=20_000.0, end=START, missingness_rate=rate))
        assert [r.gender for r in clean] == [r.gender for r in relabeled]
        for field in ("hospitalized_raw", "died_raw"):
            pairs = [(getattr(a, field), getattr(b, field))
                     for a, b in zip(clean, relabeled)]
            assert {a for a, _ in pairs} == {"yes", "no"}
            assert all(b == "yes" for a, b in pairs if a == "yes")
            after = [b for a, b in pairs if a == "no"]
            moved = [b for b in after if b != "no"]
            assert set(moved) == {"unknown", "missing"}
            se = (rate * (1 - rate) / len(after)) ** 0.5
            assert abs(len(moved) / len(after) - rate) < 3 * se, field
            se = (0.25 / len(moved)) ** 0.5
            assert abs(moved.count("missing") / len(moved) - 0.5) < 3 * se, field

    def test_truth_table_mirrors_config(self):
        config = _flat_config()
        _, truth = generate_line_records(config)
        assert truth is config
        assert truth.bands == ("50-59",)

    def test_validation_rejects_bad_curves(self):
        config = _flat_config()
        config.hfr["50-59"] = np.full(config.n_days, 1.5)
        with pytest.raises(ValueError):
            generate_line_records(config)
        config = _flat_config()
        config.case_intensity["50-59"] = config.case_intensity["50-59"][:-1]
        with pytest.raises(ValueError):
            generate_line_records(config)


class TestScenarios:
    def test_step_down_plateaus(self):
        config = step_down_scenario()
        curve = config.hfr["50-59"]
        assert curve[0] == pytest.approx(0.30, abs=1e-3)
        assert curve[-1] == pytest.approx(0.18, abs=1e-3)
        assert np.all(np.diff(curve) <= 0)
        # probe dates used downstream sit deep in the plateaus
        i_old = (dt.date(2020, 5, 1) - config.start).days
        i_new = (dt.date(2020, 9, 15) - config.start).days
        assert curve[i_new] / curve[i_old] - 1 == pytest.approx(-0.40, abs=0.002)

    def test_simpson_scenario_paradox_by_construction(self):
        config = simpson_scenario()
        assert simpson_paradox_holds(config)
        # aggregate endpoint drop close to the documented -2.6%
        agg = config.aggregate_hfr()
        assert (agg[-1] / agg[0] - 1) == pytest.approx(-0.026, abs=0.005)

    def test_flat_scenario_is_not_a_paradox(self):
        assert not simpson_paradox_holds(_flat_config())


class TestWriteFloridaCsv:
    def test_round_trip_through_parser(self, tmp_path):
        from hfrtrend.ingest import parse_florida_lines

        config = _flat_config(seed=5, cases=30.0, missingness_rate=0.3)
        records, _ = generate_line_records(config)
        path = tmp_path / "synth.csv"
        write_florida_csv(records, path)
        parsed, report = parse_florida_lines(path)
        assert report.kept_rows == len(records)
        assert report.rejected_rows_by_reason == {}
        # outcome booleans survive the layout round trip
        original = [(normalize_record(r).hospitalized, normalize_record(r).died)
                    for r in records]
        recovered = [(normalize_record(r).hospitalized, normalize_record(r).died)
                     for r in parsed]
        assert original == recovered


# ---------------------------------------------------------------- oracle
# The per-case generator and csv.writer writer the columnar code replaced,
# kept as the reference its output must equal byte for byte.


def oracle_generate_line_records(config: SynthConfig):
    config.validate()
    rng = np.random.default_rng(config.seed)
    bands = tuple(config.case_intensity)
    records = []
    unknown_labels = ("unknown", "missing")

    for day_idx in range(config.n_days):
        date = config.start + dt.timedelta(days=day_idx)
        for band in bands:
            n_cases = int(rng.poisson(config.case_intensity[band][day_idx]))
            if n_cases == 0:
                continue
            hosp = rng.random(n_cases) < config.p_hosp[band][day_idx]
            died = hosp & (rng.random(n_cases) < config.hfr[band][day_idx])
            female = rng.random(n_cases) < FEMALE_FRACTION
            if config.missingness_rate > 0:  # [relabel, pick] x [hosp, died] x case
                u = rng.random((2, 2, n_cases))
            for i in range(n_cases):
                hosp_label = "yes" if hosp[i] else "no"
                died_label = "yes" if died[i] else "no"
                if config.missingness_rate > 0:
                    if hosp_label == "no" and u[0, 0, i] < config.missingness_rate:
                        hosp_label = unknown_labels[int(u[1, 0, i] < 0.5)]
                    if died_label == "no" and u[0, 1, i] < config.missingness_rate:
                        died_label = unknown_labels[int(u[1, 1, i] < 0.5)]
                records.append(
                    RawLineRecord(
                        event_date=date,
                        age_years=None,
                        age_band=band,
                        gender="female" if female[i] else "male",
                        hospitalized_raw=hosp_label,
                        died_raw=died_label,
                        state=None,
                    )
                )
    return records, config


def _oracle_midpoint_age(band):
    if band == "80+":
        return 85
    lo, hi = band.split("-")
    return (int(lo) + int(hi)) // 2


def oracle_write_florida_csv(records, path):
    label = {"yes": "YES", "no": "NO", "unknown": "UNKNOWN", "missing": ""}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ChartDate", "Age", "Gender", "Hospitalized", "Died"])
        for r in records:
            age = r.age_years
            if age is None and r.age_band is not None:
                age = _oracle_midpoint_age(r.age_band)
            writer.writerow(
                [
                    r.event_date.isoformat(),
                    "" if age is None else age,
                    {"female": "Female", "male": "Male"}.get(r.gender, "Unknown"),
                    label[r.hospitalized_raw],
                    label[r.died_raw],
                ]
            )


def _nine_band_config(seed=11, rows=20_000):
    """Shaped like the CDC benchmark input: nine bands, two waves, a step
    in every band's HFR, and "no" outcomes relabeled at rate 0.3."""
    bands = ("0-9", "10-19", "20-29", "30-39", "40-49", "50-59", "60-69",
             "70-79", "80+")
    mix = np.array([0.04, 0.09, 0.19, 0.16, 0.15, 0.15, 0.10, 0.06, 0.06])
    p_hosp = (0.01, 0.01, 0.02, 0.04, 0.07, 0.11, 0.19, 0.30, 0.40)
    hfr_old = (0.01, 0.01, 0.03, 0.06, 0.09, 0.14, 0.23, 0.33, 0.45)
    start, end = dt.date(2020, 3, 20), dt.date(2020, 11, 1)
    t = np.arange((end - start).days + 1, dtype=float)
    wave = (0.6 + 0.8 * np.exp(-(((t - 21) / 20.0) ** 2))
            + 1.2 * np.exp(-(((t - 117) / 25.0) ** 2)))
    wave *= rows / wave.sum()
    step = 1.0 - 0.4 / (1.0 + np.exp(-(t - 82) / 6.0))
    return SynthConfig(
        start=start,
        end=end,
        case_intensity={b: wave * w for b, w in zip(bands, mix)},
        p_hosp={b: np.full(len(t), p) for b, p in zip(bands, p_hosp)},
        hfr={b: h * step for b, h in zip(bands, hfr_old)},
        seed=seed,
        missingness_rate=0.3,
    )


ORACLE_CONFIGS = {
    "step": lambda: step_down_scenario(daily_cases=400.0, seed=7),  # > 1 << 16 rows
    "simpson": lambda: simpson_scenario(daily_cases=300.0, seed=7),
    "missing_0.3": lambda: _flat_config(seed=4, missingness_rate=0.3),
    "missing_0.5": lambda: _flat_config(seed=5, missingness_rate=0.5),
    "nine_bands": _nine_band_config,
    "no_cases": lambda: step_down_scenario(daily_cases=0.0, seed=7),
}


class TestColumnarMatchesOracle:
    @pytest.mark.parametrize("name", ORACLE_CONFIGS)
    def test_records_truth_and_csv_bytes(self, tmp_path, name):
        config = ORACLE_CONFIGS[name]()
        expected, expected_truth = oracle_generate_line_records(config)
        records, truth = generate_line_records(config)
        assert records == expected
        assert truth is expected_truth is config
        # equal records are one shared object, not one object per case
        assert len(set(map(id, records))) == len(set(records))

        oracle_write_florida_csv(expected, tmp_path / "oracle.csv")
        write_florida_csv(records, tmp_path / "records.csv")
        codes = generate_cases(config)
        write_cases_csv(codes, config, tmp_path / "codes.csv")
        want = (tmp_path / "oracle.csv").read_bytes()
        assert (tmp_path / "records.csv").read_bytes() == want
        assert (tmp_path / "codes.csv").read_bytes() == want
        assert len(codes) == len(expected)

    def test_cli_with_no_cases_writes_header_only(self, tmp_path):
        from hfrtrend.cli import main

        assert main(["synth", "--daily-cases", "0", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "synthetic_florida.csv").read_bytes() == (
            b"ChartDate,Age,Gender,Hospitalized,Died\r\n")

    def test_record_writer_keeps_age_years_and_unknown_gender(self, tmp_path):
        records = [
            RawLineRecord(dt.date(2020, 4, 1), 34, None, "other-unknown",
                          "missing", "unknown", None),
            RawLineRecord(dt.date(2020, 4, 2), None, "80+", "female",
                          "yes", "no", None),
            RawLineRecord(dt.date(2020, 4, 3), None, None, "male",
                          "no", "no", None),
        ]
        oracle_write_florida_csv(records, tmp_path / "oracle.csv")
        write_florida_csv(records, tmp_path / "new.csv")
        assert ((tmp_path / "new.csv").read_bytes()
                == (tmp_path / "oracle.csv").read_bytes())
