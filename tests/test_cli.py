"""Command-line pipeline: subcommands, exit codes, manifest replay."""

import csv
import datetime as dt
import filecmp
import gzip
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hfrtrend
from hfrtrend import signals, trend
from hfrtrend.cli import (
    DEFAULT_DATE_PAIRS,
    EXIT_DATA,
    EXIT_INSUFFICIENT,
    EXIT_OK,
    EXIT_USAGE,
    TABLE_BANDS,
    _interval_text,
    _load_cohort_npz,
    main,
)
from hfrtrend.cohort import StratumKey


@pytest.fixture(scope="module")
def pipeline_dirs(tmp_path_factory):
    """One synth -> ingest -> analyze -> bootstrap run shared by tests."""
    root = tmp_path_factory.mktemp("pipeline")
    synth = root / "synth"
    ingested = root / "ingested"
    analyzed = root / "analyzed"
    boot = root / "boot"
    assert main(["synth", "--scenario", "step", "--seed", "0",
                 "--daily-cases", "60", "--out", str(synth)]) == EXIT_OK
    assert main(["ingest", "--input", str(synth / "synthetic_florida.csv"),
                 "--schema", "florida", "--out", str(ingested)]) == EXIT_OK
    assert main(["analyze", "--store", str(ingested / "store.npz"),
                 "--out", str(analyzed)]) == EXIT_OK
    assert main(["bootstrap", "--analyzed", str(analyzed),
                 "--dates", "2020-05-01,2020-09-15",
                 "--replicates", "100", "--seed", "0",
                 "--out", str(boot)]) == EXIT_OK
    return {"root": root, "synth": synth, "ingested": ingested,
            "analyzed": analyzed, "boot": boot}


class TestPipelineOutputs:
    def test_synth_outputs(self, pipeline_dirs):
        d = pipeline_dirs["synth"]
        assert (d / "synthetic_florida.csv").exists()
        truth = json.loads((d / "truth.json").read_text())
        assert truth["bands"] == ["50-59"]
        assert len(truth["hfr"]["50-59"]) == 215

    def test_ingest_report_conserves_rows(self, pipeline_dirs):
        d = pipeline_dirs["ingested"]
        report = json.loads((d / "ingest_report.json").read_text())
        rejected = sum(report["rejected_rows_by_reason"].values())
        assert report["total_rows"] == report["kept_rows"] + rejected
        assert report["kept_rows"] > 10_000

    def test_analyze_outputs(self, pipeline_dirs):
        d = pipeline_dirs["analyzed"]
        for name in ("cohort_table.npz", "cohort_long.csv", "demographics.txt",
                     "demographics.json", "cfr_aggregate.csv", "hfr_50-59.csv",
                     "age_shares_cases.csv", "gender_fraction_cases.csv"):
            assert (d / name).exists(), name
        demo = json.loads((d / "demographics.json").read_text())
        assert demo["total_cases"] == demo["died_yes"] + demo["died_no"]
        assert demo["age_counts"]["50-59"] == demo["total_cases"]

    def test_bootstrap_table_has_all_strata_rows(self, pipeline_dirs):
        d = pipeline_dirs["boot"]
        csv_path = d / "hfr_drop_05-01_to_09-15.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("age_group,2020-05-01,2020-09-15")
        names = [line.split(",")[0] for line in lines[1:]]
        assert names == ["aggregate", "30-39", "40-49", "50-59", "60-69",
                         "70-79", "80+"]
        # single-band synthetic data: only aggregate and 50-59 estimable
        body = {line.split(",")[0]: line for line in lines[1:]}
        assert '"-"' in body["30-39"] or ",-," in body["30-39"]
        assert "(" in body["50-59"]

    def test_bootstrap_recovers_negative_drop(self, pipeline_dirs):
        d = pipeline_dirs["boot"]
        text = (d / "hfr_drop_05-01_to_09-15.txt").read_text()
        agg_line = [l for l in text.splitlines() if l.startswith("aggregate")][0]
        drop_text = agg_line.split("  ")[-1]
        assert drop_text.strip().startswith("-0.")


class TestBootstrapTables:
    def test_drop_tables_equal_per_pair_analyze_trend(self, pipeline_dirs,
                                                      tmp_path):
        # With the window starting 04-01, the first six days of the 7-day
        # trailing mean are gaps: 04-01 lies before every band's first
        # defined point, so the 04-01 pair is "-" while 04-15 is filled.
        analyzed = tmp_path / "analyzed"
        boot = tmp_path / "boot"
        assert main(["analyze", "--store",
                     str(pipeline_dirs["ingested"] / "store.npz"),
                     "--window", "2020-04-01..2020-11-01",
                     "--out", str(analyzed)]) == EXIT_OK
        assert main(["bootstrap", "--analyzed", str(analyzed),
                     "--replicates", "60", "--seed", "3",
                     "--out", str(boot)]) == EXIT_OK
        table = _load_cohort_npz(analyzed / "cohort_table.npz")
        config = trend.BootstrapConfig(replicates=60, seed=3)
        tables = {}
        for d_old, d_new in DEFAULT_DATE_PAIRS:
            expected = []
            for name in TABLE_BANDS:
                series = signals.hfr_series(table, StratumKey(name, "all"))
                try:
                    result = trend.analyze_trend(
                        series, config, [d_old, d_new], [(d_old, d_new)]
                    )
                except (trend.InsufficientDataError, trend.OutOfRangeError):
                    expected.append([name, "-", "-", "-"])
                    continue
                cells = [*result.levels, result.drops[0]]
                expected.append([name] + [
                    _interval_text(c.median, c.lower, c.upper) for c in cells
                ])
            tag = f"{d_old:%m-%d}_to_{d_new:%m-%d}"
            with open(boot / f"hfr_drop_{tag}.csv", newline="") as fh:
                tables[d_old] = list(csv.reader(fh))[1:]
            assert tables[d_old] == expected
        filled = {row[0]: row[1] != "-" for row in tables[dt.date(2020, 4, 15)]}
        assert filled["aggregate"] and filled["50-59"]
        assert all(row[1] == "-" for row in tables[dt.date(2020, 4, 1)])


class TestImports:
    def test_cli_import_leaves_scipy_unloaded(self):
        src = str(Path(hfrtrend.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        probe = ("import sys, hfrtrend, hfrtrend.cli; "
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] in ('scipy', 'yaml')))")
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestDeterminism:
    def test_bootstrap_reports_byte_identical_across_runs(self, pipeline_dirs,
                                                          tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        args = ["bootstrap", "--analyzed", str(pipeline_dirs["analyzed"]),
                "--dates", "2020-05-01,2020-09-15",
                "--replicates", "100", "--seed", "0"]
        assert main(args + ["--out", str(out_a)]) == EXIT_OK
        assert main(args + ["--out", str(out_b)]) == EXIT_OK
        for name in ("hfr_drop_05-01_to_09-15.csv", "hfr_drop_05-01_to_09-15.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_manifest_replay_reproduces_analyze(self, pipeline_dirs, tmp_path):
        analyzed = pipeline_dirs["analyzed"]
        replay = tmp_path / "replay"
        manifest = json.loads((analyzed / "manifest.json").read_text())
        manifest["args"]["out"] = str(replay)
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        assert main(["report", "--manifest", str(manifest_path)]) == EXIT_OK
        match, mismatch, errors = filecmp.cmpfiles(
            analyzed, replay,
            [p.name for p in analyzed.iterdir() if p.name != "manifest.json"],
            shallow=False,
        )
        assert mismatch == []
        assert errors == []


class TestExitCodes:
    def test_missing_input_is_data_error(self, tmp_path):
        code = main(["ingest", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA

    def test_missing_store_is_data_error(self, tmp_path):
        code = main(["analyze", "--store", str(tmp_path / "nope.npz"),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA

    def test_bad_dates_is_usage_error(self, pipeline_dirs, tmp_path):
        code = main(["bootstrap", "--analyzed", str(pipeline_dirs["analyzed"]),
                     "--dates", "yesterday", "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["synth", "--frobnicate", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_bad_window_is_usage_error(self, tmp_path):
        code = main(["analyze", "--store", "s.npz", "--window", "april..june",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE

    def test_old_store_version_is_data_error(self, tmp_path, capsys):
        store = tmp_path / "store.npz"
        np.savez_compressed(store, version=np.int64(1), meta_json=np.str_("{}"))
        code = main(["analyze", "--store", str(store),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "store version 1" in err

    def test_sparse_cohort_is_insufficient(self, tmp_path):
        synth = tmp_path / "synth"
        ingested = tmp_path / "ingested"
        analyzed = tmp_path / "analyzed"
        # ~0.2 cases/day: far too sparse for any stratum to fit
        assert main(["synth", "--seed", "1", "--daily-cases", "0.2",
                     "--out", str(synth)]) == EXIT_OK
        assert main(["ingest", "--input", str(synth / "synthetic_florida.csv"),
                     "--out", str(ingested)]) == EXIT_OK
        assert main(["analyze", "--store", str(ingested / "store.npz"),
                     "--out", str(analyzed)]) == EXIT_OK
        code = main(["bootstrap", "--analyzed", str(analyzed),
                     "--replicates", "20", "--out", str(tmp_path / "boot")])
        assert code == EXIT_INSUFFICIENT


class TestIngestRows:
    def test_short_blank_and_extra_field_rows(self, tmp_path):
        src = tmp_path / "fl.csv"
        src.write_text("ChartDate,Age,Gender,Hospitalized,Died\n"
                       "2020-04-01,34,Female,NO,NO\n"
                       "\n"
                       "2020-04-02,54\n"
                       "2020-04-03,61,Male,YES,NO,extra\n")
        out = tmp_path / "ingested"
        assert main(["ingest", "--input", str(src), "--quarantine",
                     "--out", str(out)]) == EXIT_OK
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["total_rows"] == 3
        assert report["kept_rows"] == 2
        assert report["rejected_rows_by_reason"] == {"malformed_row": 1}
        quarantined = (out / "quarantine.csv").read_text().splitlines()
        assert quarantined[1:] == ["2020-04-02,54,,,,malformed_row"]

    @pytest.mark.parametrize("payload", [
        b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\x03",  # truncated gzip
        b"ChartDate,Age,Gender,Hospitalized,Died\n"
        b"2020-04-01,34,Female,NO,NO\n"
        b"2020-04-02,\xff\xfe,Male,NO,NO\n",  # not UTF-8
    ], ids=["truncated_gzip", "non_utf8"])
    def test_undecodable_input_is_data_error(self, tmp_path, capsys, payload):
        src = tmp_path / "cases.csv"
        src.write_bytes(payload)
        code = main(["ingest", "--input", str(src), "--out", str(tmp_path / "o")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_gzip_input_from_a_pipe(self, tmp_path):
        payload = gzip.compress(b"ChartDate,Age,Gender,Hospitalized,Died\n"
                                b"2020-04-01,34,Female,NO,NO\n")
        read_fd, write_fd = os.pipe()
        with os.fdopen(write_fd, "wb") as fh:
            fh.write(payload)
        try:
            out = tmp_path / "ingested"
            assert main(["ingest", "--input", f"/dev/fd/{read_fd}",
                         "--out", str(out)]) == EXIT_OK
        finally:
            os.close(read_fd)
        report = json.loads((out / "ingest_report.json").read_text())
        assert report["kept_rows"] == 1


class TestTestingFile:
    @pytest.mark.parametrize("payload", [
        b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\x03",  # truncated gzip
        b"date,positive,totalTestResults\n2020-04-01,\xff\xfe,50\n",  # not UTF-8
        b"date,totalTestResults\n2020-04-01,50\n",  # no positive column
        None,  # no such file
    ], ids=["truncated_gzip", "non_utf8", "missing_column", "missing_file"])
    def test_bad_testing_file_is_data_error(self, pipeline_dirs, tmp_path,
                                            capsys, payload):
        testing = tmp_path / "testing.csv"
        if payload is not None:
            testing.write_bytes(payload)
        code = main(["analyze", "--store",
                     str(pipeline_dirs["ingested"] / "store.npz"),
                     "--testing-file", str(testing),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")


class TestStateExclusion:
    def test_three_letter_state_code_survives(self, tmp_path):
        rows = ["cdc_report_dt,pos_spec_dt,age_group,sex,hosp_yn,death_yn,"
                "res_state,current_status"]
        for state, n in (("NYC", 7), ("NY", 5), ("FL", 3)):
            rows += [f"2020-04-{i + 1:02d},2020-04-01,50 - 59 Years,Female,No,No,"
                     f"{state},Laboratory-confirmed case" for i in range(n)]
        src = tmp_path / "cdc.csv"
        src.write_text("\n".join(rows) + "\n")
        ingested = tmp_path / "ingested"
        assert main(["ingest", "--input", str(src), "--schema", "cdc",
                     "--out", str(ingested)]) == EXIT_OK
        for excluded, kept in (("NYC", 8), ("NY", 10), ("nyc,FL", 5)):
            out = tmp_path / excluded
            assert main(["analyze", "--store", str(ingested / "store.npz"),
                         "--exclude-states", excluded,
                         "--out", str(out)]) == EXIT_OK
            demo = json.loads((out / "demographics.json").read_text())
            assert demo["total_cases"] == kept, excluded

    def test_exclude_states_drops_records(self, tmp_path):
        # CDC-layout fixture with an NJ bulk dump
        rows = ["cdc_report_dt,pos_spec_dt,age_group,sex,hosp_yn,death_yn,"
                "res_state,current_status"]
        for i in range(40):
            rows.append(f"2020-04-15,2020-04-14,50 - 59 Years,Female,No,No,NJ,"
                        "Laboratory-confirmed case")
        for i in range(40):
            rows.append(f"2020-04-{(i % 28) + 1:02d},2020-04-01,50 - 59 Years,"
                        "Male,No,No,FL,Laboratory-confirmed case")
        src = tmp_path / "cdc.csv"
        src.write_text("\n".join(rows) + "\n")
        ingested = tmp_path / "ingested"
        assert main(["ingest", "--input", str(src), "--schema", "cdc",
                     "--out", str(ingested)]) == EXIT_OK

        manual = tmp_path / "manual"
        assert main(["analyze", "--store", str(ingested / "store.npz"),
                     "--exclude-states", "nj", "--out", str(manual)]) == EXIT_OK
        demo = json.loads((manual / "demographics.json").read_text())
        assert demo["total_cases"] == 40
        assert demo["gender_counts"]["female"] == 0

        auto = tmp_path / "auto"
        assert main(["analyze", "--store", str(ingested / "store.npz"),
                     "--auto-exclude", "--out", str(auto)]) == EXIT_OK
        excluded = json.loads((auto / "excluded_states.json").read_text())
        assert list(excluded) == ["NJ"]
        demo = json.loads((auto / "demographics.json").read_text())
        assert demo["total_cases"] == 40
