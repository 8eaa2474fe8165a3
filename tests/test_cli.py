"""Command-line pipeline: subcommands, exit codes, manifest replay."""

import csv
import dataclasses
import datetime as dt
import filecmp
import gzip
import hashlib
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
    _POISSON_LAM_MAX,
    _interval_text,
    _load_cohort_npz,
    main,
)
from hfrtrend.cohort import StratumKey
from hfrtrend.store import (MAX_DATES, MAX_STATES, NO_STATE, day_date, load_store,
                            save_store, write_npz)


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


def _drop_rows(boot: Path, d_old: dt.date, d_new: dt.date) -> list[list[str]]:
    with open(boot / f"hfr_drop_{d_old:%m-%d}_to_{d_new:%m-%d}.csv",
              newline="") as fh:
        return list(csv.reader(fh))[1:]


def _expected_rows(table, config, d_old, d_new, min_deaths=2):
    """The drop-table rows of one pair, and the reason for each "-" row,
    from one `analyze_trend` per stratum."""
    rows, dash_cells = [], []
    table = dataclasses.replace(table, min_deaths=min_deaths)
    for name in TABLE_BANDS:
        series = signals.hfr_series(table, StratumKey(name, "all"))
        try:
            result = trend.analyze_trend(
                series, config, [d_old, d_new], [(d_old, d_new)]
            )
        except (trend.InsufficientDataError, trend.OutOfRangeError) as exc:
            rows.append([name, "-", "-", "-"])
            dash_cells.append({"stratum": name, "d_old": d_old.isoformat(),
                               "d_new": d_new.isoformat(), "reason": str(exc)})
            continue
        cells = [*result.levels, result.drops[0]]
        rows.append([name] + [
            _interval_text(c.median, c.lower, c.upper) for c in cells
        ])
    return rows, dash_cells


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
        dash_cells = []
        for d_old, d_new in DEFAULT_DATE_PAIRS:
            expected, dashes = _expected_rows(table, config, d_old, d_new)
            tables[d_old] = _drop_rows(boot, d_old, d_new)
            assert tables[d_old] == expected
            dash_cells += dashes
        filled = {row[0]: row[1] != "-" for row in tables[dt.date(2020, 4, 15)]}
        assert filled["aggregate"] and filled["50-59"]
        assert all(row[1] == "-" for row in tables[dt.date(2020, 4, 1)])
        # the manifest gives the reason for every "-" row, stratum by stratum
        manifest = json.loads((boot / "manifest.json").read_text())
        assert manifest["stats"]["dash_cells"] == sorted(
            dash_cells, key=lambda c: TABLE_BANDS.index(c["stratum"]))

    def test_bootstrap_fits_the_floor_analyze_applied(self, pipeline_dirs,
                                                      tmp_path):
        config = trend.BootstrapConfig(replicates=60, seed=3)
        written = {}
        for floor in (2, 8):
            analyzed = tmp_path / f"analyzed_{floor}"
            boot = tmp_path / f"boot_{floor}"
            assert main(["analyze", "--store",
                         str(pipeline_dirs["ingested"] / "store.npz"),
                         "--min-deaths", str(floor),
                         "--out", str(analyzed)]) == EXIT_OK
            assert main(["bootstrap", "--analyzed", str(analyzed),
                         "--replicates", "60", "--seed", "3",
                         "--out", str(boot)]) == EXIT_OK
            table = _load_cohort_npz(analyzed / "cohort_table.npz")
            written[floor] = [_drop_rows(boot, *pair) for pair in DEFAULT_DATE_PAIRS]
            assert written[floor] == [
                _expected_rows(table, config, *pair, min_deaths=floor)[0]
                for pair in DEFAULT_DATE_PAIRS]
        assert written[2] != written[8]

    def test_table_carries_the_floor_analyze_applied(self, pipeline_dirs,
                                                     tmp_path):
        # the acceptance gate's calls read the floor of the run that wrote
        # the table, not the default one
        analyzed = tmp_path / "analyzed"
        assert main(["analyze", "--store",
                     str(pipeline_dirs["ingested"] / "store.npz"),
                     "--min-deaths", "8", "--out", str(analyzed)]) == EXIT_OK
        table = _load_cohort_npz(analyzed / "cohort_table.npz")
        gaps = signals.hfr_series(table, StratumKey()).series.gaps
        with open(analyzed / "hfr_aggregate.csv", newline="") as fh:
            written = [row["gap"] == "1" for row in csv.DictReader(fh)]
        assert gaps.tolist() == written
        floor_2 = signals.hfr_series(dataclasses.replace(table, min_deaths=2))
        assert floor_2.series.gaps.tolist() != written

    def test_bootstrap_opens_the_cohort_table_once(self, pipeline_dirs,
                                                   tmp_path, monkeypatch):
        opened = []
        open_npz = hfrtrend.store.open_npz

        def counting(path, writer):
            opened.append(Path(path).name)
            return open_npz(path, writer)

        monkeypatch.setattr(hfrtrend.store, "open_npz", counting)
        assert main(["bootstrap", "--analyzed", str(pipeline_dirs["analyzed"]),
                     "--replicates", "20", "--out", str(tmp_path / "boot")]) == EXIT_OK
        assert opened == ["cohort_table.npz"]


def _loaded_after(code: str, watched: tuple[str, ...]) -> list[str]:
    """Run `code` in a fresh interpreter on this package; return which of
    the `watched` modules (or their submodules) it left loaded."""
    src = str(Path(hfrtrend.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = (f"import json, sys\n{code}\n"
             f"print(json.dumps(sorted(w for w in {watched!r} if any("
             "m == w or m.startswith(w + '.') for m in sys.modules))))")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


class TestImports:
    def test_cli_import_leaves_scipy_unloaded(self):
        # nor any stage module: building the parser loads none of them
        code = "import hfrtrend.cli\nhfrtrend.cli.build_parser()"
        watched = ("hfrtrend.trend", "hfrtrend.synth", "hfrtrend.ingest",
                   "hfrtrend.store", "hfrtrend.cohort", "hfrtrend.signals",
                   "importlib.metadata", "scipy", "yaml")
        assert _loaded_after(code, watched) == []

    def test_ingest_loads_only_what_it_runs(self, tmp_path):
        src = tmp_path / "cases.csv"
        src.write_text("ChartDate,Age,Gender,Hospitalized,Died\n"
                       "2020-04-01,34,Female,NO,NO\n")
        argv = ["ingest", "--input", str(src), "--out", str(tmp_path / "out")]
        code = f"import hfrtrend.cli\nassert hfrtrend.cli.main({argv!r}) == 0"
        watched = ("hfrtrend.ingest", "hfrtrend.store", "hfrtrend.trend",
                   "hfrtrend.cohort", "hfrtrend.signals", "hfrtrend.synth",
                   "scipy")
        assert _loaded_after(code, watched) == ["hfrtrend.ingest",
                                                "hfrtrend.store"]

    def test_analyze_loads_only_what_it_runs(self, tmp_path):
        src = tmp_path / "cases.csv"
        src.write_text("ChartDate,Age,Gender,Hospitalized,Died\n"
                       "2020-04-01,34,Female,NO,NO\n"
                       "2020-04-02,71,Male,YES,YES\n")
        store = tmp_path / "ingested"
        assert main(["ingest", "--input", str(src), "--out", str(store)]) == EXIT_OK
        argv = ["analyze", "--store", str(store / "store.npz"),
                "--out", str(tmp_path / "out")]
        code = f"import hfrtrend.cli\nassert hfrtrend.cli.main({argv!r}) == 0"
        # a Florida store has no states, so nothing needs numpy.ma
        watched = ("hfrtrend.ingest", "hfrtrend.store", "hfrtrend.cohort",
                   "hfrtrend.signals", "hfrtrend.trend", "hfrtrend.synth",
                   "scipy", "numpy.ma")
        assert _loaded_after(code, watched) == ["hfrtrend.cohort",
                                                "hfrtrend.signals",
                                                "hfrtrend.store"]

    def test_bootstrap_loads_only_what_it_runs(self, pipeline_dirs, tmp_path):
        argv = ["bootstrap", "--analyzed", str(pipeline_dirs["analyzed"]),
                "--dates", "2020-05-01,2020-09-15", "--replicates", "10",
                "--out", str(tmp_path / "boot")]
        # every solve is numpy's, so nothing of scipy is loaded, not even
        # its LAPACK extension under another name (Linux lists every
        # mapped file in /proc/self/maps)
        code = (f"import hfrtrend.cli, os\nassert hfrtrend.cli.main({argv!r}) == 0\n"
                "maps = '/proc/self/maps'\n"
                "assert not os.path.exists(maps) or '_flapack' not in open(maps).read()")
        watched = ("hfrtrend.ingest", "hfrtrend.synth", "scipy",
                   "scipy.linalg._flapack", "numpy.ma", "numpy.random",
                   "secrets", "_hashlib")
        assert _loaded_after(code, watched) == []

    def test_manifest_tool_version_is_the_package_version(self, pipeline_dirs):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as fh:
            declared = tomllib.load(fh)["project"]["version"]
        for stage in ("synth", "ingested", "analyzed", "boot"):
            manifest = json.loads(
                (pipeline_dirs[stage] / "manifest.json").read_text())
            assert manifest["tool_version"] == hfrtrend.__version__ == declared


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


@pytest.fixture(scope="module")
def replay_runs(tmp_path_factory):
    """One run of every stage with the options whose recording is least
    trivial, and the manifest `args` each must record."""
    root = tmp_path_factory.mktemp("replay")
    synth, ingested, analyzed, boot = (root / d for d in
                                       ("synth", "ingested", "analyzed", "boot"))
    source = root / "cases.csv"
    runs = {
        "synth": (["synth", "--seed", "3", "--daily-cases", "40",
                   "--out", str(synth)],
                  {"scenario": "step", "seed": 3, "daily_cases": 40.0,
                   "out": str(synth)}),
        "ingest": (["ingest", "--input", str(source), "--quarantine",
                    "--out", str(ingested)],
                   {"input": str(source), "schema": "florida",
                    "schema_config": None, "use_specimen_date": False,
                    "quarantine": True, "out": str(ingested)}),
        "analyze": (["analyze", "--store", str(ingested / "store.npz"),
                     "--window", "2020-04-05..2020-10-20", "--auto-exclude",
                     "--out", str(analyzed)],
                    {"store": str(ingested / "store.npz"),
                     "window": "2020-04-05..2020-10-20", "maturity_days": 30,
                     "vintage": "2020-12-04", "exclude_states": None,
                     "auto_exclude": True, "min_deaths": 2,
                     "testing_file": None, "daily_testing": False,
                     "out": str(analyzed)}),
        "bootstrap": (["bootstrap", "--analyzed", str(analyzed),
                       "--dates", "2020-05-01,2020-09-15",
                       "--replicates", "40", "--seed", "2", "--out", str(boot)],
                      {"analyzed": str(analyzed), "dates": "2020-05-01,2020-09-15",
                       "seed": 2, "replicates": 40,
                       "gender": "all", "out": str(boot)}),
    }
    for stage, (argv, _) in runs.items():
        if stage == "ingest":
            # two rejected rows, so the quarantine file has content
            source.write_text((synth / "synthetic_florida.csv").read_text()
                              + "2020-13-01,40,Male,NO,NO\n"
                              + "2020-05-01,40,Male,MAYBE,NO\n")
        assert main(argv) == EXIT_OK, stage
    return {stage: (Path(argv[-1]), args) for stage, (argv, args) in runs.items()}


class TestManifestReplay:
    @pytest.mark.parametrize("stage", ["synth", "ingest", "analyze", "bootstrap"])
    def test_manifest_replay_reproduces_every_stage(self, replay_runs, tmp_path,
                                                    stage):
        out, expected_args = replay_runs[stage]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == stage
        assert manifest["args"] == expected_args
        replay = tmp_path / "replay"
        manifest["args"]["out"] = str(replay)
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        assert main(["report", "--manifest", str(manifest_path)]) == EXIT_OK
        names = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert sorted(p.name for p in replay.iterdir()
                      if p.name != "manifest.json") == names
        for name in names:
            assert (replay / name).read_bytes() == (out / name).read_bytes(), name

    def test_manifest_with_removed_blocks_is_usage_error(self, replay_runs,
                                                         tmp_path, capsys):
        # bootstrap manifests recorded while --blocks existed hold it
        out, _ = replay_runs["bootstrap"]
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["args"].update(blocks=7, out=str(tmp_path / "replay"))
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps(manifest))
        assert main(["report", "--manifest", str(manifest_path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith("unrecognized arguments: --blocks 7")
        assert not (tmp_path / "replay").exists()


@pytest.fixture(scope="module")
def short_analyzed(pipeline_dirs, tmp_path_factory):
    """An analyze run whose window leaves every stratum 14 defined days,
    fewer than block CV needs."""
    analyzed = tmp_path_factory.mktemp("short") / "analyzed"
    assert main(["analyze", "--store", str(pipeline_dirs["ingested"] / "store.npz"),
                 "--window", "2020-05-01..2020-05-20",
                 "--out", str(analyzed)]) == EXIT_OK
    return analyzed


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
        # checked before the table is read, so a missing one cannot shadow it
        for analyzed in (pipeline_dirs["analyzed"], tmp_path / "nonexistent"):
            code = main(["bootstrap", "--analyzed", str(analyzed),
                         "--dates", "yesterday", "--out", str(tmp_path / "out")])
            assert code == EXIT_USAGE, analyzed

    @pytest.mark.parametrize("stage, option, code", [
        ("ingest", "--schema-config", EXIT_DATA),
        ("analyze", "--testing-file", EXIT_DATA),
        ("bootstrap", "--dates", EXIT_USAGE),
    ])
    def test_empty_option_value_is_given(self, pipeline_dirs, tmp_path, capsys,
                                         stage, option, code):
        # "" names no schema file, testing file or date pair; it is not the
        # option left out
        argv = {
            "ingest": ["--input", str(pipeline_dirs["synth"] / "synthetic_florida.csv")],
            "analyze": ["--store", str(pipeline_dirs["ingested"] / "store.npz")],
            "bootstrap": ["--analyzed", str(pipeline_dirs["analyzed"]),
                          "--replicates", "20"],
        }[stage]
        out = tmp_path / "out"
        assert main([stage, *argv, option, "", "--out", str(out)]) == code
        assert "Traceback" not in capsys.readouterr().err
        assert not (out / "manifest.json").exists()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        assert main(["synth", "--frobnicate", "--out", str(tmp_path)]) == EXIT_USAGE

    def test_bad_window_is_usage_error(self, tmp_path):
        code = main(["analyze", "--store", "s.npz", "--window", "april..june",
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ["bootstrap", "--analyzed", "a", "--replicates", "0"],
        ["analyze", "--store", "s.npz", "--maturity-days", "-1"],
        ["analyze", "--store", "s.npz", "--window", "2020-11-01..2020-04-01"],
        ["synth", "--daily-cases", "-5"],
        ["bootstrap", "--analyzed", "a", "--seed", "-1"],
        ["synth", "--seed", "-1"],
        ["analyze", "--store", "s.npz", "--min-deaths", "-1"],
        ["synth", "--daily-cases", "inf"],
        ["synth", "--daily-cases", "1e30"],
        ["analyze", "--store", "s.npz", "--auto-exclude", "--exclude-states", "FL"],
        ["analyze", "--store", "s.npz", "--maturity-days", "1000000"],
        ["analyze", "--store", "s.npz", "--vintage", "0001-01-05"],
    ], ids=["replicates", "maturity_days", "reversed_window",
            "daily_cases", "bootstrap_seed", "synth_seed", "analyze_min_deaths",
            "daily_cases_inf", "daily_cases_over_poisson",
            "both_exclusions", "maturity_before_year_one", "vintage_before_maturity"])
    def test_out_of_range_value_is_usage_error(self, tmp_path, capsys, argv):
        assert main(argv + ["--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"hfrtrend {argv[0]}: error: ")

    def test_daily_cases_bound_is_numpy_poisson_limit(self):
        top = np.iinfo(np.int64).max
        assert _POISSON_LAM_MAX == top - np.sqrt(top) * 10
        with pytest.raises(ValueError, match="lam value too large"):
            np.random.default_rng(0).poisson(np.nextafter(_POISSON_LAM_MAX, np.inf))

    @pytest.mark.parametrize("spellings", [
        '"outcome_spellings": {"maybe": "perhaps"}',
        '"gender_spellings": {"nb": "nonbinary"}',
        '"age_band_spellings": {"90+": "90-99"}',
    ], ids=["outcome", "gender", "age_band"])
    def test_spelling_to_unknown_category_is_data_error(self, tmp_path, capsys,
                                                        spellings):
        src = tmp_path / "fl.csv"
        src.write_text("ChartDate,Age,Gender,Hospitalized,Died\n"
                       "2020-04-01,34,NB,maybe,NO\n"
                       "2020-04-02,54,Male,NO,NO\n")
        schema = tmp_path / "schema.json"
        schema.write_text(f'{{"base": "florida", {spellings}}}')
        code = main(["ingest", "--input", str(src), "--schema-config",
                     str(schema), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")

    @pytest.mark.parametrize("entry", [
        '"outcome_spellings": ["yes"]',
        '"gender_spellings": "female"',
        '"age_band_spellings": 5',
        '"date_formats": 5',
        '"date_formats": "%Y-%m-%d"',
        '"confirmed_values": {"a": "b"}',
        '"event_date_column": 5',
        '"delimiter": 5',
        '"delimiter": ";;"',
        '"name": 5',
        '"schema.json": [unclosed',
        '"schema.json": "\xff"',
        None,
    ], ids=["outcome_spellings", "gender_spellings", "age_band_spellings",
            "date_formats", "date_formats_string", "confirmed_values",
            "column_name", "delimiter", "delimiter_string", "name",
            "malformed_json", "not_utf8", "missing_file"])
    def test_wrong_typed_schema_value_is_data_error(self, tmp_path, capsys,
                                                     entry):
        src = tmp_path / "fl.csv"
        src.write_text("ChartDate,Age,Gender,Hospitalized,Died\n"
                       "2020-04-02,54,Male,NO,NO\n")
        schema = tmp_path / "schema.json"
        if entry is not None:  # else the file is missing
            # in Latin-1 the "\xff" entry is a byte that is not UTF-8
            schema.write_text(f'{{"base": "florida", {entry}}}', encoding="latin-1")
        code = main(["ingest", "--input", str(src), "--schema-config",
                     str(schema), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        # the bad key, or the file for an unreadable one
        assert (entry or '"schema.json"').split(":")[0].strip('"') in err[0]

    @pytest.mark.parametrize("base", ['["florida"]', '"floridaa"'],
                             ids=["list", "unknown_name"])
    def test_bad_schema_base_names_the_builtin_schemas(self, tmp_path, capsys,
                                                       base):
        src = tmp_path / "fl.csv"
        src.write_text("ChartDate,Age,Gender,Hospitalized,Died\n"
                       "2020-04-02,54,Male,NO,NO\n")
        schema = tmp_path / "schema.json"
        schema.write_text(f'{{"base": {base}, "gender_column": "Gender"}}')
        code = main(["ingest", "--input", str(src), "--schema-config",
                     str(schema), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "base must be one of florida, cdc" in err[0]

    def test_yaml_schema_file_is_data_error(self, tmp_path, capsys):
        """A schema file is JSON: block-style YAML, whose reader turned
        the keys `on` and `off` into booleans, exits 2 naming the file."""
        src = tmp_path / "fl.csv"
        src.write_text("ChartDate,Age,Gender,Hospitalized,Died\n"
                       "2020-04-02,54,Male,on,off\n")
        schema = tmp_path / "schema.yaml"
        schema.write_text("base: florida\n"
                          "outcome_spellings:\n  on: 'yes'\n  off: 'no'\n")
        code = main(["ingest", "--input", str(src), "--schema-config",
                     str(schema), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "schema.yaml" in err[0]

    @pytest.mark.parametrize("spellings", ['{"si": "yes", "si": "no"}',
                                           '{"Si": "yes", "si": "no"}'],
                             ids=["exact", "folded"])
    def test_repeated_schema_key_is_data_error(self, tmp_path, capsys, spellings):
        src = tmp_path / "fl.csv"
        src.write_text("ChartDate,Age,Gender,Hospitalized,Died\n"
                       "2020-04-02,54,Male,si,NO\n")
        schema = tmp_path / "schema.json"
        schema.write_text(f'{{"base": "florida", "outcome_spellings": {spellings}}}')
        code = main(["ingest", "--input", str(src), "--schema-config",
                     str(schema), "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert "schema.json" in err[0] and "repeats key 'si'" in err[0]

    def test_v2_store_is_data_error(self, tmp_path, capsys):
        """A store of the six v2 columns says to re-run ingest."""
        store = tmp_path / "store.npz"
        write_npz(store, version=np.int64(2), meta_json=np.str_('{"schema": "florida"}'),
                  event_day=np.full(3, 18353, np.int32), age_band=np.zeros(3, np.uint8),
                  gender=np.zeros(3, np.uint8), hospitalized=np.zeros(3, bool),
                  died=np.zeros(3, bool), state=np.full(3, -1, np.int32),
                  state_vocab=np.array([], str))
        code = main(["analyze", "--store", str(store),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "store version 2" in err and err.endswith("re-run ingest")
        assert not (tmp_path / "out" / "cohort_table.npz").exists()

    def test_old_store_version_is_data_error(self, tmp_path, capsys):
        store = tmp_path / "store.npz"
        np.savez_compressed(store, version=np.int64(1), meta_json=np.str_("{}"))
        code = main(["analyze", "--store", str(store),
                     "--out", str(tmp_path / "out")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip()
        assert len(err.splitlines()) == 1
        assert "store version 1" in err

    @pytest.mark.parametrize("case", [
        "ingest_input_dir", "testing_file_dir", "store_dir", "store_bad_zip",
        "out_below_file", "analyze_out_is_file", "cohort_table_not_zip",
        "cohort_table_without_floor", "report_list", "report_replays_itself",
    ])
    def test_unreadable_path_or_foreign_file_is_data_error(
            self, pipeline_dirs, tmp_path, capsys, case):
        store = str(pipeline_dirs["ingested"] / "store.npz")
        a_file = tmp_path / "file.txt"
        a_file.write_text("not a directory\n")
        bad_zip = tmp_path / "bad.npz"
        bad_zip.write_bytes(b"PK\x03\x04" + b"\0" * 60)
        analyzed = tmp_path / "analyzed"
        analyzed.mkdir()
        (analyzed / "cohort_table.npz").write_text("date,cases\n")
        # a table written before the HFR support floor was stored with it
        floorless = tmp_path / "floorless"
        floorless.mkdir()
        with np.load(pipeline_dirs["analyzed"] / "cohort_table.npz") as npz:
            write_npz(floorless / "cohort_table.npz",
                      **{k: npz[k] for k in ("start", "end", "array")})
        manifest = tmp_path / "manifest.json"
        if case == "report_list":
            manifest.write_text("[]\n")
        else:
            manifest.write_text(json.dumps(
                {"subcommand": "report", "args": {"manifest": str(manifest)}}))
        out = str(tmp_path / "out")
        argv = {
            "ingest_input_dir": ["ingest", "--input", str(tmp_path), "--out", out],
            "testing_file_dir": ["analyze", "--store", store,
                                 "--testing-file", str(tmp_path), "--out", out],
            "store_dir": ["analyze", "--store", str(tmp_path), "--out", out],
            "store_bad_zip": ["analyze", "--store", str(bad_zip), "--out", out],
            "out_below_file": ["ingest", "--input", str(a_file),
                               "--out", str(a_file / "out")],
            "analyze_out_is_file": ["analyze", "--store", store,
                                    "--out", str(a_file)],
            "cohort_table_not_zip": ["bootstrap", "--analyzed", str(analyzed),
                                     "--out", out],
            "cohort_table_without_floor": ["bootstrap", "--analyzed",
                                           str(floorless), "--out", out],
            "report_list": ["report", "--manifest", str(manifest)],
            "report_replays_itself": ["report", "--manifest", str(manifest)],
        }[case]
        assert main(argv) == EXIT_DATA
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if case.startswith("cohort_table"):
            assert lines[0].endswith("re-run analyze")

    def test_removed_blocks_option_is_usage_error(self, tmp_path, capsys):
        assert main(["bootstrap", "--analyzed", "a", "--blocks", "7",
                     "--out", str(tmp_path / "out")]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].endswith("unrecognized arguments: --blocks 7")

    def test_manifest_only_from_a_stage_that_finished(self, pipeline_dirs,
                                                      short_analyzed, tmp_path):
        analyzed = tmp_path / "analyzed"
        analyzed.mkdir()
        (analyzed / "cohort_table.npz").write_text("date,cases\n")
        failed = tmp_path / "failed"
        assert main(["bootstrap", "--analyzed", str(analyzed),
                     "--out", str(failed)]) == EXIT_DATA
        assert failed.is_dir() and not (failed / "manifest.json").exists()
        bad_dates = tmp_path / "bad_dates"
        assert main(["bootstrap", "--analyzed", str(pipeline_dirs["analyzed"]),
                     "--dates", "yesterday", "--out", str(bad_dates)]) == EXIT_USAGE
        assert not (bad_dates / "manifest.json").exists()
        short = tmp_path / "short"
        assert main(["bootstrap", "--analyzed", str(short_analyzed),
                     "--replicates", "20", "--out", str(short)]) == EXIT_INSUFFICIENT
        manifest = json.loads((short / "manifest.json").read_text())
        assert manifest["subcommand"] == "bootstrap"
        assert set(manifest) == {"tool_version", "subcommand", "args", "stats",
                                 "wall_clock_s"}

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

    def test_series_too_short_for_block_cv_is_insufficient(
            self, short_analyzed, tmp_path, capsys):
        boot = tmp_path / "boot"
        code = main(["bootstrap", "--analyzed", str(short_analyzed),
                     "--replicates", "20", "--out", str(boot)])
        assert code == EXIT_INSUFFICIENT
        assert "Traceback" not in capsys.readouterr().err
        for d_old, d_new in DEFAULT_DATE_PAIRS:
            tag = f"{d_old:%m-%d}_to_{d_new:%m-%d}"
            with open(boot / f"hfr_drop_{tag}.csv", newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            assert [row[0] for row in rows] == list(TABLE_BANDS)
            assert all(cell == "-" for row in rows for cell in row[1:])
        cells = json.loads((boot / "manifest.json").read_text())[
            "stats"]["dash_cells"]
        assert len(cells) == len(TABLE_BANDS) * len(DEFAULT_DATE_PAIRS)
        reasons = {c["stratum"]: c["reason"] for c in cells}
        for fitted in ("aggregate", "50-59"):
            assert reasons[fitted] == "need >= 23 points for block CV, got 14"


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

    @pytest.mark.parametrize("gender", ['"' + "F" * 140_000 + '"', "F" * 140_000],
                             ids=["quoted", "plain"])
    def test_field_over_csv_limit_is_data_error(self, tmp_path, capsys, gender):
        # csv.field_size_limit() is 131,072 characters; a plain cell this
        # long must not slip through the str.split path
        src = tmp_path / "fl.csv"
        src.write_text("ChartDate,Age,Gender,Hospitalized,Died\n"
                       f"2020-04-01,34,{gender},NO,NO\n")
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

    def test_only_the_columns_the_run_reads_are_required(self, tmp_path, capsys):
        header = "pos_spec_dt,age_group,sex,hosp_yn,death_yn,res_state,current_status"
        src = tmp_path / "cdc.csv"
        src.write_text(header + "\n" + "2020-04-01,50 - 59 Years,Female,No,No,FL,"
                       "Laboratory-confirmed case\n" * 3000)
        out = tmp_path / "specimen"
        assert main(["ingest", "--input", str(src), "--schema", "cdc",
                     "--use-specimen-date", "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "ingest_report.json").read_text())["kept_rows"] == 3000
        assert main(["ingest", "--input", str(src), "--schema", "cdc",
                     "--out", str(tmp_path / "report_date")]) == EXIT_DATA
        # every missing column, in field order
        src.write_text(header.replace("age_group,sex,", "") + "\n")
        assert main(["ingest", "--input", str(src), "--schema", "cdc",
                     "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert capsys.readouterr().err.strip().splitlines()[-2:] == [
            "error: missing required column(s): cdc_report_dt",
            "error: missing required column(s): cdc_report_dt, age_group, sex"]


class TestVocabularyLimits:
    """A store codes at most MAX_DATES distinct event dates and MAX_STATES
    states; ingest takes a file at either limit and refuses one past it."""

    @pytest.mark.parametrize("extra", [0, 1])
    def test_dates(self, tmp_path, capsys, extra):
        first = dt.date(1800, 1, 1)
        days = [first + dt.timedelta(days=i) for i in range(MAX_DATES + extra)]
        src = tmp_path / "fl.csv"
        src.write_text("ChartDate,Age,Gender,Hospitalized,Died\n" + "".join(f"{d.isoformat()},34,Female,NO,NO\n" for d in days))
        out = tmp_path / "ingested"
        code = main(["ingest", "--input", str(src), "--out", str(out)])
        if extra:
            assert code == EXIT_DATA
            assert capsys.readouterr().err.strip().endswith(
                "more than 65,536 distinct event dates: too many to store")
            return
        assert code == EXIT_OK
        cases, _ = load_store(out / "store.npz")
        assert len(cases.count) == MAX_DATES == 65_536
        assert cases.count.tolist() == [1] * MAX_DATES
        assert cases.date.tolist() == list(range(MAX_DATES))
        assert [day_date(d) for d in cases.date_vocab] == days

    @pytest.mark.parametrize("extra", [0, 1])
    def test_states(self, tmp_path, capsys, extra):
        states = [f"S{i:03d}" for i in range(MAX_STATES + extra)]
        src = tmp_path / "cdc.csv"
        src.write_text("cdc_report_dt,pos_spec_dt,age_group,sex,hosp_yn,death_yn,"
                       "res_state,current_status\n" + "".join(
                           f"2020-04-01,,50 - 59 Years,Male,No,No,{s},"
                           "Laboratory-confirmed case\n" for s in [*states, ""]))
        out = tmp_path / "ingested"
        code = main(["ingest", "--input", str(src), "--schema", "cdc", "--out", str(out)])
        if extra:
            assert code == EXIT_DATA
            assert capsys.readouterr().err.strip().endswith(
                "more than 255 distinct states: too many to store")
            return
        assert code == EXIT_OK
        cases, _ = load_store(out / "store.npz")
        assert MAX_STATES == NO_STATE == 255
        assert cases.state.tolist() == [*range(MAX_STATES), NO_STATE]
        assert cases.count.tolist() == [1] * (MAX_STATES + 1)
        assert cases.state_vocab.tolist() == states


class TestSynth:
    # sha256 of each scenario's default outputs, seed 0
    DEFAULT_DIGESTS = {
        "step": {
            "synthetic_florida.csv":
                "c1e79d59edb5c1238d1891517e9842e03fe43b24121989bb4a4131f98a1911b3",
            "truth.json":
                "c87a413d0d1c89b20c25d72e316946e1778c4b7ae18daa0551b7c01390d65d61"},
        "simpson": {
            "synthetic_florida.csv":
                "a788b3add4e54a697bd03fa78dd748f80c434c2fd002f3c9b2f00f8e4391c789",
            "truth.json":
                "2655b9a4b134ee669f621d65b5235bdc75740fb71d11b04f5afbc36eecfeb155"},
    }

    DEFAULT_RATES = {"step": 1000.0, "simpson": 1600.0}

    @pytest.mark.parametrize("scenario", DEFAULT_DIGESTS)
    def test_daily_cases_sets_either_scenario(self, tmp_path, scenario):
        records = {}
        for daily in (None, "5"):
            out = tmp_path / str(daily)
            argv = ["synth", "--scenario", scenario, "--out", str(out)]
            assert main(argv + (["--daily-cases", daily] if daily else [])) == EXIT_OK
            manifest = json.loads((out / "manifest.json").read_text())
            records[daily] = manifest["stats"]["records"]
            # the manifest names the rate the run drew, given or the default
            assert manifest["stats"]["daily_cases"] == (
                float(daily) if daily else self.DEFAULT_RATES[scenario])
        digests = self.DEFAULT_DIGESTS[scenario]
        assert {name: hashlib.sha256((tmp_path / "None" / name).read_bytes()).hexdigest()
                for name in digests} == digests
        assert 0 < records["5"] < records[None] / 100


class TestTestingFile:
    @pytest.mark.parametrize("payload", [
        b"\x1f\x8b\x08\x00\x00\x00\x00\x00\x00\x03",  # truncated gzip
        b"date,positive,totalTestResults\n2020-04-01,\xff\xfe,50\n",  # not UTF-8
        b"date,totalTestResults\n2020-04-01,50\n",  # no positive column
        None,  # no such file
        b"date,positive,totalTestResults\n",  # no row
        b"date,positive,totalTestResults\nsoon,1,2\n2020-04-01,x,3\n",
    ], ids=["truncated_gzip", "non_utf8", "missing_column", "missing_file",
            "header_only", "all_rejected"])
    def test_bad_testing_file_is_data_error(self, pipeline_dirs, tmp_path,
                                            capsys, payload):
        testing = tmp_path / "testing.csv"
        if payload is not None:
            testing.write_bytes(payload)
        out = tmp_path / "out"
        code = main(["analyze", "--store",
                     str(pipeline_dirs["ingested"] / "store.npz"),
                     "--testing-file", str(testing), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not list(out.glob("*.csv"))  # failed before any rate CSV

    def test_rate_csv_from_shuffled_daily_rows(self, pipeline_dirs, tmp_path):
        # two rows a day, in reverse date order: 10 of 100 tests positive
        days = [dt.date(2020, 4, 1) + dt.timedelta(days=d) for d in range(14)]
        rows = [f"{d.isoformat()},{p},{t}" for d in reversed(days)
                for p, t in ((4, 30), (6, 70))]
        testing = tmp_path / "testing.csv"
        testing.write_text("date,positive,totalTestResults\n"
                           + "\n".join(rows) + "\n")
        out = tmp_path / "out"
        assert main(["analyze", "--store",
                     str(pipeline_dirs["ingested"] / "store.npz"),
                     "--testing-file", str(testing), "--daily-testing",
                     "--out", str(out)]) == EXIT_OK
        with open(out / "pos_test_rate.csv", newline="") as fh:
            got = list(csv.DictReader(fh))
        assert [r["date"] for r in got] == [d.isoformat() for d in days]
        assert {r["stratum"] for r in got} == {"florida"}
        assert [r["value"] for r in got] == [""] * 6 + ["0.1"] * 8


    def test_rejected_testing_rows_are_reported(self, pipeline_dirs, tmp_path,
                                                caplog):
        testing = tmp_path / "testing.csv"
        testing.write_text("date,positive,totalTestResults\n"
                           "2020-04-01,1,10\n2020-04-02,2,20\n"
                           "2020-04-31,3,30\n2020-04-03,x,40\n"
                           "2020-04-04,4\n2020-04-05,5,50\n")
        out = tmp_path / "out"
        assert main(["analyze", "--store",
                     str(pipeline_dirs["ingested"] / "store.npz"),
                     "--testing-file", str(testing), "--out", str(out)]) == EXIT_OK
        stats = json.loads((out / "manifest.json").read_text())["stats"]
        rows = stats["testing_rows"]
        assert (rows["total_rows"], rows["kept_rows"]) == (6, 3)
        assert rows["rejected_rows_by_reason"] == {
            "bad_date": 1, "bad_count": 1, "malformed_row": 1}
        warnings = [r.getMessage() for r in caplog.records
                    if r.levelname == "WARNING"]
        assert any("3 of 6 rows" in w for w in warnings), warnings

    def test_rows_are_labelled_with_the_store_schema(self, tmp_path, capsys):
        src = tmp_path / "cdc.csv"
        src.write_text("cdc_report_dt,pos_spec_dt,age_group,sex,hosp_yn,death_yn,"
                       "res_state,current_status\n"
                       + "2020-04-01,,50 - 59 Years,Male,No,No,NY,"
                       "Laboratory-confirmed case\n" * 5)
        testing = tmp_path / "testing.csv"
        testing.write_text("date,positive,totalTestResults\n2020-04-01,1,10\n")
        ingested = tmp_path / "ingested"
        assert main(["ingest", "--input", str(src), "--schema", "cdc",
                     "--out", str(ingested)]) == EXIT_OK
        out = tmp_path / "out"
        assert main(["analyze", "--store", str(ingested / "store.npz"),
                     "--testing-file", str(testing), "--out", str(out)]) == EXIT_OK
        with open(out / "pos_test_rate.csv", newline="") as fh:
            assert {r["stratum"] for r in csv.DictReader(fh)} == {"cdc"}
        # a store whose metadata names no schema needs it only for the label
        nameless = tmp_path / "nameless.npz"
        save_store(nameless, load_store(ingested / "store.npz")[0], meta={})
        assert main(["analyze", "--store", str(nameless),
                     "--out", str(tmp_path / "unlabelled")]) == EXIT_OK
        assert main(["analyze", "--store", str(nameless), "--testing-file",
                     str(testing), "--out", str(tmp_path / "o")]) == EXIT_DATA
        assert capsys.readouterr().err.strip().endswith("re-run ingest")


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

    def test_absent_excluded_state_is_named(self, tmp_path, caplog):
        rows = ["cdc_report_dt,pos_spec_dt,age_group,sex,hosp_yn,death_yn,"
                "res_state,current_status"]
        for state, n in (("NJ", 4), ("CT", 3)):
            rows += [f"2020-04-0{i + 1},2020-04-01,50 - 59 Years,Female,No,No,"
                     f"{state},Laboratory-confirmed case" for i in range(n)]
        src = tmp_path / "cdc.csv"
        src.write_text("\n".join(rows) + "\n")
        ingested = tmp_path / "ingested"
        assert main(["ingest", "--input", str(src), "--schema", "cdc",
                     "--out", str(ingested)]) == EXIT_OK
        out = tmp_path / "out"
        assert main(["analyze", "--store", str(ingested / "store.npz"),
                     "--exclude-states", "NJ,CTT,,xx", "--out", str(out)]) == EXIT_OK
        assert json.loads((out / "demographics.json").read_text())["total_cases"] == 3
        warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
        assert warnings == ["--exclude-states: CTT, XX not in the store"]
        # the manifest lists only the states the exclusion removed
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stats"]["excluded_states"] == ["NJ"]
