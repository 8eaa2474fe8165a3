"""Command-line surface: ingest -> analyze -> bootstrap, plus synthetic
data generation and manifest replay.

Exit codes: 0 success, 1 usage error, 2 data error, 3 insufficient data.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import datetime as dt
import gzip
import json
import logging
import sys
import time
import zlib
from importlib.metadata import PackageNotFoundError, version as pkg_version
from pathlib import Path

import numpy as np

from . import cohort as cohort_mod
from . import ingest as ingest_mod
from . import signals as signals_mod
from . import store as store_mod
from . import synth as synth_mod
from . import trend as trend_mod
from .records import AGE_BANDS, IngestReport
from .schemas import BUILTIN_SCHEMAS, SchemaError, load_schema

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INSUFFICIENT = 3

# A truncated or corrupt gzip stream, or bytes that are not UTF-8.
DECODE_ERRORS = (EOFError, gzip.BadGzipFile, zlib.error, UnicodeDecodeError)

TABLE_BANDS = ("aggregate", "30-39", "40-49", "50-59", "60-69", "70-79", "80+")
DEFAULT_DATE_PAIRS = (
    (dt.date(2020, 4, 15), dt.date(2020, 7, 15)),
    (dt.date(2020, 4, 1), dt.date(2020, 11, 1)),
)


def _tool_version() -> str:
    try:
        return pkg_version("hfrtrend")
    except PackageNotFoundError:  # pragma: no cover
        return "unknown"


def _parse_date(text: str) -> dt.date:
    return dt.date.fromisoformat(text)


def _parse_window(text: str) -> tuple[dt.date, dt.date]:
    try:
        start_s, end_s = text.split("..")
        return _parse_date(start_s), _parse_date(end_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"window must be START..END in ISO format: {text}"
        ) from exc


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_manifest(out_dir: Path, subcommand: str, args: dict, stats: dict,
                    wall_clock_s: float) -> None:
    _write_json(out_dir / "manifest.json", {
        "tool_version": _tool_version(),
        "subcommand": subcommand,
        "args": args,
        "stats": stats,
        "wall_clock_s": round(wall_clock_s, 3),
    })


def _sig2(value: float) -> str:
    """Two-significant-digit formatting used in the report tables."""
    if value == 0:
        return "0"
    return f"{value:.2g}"


def _interval_text(median: float, lower: float, upper: float) -> str:
    return f"{_sig2(median)} ({_sig2(lower)}, {_sig2(upper)})"


# ---------------------------------------------------------------- ingest


def cmd_ingest(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.schema_config:
        schema = load_schema(args.schema_config, base=args.schema)
    else:
        schema = BUILTIN_SCHEMAS[args.schema]

    report = IngestReport()
    quarantine_fh = None
    if args.quarantine:
        quarantine_fh = open(out_dir / "quarantine.csv", "w", newline="",
                             encoding="utf-8")
    try:
        cases = ingest_mod.parse_columns(
            args.input,
            schema,
            report,
            use_alt_event_date=args.use_specimen_date,
            quarantine=quarantine_fh,
        )
        store_mod.save_store(
            out_dir / "store.npz",
            cases,
            meta={"schema": schema.name, "source": str(args.input)},
        )
    except FileNotFoundError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
        return EXIT_DATA
    except DECODE_ERRORS as exc:
        print(f"error: cannot decode input {args.input}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    finally:
        if quarantine_fh is not None:
            quarantine_fh.close()

    _write_json(out_dir / "ingest_report.json", report.as_dict())
    if report.kept_rows == 0:
        log.warning("no rows kept from %s", args.input)
    _write_manifest(
        out_dir,
        "ingest",
        {
            "input": str(args.input),
            "schema": args.schema,
            "schema_config": args.schema_config,
            "use_specimen_date": args.use_specimen_date,
            "quarantine": args.quarantine,
            "out": str(args.out),
        },
        {"total_rows": report.total_rows, "kept_rows": report.kept_rows},
        time.monotonic() - t0,
    )
    print(f"ingested {report.kept_rows}/{report.total_rows} rows -> {out_dir}")
    return EXIT_OK


# --------------------------------------------------------------- analyze


def _save_cohort_npz(path, table: cohort_mod.CohortTable) -> None:
    np.savez_compressed(
        path,
        start=np.str_(table.start.isoformat()),
        end=np.str_(table.end.isoformat()),
        array=table.array,
    )


def _load_cohort_npz(path) -> cohort_mod.CohortTable:
    with np.load(path, allow_pickle=False) as npz:
        return cohort_mod.CohortTable(
            start=dt.date.fromisoformat(str(npz["start"])),
            end=dt.date.fromisoformat(str(npz["end"])),
            array=npz["array"],
        )


def _strata_for_tables(gender: str = "all"):
    yield "aggregate", cohort_mod.StratumKey("aggregate", gender)
    for band in AGE_BANDS:
        yield band, cohort_mod.StratumKey(band, gender)


def cmd_analyze(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    store_path = Path(args.store)
    if not store_path.exists():
        print(f"error: store not found: {store_path}", file=sys.stderr)
        return EXIT_DATA
    try:
        cases, _meta = store_mod.load_store(store_path)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA

    tests = None
    if args.testing_file:
        try:
            tests = ingest_mod.load_testing_series(
                args.testing_file, region=args.region,
                cumulative=not args.daily_testing,
            )
        except FileNotFoundError as exc:
            print(f"error: cannot read testing file: {exc}", file=sys.stderr)
            return EXIT_DATA
        except DECODE_ERRORS as exc:
            print(f"error: cannot decode testing file {args.testing_file}: {exc}",
                  file=sys.stderr)
            return EXIT_DATA

    excluded_states: list[str] = []
    if args.auto_exclude:
        flagged = ingest_mod.detect_reporting_artifacts(cases)
        excluded_states = [state for state, _ in flagged]
        _write_json(out_dir / "excluded_states.json", dict(flagged))
    elif args.exclude_states:
        excluded_states = [s.strip().upper() for s in args.exclude_states.split(",")]

    window = args.window
    cohort = cases.select(ingest_mod.cohort_mask(
        cases, window=window, maturity_days=args.maturity_days,
        data_vintage=args.vintage, excluded_states=excluded_states,
    ))
    table = cohort_mod.build_cohort_table(cohort, window[0], window[1])
    _save_cohort_npz(out_dir / "cohort_table.npz", table)
    table.write_long_csv(out_dir / "cohort_long.csv")

    demo = cohort_mod.summarize_demographics(cohort)
    with open(out_dir / "demographics.txt", "w", encoding="utf-8") as fh:
        fh.write(demo.as_text() + "\n")
    _write_json(out_dir / "demographics.json", {
        **dataclasses.asdict(demo),
        "hospitalized_no": demo.hospitalized_no,
        "died_no": demo.died_no,
    })

    for name, stratum in _strata_for_tables():
        signals_mod.cfr_series(table, stratum).write_long_csv(
            out_dir / f"cfr_{name}.csv", stratum=name
        )
        signals_mod.hfr_series(table, stratum, min_deaths=args.min_deaths).write_long_csv(
            out_dir / f"hfr_{name}.csv", stratum=name
        )

    for signal in ("cases", "hosp", "deaths"):
        shares = cohort_mod.age_distribution_shares(table, signal)
        _write_band_series_csv(out_dir / f"age_shares_{signal}.csv", shares)
        fractions = cohort_mod.gender_fraction_series(table, signal)
        _write_band_series_csv(out_dir / f"gender_fraction_{signal}.csv", fractions)

    if tests is not None:
        signals_mod.positive_test_rate(tests).write_long_csv(
            out_dir / "pos_test_rate.csv", stratum=args.region
        )
    else:
        log.info("no testing file supplied; skipping positive test rate")

    _write_manifest(
        out_dir,
        "analyze",
        {
            "store": str(args.store),
            "window": f"{window[0].isoformat()}..{window[1].isoformat()}",
            "maturity_days": args.maturity_days,
            "vintage": args.vintage.isoformat(),
            "exclude_states": args.exclude_states,
            "auto_exclude": args.auto_exclude,
            "min_deaths": args.min_deaths,
            "testing_file": args.testing_file and str(args.testing_file),
            "daily_testing": args.daily_testing,
            "region": args.region,
            "out": str(args.out),
        },
        {"cohort_records": len(cohort), "excluded_states": excluded_states},
        time.monotonic() - t0,
    )
    print(f"analyzed {len(cohort)} cohort records -> {out_dir}")
    return EXIT_OK


def _write_band_series_csv(path, band_series: dict) -> None:
    bands = list(band_series)
    first = band_series[bands[0]]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["date", *bands])
        for i, date in enumerate(first.dates):
            row = [date.isoformat()]
            for band in bands:
                ts = band_series[band]
                row.append("" if ts.gaps[i] else f"{ts.values[i]:.10g}")
            writer.writerow(row)


# -------------------------------------------------------------- bootstrap


def cmd_bootstrap(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    table_path = Path(args.analyzed) / "cohort_table.npz"
    if not table_path.exists():
        print(f"error: analyzed cohort table not found: {table_path}",
              file=sys.stderr)
        return EXIT_DATA
    try:
        table = _load_cohort_npz(table_path)
    except KeyError:
        print(f"error: {table_path} is not a cohort table of this version; "
              "re-run analyze", file=sys.stderr)
        return EXIT_DATA

    if args.dates:
        try:
            d1, d2 = (_parse_date(d) for d in args.dates.split(","))
        except ValueError:
            print("error: --dates must be D1,D2 in ISO format", file=sys.stderr)
            return EXIT_USAGE
        date_pairs = [(d1, d2)]
    else:
        date_pairs = list(DEFAULT_DATE_PAIRS)

    config = trend_mod.BootstrapConfig(
        replicates=args.replicates, block_length=args.blocks, seed=args.seed
    )
    # One fit and one replicate set per stratum; every pair is read off it.
    tables = {pair: [] for pair in date_pairs}
    any_rows = False
    for name in TABLE_BANDS:
        series = signals_mod.hfr_series(
            table, cohort_mod.StratumKey(name, args.gender),
            min_deaths=args.min_deaths,
        )
        try:
            reps = trend_mod.build_replicates(
                trend_mod.fit_smoothing_spline(series), config
            )
        except trend_mod.InsufficientDataError as exc:
            log.info("band %s: %s", name, exc)
            for rows in tables.values():
                rows.append([name, "-", "-", "-"])
            continue
        for (d_old, d_new), rows in tables.items():
            try:
                result = trend_mod.read_estimates(
                    reps, series, [d_old, d_new], [(d_old, d_new)], config.level
                )
            except (trend_mod.InsufficientDataError,
                    trend_mod.OutOfRangeError) as exc:
                log.info("band %s, %s to %s: %s", name, d_old, d_new, exc)
                rows.append([name, "-", "-", "-"])
                continue
            old_lv, new_lv = result.levels
            drop = result.drops[0]
            rows.append([
                name,
                _interval_text(old_lv.median, old_lv.lower, old_lv.upper),
                _interval_text(new_lv.median, new_lv.lower, new_lv.upper),
                _interval_text(drop.median, drop.lower, drop.upper),
            ])
            any_rows = True
    for (d_old, d_new), rows in tables.items():
        _write_drop_table(out_dir, d_old, d_new, rows)
    if not any_rows:
        print("error: no stratum had sufficient data", file=sys.stderr)
        return EXIT_INSUFFICIENT

    _write_manifest(
        out_dir,
        "bootstrap",
        {
            "analyzed": str(args.analyzed),
            "dates": args.dates,
            "seed": args.seed,
            "replicates": args.replicates,
            "blocks": args.blocks,
            "min_deaths": args.min_deaths,
            "gender": args.gender,
            "out": str(args.out),
        },
        {"date_pairs": [[a.isoformat(), b.isoformat()] for a, b in date_pairs]},
        time.monotonic() - t0,
    )
    print(f"bootstrap reports -> {out_dir}")
    return EXIT_OK


def _write_drop_table(out_dir: Path, d_old: dt.date, d_new: dt.date,
                      rows: list[list[str]]) -> None:
    tag = f"{d_old.strftime('%m-%d')}_to_{d_new.strftime('%m-%d')}"
    header = [
        "age_group",
        d_old.isoformat(),
        d_new.isoformat(),
        f"{d_old.strftime('%m-%d')} to {d_new.strftime('%m-%d')}",
    ]
    with open(out_dir / f"hfr_drop_{tag}.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    widths = [
        max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))
    ]
    with open(out_dir / f"hfr_drop_{tag}.txt", "w", encoding="utf-8") as fh:
        for row in [header] + rows:
            fh.write("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
            fh.write("\n")


# ------------------------------------------------------------------ synth


def cmd_synth(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.scenario == "simpson":
        config = synth_mod.simpson_scenario(seed=args.seed)
    else:
        config = synth_mod.step_down_scenario(
            seed=args.seed, daily_cases=args.daily_cases
        )
    records, truth = synth_mod.generate_line_records(config)
    synth_mod.write_florida_csv(records, out_dir / "synthetic_florida.csv")
    with open(out_dir / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(
            {
                "start": truth.start.isoformat(),
                "bands": list(truth.bands),
                "hfr": {b: truth.hfr[b].tolist() for b in truth.bands},
                "p_hosp": {b: truth.p_hosp[b].tolist() for b in truth.bands},
                "case_intensity": {
                    b: truth.case_intensity[b].tolist() for b in truth.bands
                },
                "aggregate_hfr": truth.aggregate_hfr().tolist(),
            },
            fh, sort_keys=True,
        )
        fh.write("\n")
    _write_manifest(
        out_dir,
        "synth",
        {
            "scenario": args.scenario,
            "seed": args.seed,
            "daily_cases": args.daily_cases,
            "out": str(args.out),
        },
        {"records": len(records)},
        time.monotonic() - t0,
    )
    print(f"generated {len(records)} synthetic records -> {out_dir}")
    return EXIT_OK


# ----------------------------------------------------------------- report


def cmd_report(args: argparse.Namespace) -> int:
    """Replay a recorded run from its manifest (reproducibility check)."""
    try:
        with open(args.manifest, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read manifest: {exc}", file=sys.stderr)
        return EXIT_DATA
    sub = manifest.get("subcommand")
    recorded = manifest.get("args", {})
    argv = [sub]
    for key, value in recorded.items():
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return main(argv)


# ------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hfrtrend",
        description="Cohort-based fatality-rate trends from line-level "
                    "surveillance data",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_ingest = sub.add_parser("ingest", help="parse a line list into the store")
    p_ingest.add_argument("--input", required=True)
    p_ingest.add_argument("--schema", choices=sorted(BUILTIN_SCHEMAS),
                          default="florida")
    p_ingest.add_argument("--schema-config", default=None,
                          help="YAML overriding the built-in schema")
    p_ingest.add_argument("--use-specimen-date", action="store_true",
                          help="sensitivity switch: alternate event-date column")
    p_ingest.add_argument("--quarantine", action="store_true",
                          help="spill rejected rows to quarantine.csv")
    p_ingest.add_argument("--out", required=True)
    p_ingest.set_defaults(func=cmd_ingest)

    p_analyze = sub.add_parser("analyze", help="cohort, rates, demographics")
    p_analyze.add_argument("--store", required=True)
    p_analyze.add_argument("--window", type=_parse_window,
                           default=ingest_mod.STUDY_WINDOW,
                           metavar="START..END")
    p_analyze.add_argument("--maturity-days", type=int, default=30)
    p_analyze.add_argument("--vintage", type=_parse_date,
                           default=ingest_mod.DATA_VINTAGE)
    p_analyze.add_argument("--exclude-states", default=None,
                           help="comma-separated state codes to drop")
    p_analyze.add_argument("--auto-exclude", action="store_true",
                           help="drop states flagged by the dump detector")
    p_analyze.add_argument("--min-deaths", type=int, default=2)
    p_analyze.add_argument("--testing-file", default=None)
    p_analyze.add_argument("--daily-testing", action="store_true",
                           help="testing file has daily, not cumulative, counts")
    p_analyze.add_argument("--region", default="florida")
    p_analyze.add_argument("--out", required=True)
    p_analyze.set_defaults(func=cmd_analyze)

    p_boot = sub.add_parser("bootstrap", help="levels and drops with CIs")
    p_boot.add_argument("--analyzed", required=True,
                        help="directory written by analyze")
    p_boot.add_argument("--dates", default=None, metavar="D1,D2")
    p_boot.add_argument("--seed", type=int, default=0)
    p_boot.add_argument("--replicates", type=int, default=1000)
    p_boot.add_argument("--blocks", type=int, default=7)
    p_boot.add_argument("--min-deaths", type=int, default=2)
    p_boot.add_argument("--gender", choices=("all", "female", "male"),
                        default="all")
    p_boot.add_argument("--out", required=True)
    p_boot.set_defaults(func=cmd_bootstrap)

    p_synth = sub.add_parser("synth", help="generate synthetic line lists")
    p_synth.add_argument("--scenario", choices=("step", "simpson"),
                         default="step")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--daily-cases", type=float, default=1000.0)
    p_synth.add_argument("--out", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_report = sub.add_parser("report", help="replay a run from its manifest")
    p_report.add_argument("--manifest", required=True)
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except trend_mod.InsufficientDataError as exc:
        print(f"error: insufficient data: {exc}", file=sys.stderr)
        return EXIT_INSUFFICIENT
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
