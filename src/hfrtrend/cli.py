"""Command-line surface: ingest -> analyze -> bootstrap, plus synthetic
data generation and manifest replay.

Exit codes: 0 success, 1 usage error, 2 data error, 3 insufficient data.

`main` is the one error boundary: a stage raises, and `main` turns any of
`DATA_ERRORS` into one `error:` line and exit 2, while any other exception
is a bug and keeps its traceback. `main` also creates `--out`, times the
stage and writes `manifest.json` from the stats the stage returns.

Building the parser loads only `records` and `schemas`; each `cmd_*`
imports the modules it runs, so no stage pays for another's imports.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime as dt
import inspect
import json
import logging
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .records import AGE_BANDS, DATA_VINTAGE, STUDY_WINDOW, IngestReport
from .schemas import BUILTIN_SCHEMAS, DATA_ERRORS, SchemaError, load_schema

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INSUFFICIENT = 3

# numpy.random's largest Poisson mean, int64 max less ten of its square roots,
# as a literal: np.sqrt at import adds about 0.13 MB to every stage's peak RSS.
_POISSON_LAM_MAX = 9.223372006484771e18
TABLE_BANDS = ("aggregate", "30-39", "40-49", "50-59", "60-69", "70-79", "80+")
DEFAULT_DATE_PAIRS = (
    (dt.date(2020, 4, 15), dt.date(2020, 7, 15)),
    (dt.date(2020, 4, 1), dt.date(2020, 11, 1)),
)


def _parse_date(text: str) -> dt.date:
    return dt.date.fromisoformat(text)


def _parse_window(text: str) -> tuple[dt.date, dt.date]:
    try:
        start_s, end_s = text.split("..")
        start, end = _parse_date(start_s), _parse_date(end_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"window must be START..END in ISO format: {text}"
        ) from exc
    if start > end:
        raise argparse.ArgumentTypeError(f"window start after end: {text}")
    return start, end


def _at_least(minimum, kind=int, maximum=np.inf):
    """argparse type: a `kind` number from `minimum` to `maximum`."""

    def parse(text: str):
        value = kind(text)
        if not minimum <= value <= maximum:
            raise argparse.ArgumentTypeError(
                f"must be from {minimum} to {maximum:.17g}: {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _write_json(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest_args(args: argparse.Namespace) -> dict:
    """The parsed options as `report` replays them: dates as ISO text,
    the window as START..END."""
    recorded = {}
    for key, value in vars(args).items():
        if key in ("func", "subcommand"):
            continue
        if isinstance(value, tuple):
            value = "..".join(d.isoformat() for d in value)
        elif isinstance(value, dt.date):
            value = value.isoformat()
        recorded[key] = value
    return recorded


def _sig2(value: float) -> str:
    """Two-significant-digit formatting used in the report tables."""
    if value == 0:
        return "0"
    return f"{value:.2g}"


def _interval_text(median: float, lower: float, upper: float) -> str:
    return f"{_sig2(median)} ({_sig2(lower)}, {_sig2(upper)})"


# ---------------------------------------------------------------- ingest


def cmd_ingest(args: argparse.Namespace) -> tuple[int, dict]:
    from . import ingest as ingest_mod, store as store_mod

    out_dir = Path(args.out)
    if args.schema_config is not None:
        schema = load_schema(args.schema_config, base=args.schema)
    else:
        schema = BUILTIN_SCHEMAS[args.schema]

    report = IngestReport()
    with (open(out_dir / "quarantine.csv", "w", newline="", encoding="utf-8")
          if args.quarantine else contextlib.nullcontext()) as quarantine_fh:
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

    _write_json(out_dir / "ingest_report.json", report.as_dict())
    if report.kept_rows == 0:
        log.warning("no rows kept from %s", args.input)
    print(f"ingested {report.kept_rows}/{report.total_rows} rows -> {out_dir}")
    return EXIT_OK, {"total_rows": report.total_rows, "kept_rows": report.kept_rows}


# --------------------------------------------------------------- analyze


def _save_cohort_npz(path, table) -> None:
    """The cohort table with its HFR support floor, so bootstrap fits the
    series that the hfr_*.csv files hold."""
    from .store import write_npz

    write_npz(
        path,
        start=np.str_(table.start.isoformat()),
        end=np.str_(table.end.isoformat()),
        array=table.array,
        min_deaths=np.int64(table.min_deaths),
    )


def _load_cohort_npz(path):
    from .cohort import CohortTable
    from .store import open_npz

    with open_npz(path, "analyze") as npz:
        return CohortTable(
            start=dt.date.fromisoformat(str(npz["start"])),
            end=dt.date.fromisoformat(str(npz["end"])),
            array=npz["array"],
            min_deaths=int(npz["min_deaths"]),
        )


def cmd_analyze(args: argparse.Namespace) -> tuple[int, dict]:
    from . import cohort as cohort_mod, signals as signals_mod, store as store_mod

    if (args.vintage - dt.date.min).days < args.maturity_days:  # before the store is read
        print("hfrtrend analyze: error: --vintage less --maturity-days is "
              "before 0001-01-01", file=sys.stderr)
        return EXIT_USAGE, None
    out_dir = Path(args.out)
    cases, meta = store_mod.load_store(args.store)

    stats: dict = {}
    testing = None
    if args.testing_file is not None:
        from . import ingest as ingest_mod
        if "schema" not in meta:  # the label of the testing rows
            raise SchemaError(f"{args.store} names no schema; re-run ingest")
        report = IngestReport()
        testing = ingest_mod.load_testing_series(
            args.testing_file, cumulative=not args.daily_testing, report=report
        )
        stats["testing_rows"] = report.as_dict()
        if rejected := sum(report.rejected_rows_by_reason.values()):
            log.warning("%d of %d rows of %s rejected: %s", rejected,
                        report.total_rows, args.testing_file,
                        dict(report.rejected_rows_by_reason))

    excluded_states: list[str] = []
    if args.auto_exclude:
        flagged = cohort_mod.detect_reporting_artifacts(cases)
        excluded_states = [state for state, _ in flagged]
        _write_json(out_dir / "excluded_states.json", dict(flagged))
    elif args.exclude_states:
        named = [s.strip().upper() for s in args.exclude_states.split(",") if s.strip()]
        vocab = set(cases.state_vocab.tolist())
        excluded_states = [s for s in dict.fromkeys(named) if s in vocab]
        if absent := sorted(set(named) - vocab):
            log.warning("--exclude-states: %s not in the store", ", ".join(absent))

    table = cohort_mod.build_cohort_table(
        cases, *args.window,
        last=args.vintage - dt.timedelta(days=args.maturity_days),
        excluded_states=excluded_states,
    )
    table.min_deaths = args.min_deaths
    _save_cohort_npz(out_dir / "cohort_table.npz", table)
    table.write_long_csv(out_dir / "cohort_long.csv")

    demo = cohort_mod.summarize_demographics(table)
    with open(out_dir / "demographics.txt", "w", encoding="utf-8") as fh:
        fh.write(cohort_mod.demographics_text(demo) + "\n")
    _write_json(out_dir / "demographics.json", demo)

    for name in ("aggregate", *AGE_BANDS):
        stratum = cohort_mod.StratumKey(name, "all")
        signals_mod.cfr_series(table, stratum).write_long_csv(
            out_dir / f"cfr_{name}.csv", stratum=name
        )
        signals_mod.hfr_series(table, stratum).write_long_csv(
            out_dir / f"hfr_{name}.csv", stratum=name
        )

    for signal in ("cases", "hosp", "deaths"):
        signals_mod.write_band_csv(out_dir / f"age_shares_{signal}.csv",
                                   signals_mod.age_distribution_shares(table, signal))
        signals_mod.write_band_csv(out_dir / f"gender_fraction_{signal}.csv",
                                   signals_mod.gender_fraction_series(table, signal))

    if testing is not None:
        signals_mod.positive_test_rate(*testing).write_long_csv(
            out_dir / "pos_test_rate.csv", stratum=meta["schema"]
        )
    else:
        log.info("no testing file supplied; skipping positive test rate")

    print(f"analyzed {demo['total_cases']} cohort records -> {out_dir}")
    return EXIT_OK, {**stats, "cohort_records": demo["total_cases"],
                     "excluded_states": excluded_states}


# -------------------------------------------------------------- bootstrap


def cmd_bootstrap(args: argparse.Namespace) -> tuple[int, dict | None]:
    from . import signals as signals_mod, trend as trend_mod
    from .cohort import StratumKey

    if args.dates is not None:
        try:
            d1, d2 = (_parse_date(d) for d in args.dates.split(","))
        except ValueError:
            print("error: --dates must be D1,D2 in ISO format", file=sys.stderr)
            return EXIT_USAGE, None
        date_pairs = [(d1, d2)]
    else:
        date_pairs = list(DEFAULT_DATE_PAIRS)

    out_dir = Path(args.out)
    table = _load_cohort_npz(Path(args.analyzed) / "cohort_table.npz")

    config = trend_mod.BootstrapConfig(replicates=args.replicates, seed=args.seed)
    # One fit and one replicate set per stratum; every pair is read off it.
    tables = {pair: [] for pair in date_pairs}
    dash_cells = []  # why each "-" row is one, for the manifest
    for name in TABLE_BANDS:
        series = signals_mod.hfr_series(table, StratumKey(name, args.gender))
        try:
            reps = trend_mod.build_replicates(
                trend_mod.fit_smoothing_spline(series), config,
                trend_mod.day_points(series, (), date_pairs))
        except trend_mod.InsufficientDataError as exc:
            reps = exc  # a stratum that cannot be fitted fails every pair's cell
        for (d_old, d_new), rows in tables.items():
            try:
                if isinstance(reps, Exception):
                    raise reps
                result = trend_mod.read_estimates(reps, series, [d_old, d_new],
                                                  [(d_old, d_new)])
            except (trend_mod.InsufficientDataError,
                    trend_mod.OutOfRangeError) as exc:
                log.info("band %s, %s to %s: %s", name, d_old, d_new, exc)
                rows.append([name, "-", "-", "-"])
                dash_cells.append({"stratum": name, "d_old": d_old.isoformat(),
                                   "d_new": d_new.isoformat(), "reason": str(exc)})
                continue
            rows.append([name, *(_interval_text(c.median, c.lower, c.upper)
                                 for c in (*result.levels, result.drops[0]))])
    for (d_old, d_new), rows in tables.items():
        _write_drop_table(out_dir, d_old, d_new, rows)
    stats = {
        "date_pairs": [[a.isoformat(), b.isoformat()] for a, b in date_pairs],
        "dash_cells": dash_cells,
    }
    if len(dash_cells) == len(TABLE_BANDS) * len(date_pairs):
        print("error: no stratum had sufficient data", file=sys.stderr)
        return EXIT_INSUFFICIENT, stats
    print(f"bootstrap reports -> {out_dir}")
    return EXIT_OK, stats


def _write_drop_table(out_dir: Path, d_old: dt.date, d_new: dt.date,
                      rows: list[list[str]]) -> None:
    from .store import write_csv

    tag = f"{d_old.strftime('%m-%d')}_to_{d_new.strftime('%m-%d')}"
    header = [
        "age_group",
        d_old.isoformat(),
        d_new.isoformat(),
        f"{d_old.strftime('%m-%d')} to {d_new.strftime('%m-%d')}",
    ]
    write_csv(out_dir / f"hfr_drop_{tag}.csv", header, rows)
    widths = [
        max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))
    ]
    with open(out_dir / f"hfr_drop_{tag}.txt", "w", encoding="utf-8") as fh:
        for row in [header] + rows:
            fh.write("  ".join(str(c).ljust(w) for c, w in zip(row, widths)).rstrip())
            fh.write("\n")


# ------------------------------------------------------------------ synth


def cmd_synth(args: argparse.Namespace) -> tuple[int, dict]:
    from . import synth as synth_mod

    out_dir = Path(args.out)
    scenario = (synth_mod.simpson_scenario if args.scenario == "simpson"
                else synth_mod.step_down_scenario)
    daily_cases = (inspect.signature(scenario).parameters["daily_cases"].default
                   if args.daily_cases is None else args.daily_cases)
    config = scenario(daily_cases, seed=args.seed)
    codes = synth_mod.generate_cases(config)
    synth_mod.write_cases_csv(codes, config, out_dir / "synthetic_florida.csv")
    truth = {"start": config.start.isoformat(), "bands": list(config.bands),
             **{name: {b: getattr(config, name)[b].tolist() for b in config.bands}
                for name in ("hfr", "p_hosp", "case_intensity")},
             "aggregate_hfr": config.aggregate_hfr().tolist()}
    with open(out_dir / "truth.json", "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True)
        fh.write("\n")
    print(f"generated {len(codes)} synthetic records -> {out_dir}")
    return EXIT_OK, {"records": len(codes), "daily_cases": daily_cases}


# ----------------------------------------------------------------- report


def cmd_report(args: argparse.Namespace) -> tuple[int, None]:
    """Replay a recorded stage run from its manifest (reproducibility
    check). The replayed stage writes its own manifest."""
    with open(args.manifest, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    stages = ("ingest", "analyze", "bootstrap", "synth")
    recorded = manifest.get("args", {}) if isinstance(manifest, dict) else None
    if not isinstance(recorded, dict) or manifest.get("subcommand") not in stages:
        raise SchemaError(f"{args.manifest} is not the manifest of a stage "
                          f"run ({', '.join(stages)})")
    argv = [manifest["subcommand"]]
    for key, value in recorded.items():
        if value is None or value is False:
            continue
        flag = "--" + key.replace("_", "-")
        if value is True:
            argv.append(flag)
        else:
            argv.extend([flag, str(value)])
    return main(argv), None


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
                          help="JSON object overriding the built-in schema")
    p_ingest.add_argument("--use-specimen-date", action="store_true",
                          help="sensitivity switch: alternate event-date column")
    p_ingest.add_argument("--quarantine", action="store_true",
                          help="spill rejected rows to quarantine.csv")
    p_ingest.add_argument("--out", required=True)
    p_ingest.set_defaults(func=cmd_ingest)

    p_analyze = sub.add_parser("analyze", help="cohort, rates, demographics")
    p_analyze.add_argument("--store", required=True)
    p_analyze.add_argument("--window", type=_parse_window,
                           default=STUDY_WINDOW,
                           metavar="START..END")
    p_analyze.add_argument("--maturity-days", type=_at_least(0), default=30)
    p_analyze.add_argument("--vintage", type=_parse_date,
                           default=DATA_VINTAGE)
    exclude = p_analyze.add_mutually_exclusive_group()
    exclude.add_argument("--exclude-states", default=None,
                         help="comma-separated state codes to drop")
    exclude.add_argument("--auto-exclude", action="store_true",
                         help="drop states flagged by the dump detector")
    p_analyze.add_argument("--min-deaths", type=_at_least(0), default=2)
    p_analyze.add_argument("--testing-file", default=None)
    p_analyze.add_argument("--daily-testing", action="store_true",
                           help="testing file has daily, not cumulative, counts")
    p_analyze.add_argument("--out", required=True)
    p_analyze.set_defaults(func=cmd_analyze)

    p_boot = sub.add_parser("bootstrap", help="levels and drops with CIs")
    p_boot.add_argument("--analyzed", required=True,
                        help="directory written by analyze")
    p_boot.add_argument("--dates", default=None, metavar="D1,D2")
    p_boot.add_argument("--seed", type=_at_least(0), default=0)
    p_boot.add_argument("--replicates", type=_at_least(1), default=1000)
    p_boot.add_argument("--gender", choices=("all", "female", "male"),
                        default="all")
    p_boot.add_argument("--out", required=True)
    p_boot.set_defaults(func=cmd_bootstrap)

    p_synth = sub.add_parser("synth", help="generate synthetic line lists")
    p_synth.add_argument("--scenario", choices=("step", "simpson"),
                         default="step")
    p_synth.add_argument("--seed", type=_at_least(0), default=0)
    p_synth.add_argument("--daily-cases",
                         type=_at_least(0.0, float, _POISSON_LAM_MAX),
                         default=None, help="default: the scenario's own")
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
    t0 = time.monotonic()
    try:
        if args.subcommand != "report":  # the replayed stage makes its own
            Path(args.out).mkdir(parents=True, exist_ok=True)
        code, stats = args.func(args)
        if stats is not None:
            _write_json(Path(args.out) / "manifest.json", {
                "tool_version": __version__,
                "subcommand": args.subcommand,
                "args": _manifest_args(args),
                "stats": stats,
                "wall_clock_s": round(time.monotonic() - t0, 3),
            })
    except DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
