#!/usr/bin/env python3
"""Run the full pipeline on a synthetic step-down dataset and compare the
recovered HFR drop against the generating truth.

Exercises the same path as real data: `hfrtrend synth` writes the cases
in the Florida file layout, `hfrtrend ingest` parses them into the
columnar store, and the loaded columns are cohorted, smoothed, fitted
and bootstrapped.

Usage:
    python3 scripts/run_synthetic_study.py --out /tmp/synth_study \\
        --daily-cases 1000 --seed 0 --replicates 1000
"""

import argparse
import datetime as dt
import json
import sys
from pathlib import Path

import hfrtrend as H
from hfrtrend.cli import main as cli_main
from hfrtrend.store import load_store


def run(argv) -> None:
    code = cli_main(argv)
    if code != 0:
        sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--daily-cases", type=float, default=1000.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--replicates", type=int, default=1000)
    parser.add_argument("--date-old", type=dt.date.fromisoformat,
                        default=dt.date(2020, 5, 1))
    parser.add_argument("--date-new", type=dt.date.fromisoformat,
                        default=dt.date(2020, 9, 15))
    args = parser.parse_args()

    out = Path(args.out)
    run(["synth", "--scenario", "step", "--seed", str(args.seed),
         "--daily-cases", str(args.daily_cases), "--out", str(out)])
    ingested = out / "ingested"
    run(["ingest", "--input", str(out / "synthetic_florida.csv"),
         "--out", str(ingested)])

    config = H.step_down_scenario(seed=args.seed, daily_cases=args.daily_cases)
    cases, _meta = load_store(ingested / "store.npz")
    table = H.build_cohort_table(cases, config.start, config.end)
    series = H.hfr_series(table, H.StratumKey("50-59", "all"))

    curve = config.hfr["50-59"]
    i_old = (args.date_old - config.start).days
    i_new = (args.date_new - config.start).days
    true_drop = curve[i_new] / curve[i_old] - 1

    drop = H.estimate_drop(
        series,
        H.BootstrapConfig(replicates=args.replicates, seed=args.seed),
        args.date_old,
        args.date_new,
    )
    summary = {
        "records": int(cases.count.sum()),
        "date_old": args.date_old.isoformat(),
        "date_new": args.date_new.isoformat(),
        "true_drop": round(float(true_drop), 4),
        "estimated_drop": round(drop.median, 4),
        "ci_lower": round(drop.lower, 4),
        "ci_upper": round(drop.upper, 4),
        "ci_covers_truth": bool(drop.lower <= true_drop <= drop.upper),
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    for key, value in summary.items():
        print(f"{key}: {value}")


if __name__ == "__main__":
    main()
