"""Input generator for the `cdc_states` benchmark workload.

`hfrtrend synth` writes only the Florida layout, so this draws records
over all nine age bands (a realistic age mix, per-band hospitalization
rates, every band's HFR stepping down) with
`hfrtrend.synth.generate_line_records` and writes them in the CDC
case-surveillance layout: gzipped, ``YYYY/MM/DD`` dates, band labels,
Yes/No/Unknown/Missing outcomes, residence states of which two report in
bulk dumps, plus injected "Probable Case" and malformed rows. It writes
``cdc_cases.csv.gz``, ``truth.json`` (per-band generating curves) and
``expected.json`` (what a correct ingest keeps and rejects, and which
states `--auto-exclude` must flag).

Usage:
    PYTHONPATH=src python3 perfbench/gen.py --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import gzip
import json
import sys
from pathlib import Path

import numpy as np

from hfrtrend import synth

ROWS = 100_000  # expected number of generated records
START = dt.date(2020, 3, 20)
END = dt.date(2020, 11, 1)

# Share of cases, probability of hospitalization and HFR before the step,
# per age band; shaped after the 2020 US line lists.
CASE_MIX = {"0-9": 0.04, "10-19": 0.09, "20-29": 0.19, "30-39": 0.16,
            "40-49": 0.15, "50-59": 0.15, "60-69": 0.10, "70-79": 0.06,
            "80+": 0.06}
P_HOSP = {"0-9": 0.01, "10-19": 0.01, "20-29": 0.02, "30-39": 0.04,
          "40-49": 0.07, "50-59": 0.11, "60-69": 0.19, "70-79": 0.30,
          "80+": 0.40}
HFR_OLD = {"0-9": 0.01, "10-19": 0.01, "20-29": 0.03, "30-39": 0.06,
           "40-49": 0.09, "50-59": 0.14, "60-69": 0.23, "70-79": 0.33,
           "80+": 0.45}
HFR_RATIO = 0.6  # every band's HFR steps down by 40% ...
STEP_MIDPOINT = dt.date(2020, 6, 10)  # ... centred between 04-15 and 07-15
STEP_WIDTH_DAYS = 6.0

STATES = ("CA", "TX", "FL", "NY", "GA", "AZ", "NC", "NJ", "IL", "CT")
STATE_WEIGHTS = (0.18, 0.16, 0.14, 0.11, 0.09, 0.08, 0.07, 0.06, 0.06, 0.05)
DUMP_STATES = ("NJ", "CT")
DUMP_DATES = (dt.date(2020, 5, 15), dt.date(2020, 9, 15))
DUMP_SHARE = 0.85  # of a dump state's cases held back to the next dump

PROBABLE_SHARE = 0.10
MALFORMED_SHARE = 0.0005  # per rejection reason

CDC_HEADER = ["cdc_report_dt", "pos_spec_dt", "onset_dt", "current_status",
              "sex", "age_group", "race_ethnicity_combined", "res_state",
              "hosp_yn", "icu_yn", "death_yn", "medcond_yn"]
_CDC_OUTCOME = {"yes": "Yes", "no": "No", "unknown": "Unknown",
                "missing": "Missing"}
_RACE = ("White, Non-Hispanic", "Hispanic/Latino",
         "Black, Non-Hispanic", "Asian, Non-Hispanic", "Unknown")
# One corruption per rejection reason the parser distinguishes.
_MALFORMED = {
    "bad_date": ("cdc_report_dt", "2020/13/45"),
    "bad_age": ("age_group", "5O - 59 Years"),
    "bad_gender": ("sex", "Unknwn"),
    "bad_outcome": ("hosp_yn", "Pending"),
}


def multiband_config(seed: int, rows: int) -> synth.SynthConfig:
    """Nine-band config with two epidemic waves and a step in every HFR."""
    n = (END - START).days + 1
    t = np.arange(n, dtype=float)
    wave = (0.6 + 0.8 * np.exp(-(((t - 21) / 20.0) ** 2))
            + 1.2 * np.exp(-(((t - 117) / 25.0) ** 2)))
    wave *= rows / wave.sum()
    mid = (STEP_MIDPOINT - START).days
    step = 1.0 + (HFR_RATIO - 1.0) / (1.0 + np.exp(-(t - mid) / STEP_WIDTH_DAYS))
    return synth.SynthConfig(
        start=START,
        end=END,
        case_intensity={b: wave * share for b, share in CASE_MIX.items()},
        p_hosp={b: np.full(n, p) for b, p in P_HOSP.items()},
        hfr={b: HFR_OLD[b] * step for b in CASE_MIX},
        seed=seed,
        # "no" outcomes relabeled Unknown/Missing, which recode back to no
        missingness_rate=0.3,
    )


def _cdc_band(band: str) -> str:
    return "80+ Years" if band == "80+" else f"{band.replace('-', ' - ')} Years"


def write_cdc_csv(records, path, seed: int) -> dict[str, int]:
    """Write records in the CDC layout, gzipped; return the injected
    rejects per reason.

    Every record is written once as a lab-confirmed case. Around it the
    writer injects "Probable Case" copies (PROBABLE_SHARE of records) and,
    per rejection reason, MALFORMED_SHARE lab-confirmed copies with that
    one field corrupted. Cases in DUMP_STATES are mostly reported on the
    next of DUMP_DATES instead of their own date.
    """
    rng = np.random.default_rng([seed, 1])
    n = len(records)
    state_idx = rng.choice(len(STATES), size=n, p=STATE_WEIGHTS)
    held_back = rng.random(n) < DUMP_SHARE
    race_idx = rng.integers(0, len(_RACE), size=n)
    extra_draw = rng.random(n)
    reasons = list(_MALFORMED)
    injected = {"not_lab_confirmed": 0, **{r: 0 for r in reasons}}
    dump_states = set(DUMP_STATES)
    malformed_cut = PROBABLE_SHARE + MALFORMED_SHARE * len(reasons)

    status = CDC_HEADER.index("current_status")
    corrupt = {r: (CDC_HEADER.index(c), v) for r, (c, v) in _MALFORMED.items()}
    dates: dict[dt.date, str] = {}
    with gzip.open(path, "wt", newline="", encoding="utf-8",
                   compresslevel=6) as fh:
        writer = csv.writer(fh)
        writer.writerow(CDC_HEADER)
        for i, r in enumerate(records):
            state = STATES[state_idx[i]]
            report = r.event_date
            if state in dump_states and held_back[i]:
                report = next((d for d in DUMP_DATES if d >= report), report)
            for d in (report, r.event_date):
                if d not in dates:
                    dates[d] = d.strftime("%Y/%m/%d")
            row = [dates[report], dates[r.event_date], "",
                   "Laboratory-confirmed case",
                   "Female" if r.gender == "female" else "Male",
                   _cdc_band(r.age_band), _RACE[race_idx[i]], state,
                   _CDC_OUTCOME[r.hospitalized_raw], "Missing",
                   _CDC_OUTCOME[r.died_raw], "Unknown"]
            writer.writerow(row)
            u = extra_draw[i]
            if u < PROBABLE_SHARE:
                injected["not_lab_confirmed"] += 1
                row[status] = "Probable Case"
                writer.writerow(row)
            elif u < malformed_cut:
                reason = reasons[min(int((u - PROBABLE_SHARE) / MALFORMED_SHARE),
                                     len(reasons) - 1)]
                column, value = corrupt[reason]
                injected[reason] += 1
                row[column] = value
                writer.writerow(row)
    # The ingest report lists only reasons that occurred.
    return {reason: n for reason, n in injected.items() if n}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    config = multiband_config(args.seed, ROWS)
    records, truth = synth.generate_line_records(config)
    path = out / "cdc_cases.csv.gz"
    rejects = write_cdc_csv(records, path, args.seed)
    with open(out / "truth.json", "w", encoding="utf-8") as fh:
        json.dump({
            "start": truth.start.isoformat(),
            "bands": list(truth.bands),
            "hfr": {b: truth.hfr[b].tolist() for b in truth.bands},
            "p_hosp": {b: truth.p_hosp[b].tolist() for b in truth.bands},
            "case_intensity": {b: truth.case_intensity[b].tolist()
                               for b in truth.bands},
        }, fh, sort_keys=True)
    with open(out / "expected.json", "w", encoding="utf-8") as fh:
        json.dump({"kept_rows": len(records),
                   "rejected_rows_by_reason": rejects,
                   "auto_excluded_states": sorted(DUMP_STATES)},
                  fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
