#!/usr/bin/env python3
"""Time the pipeline stage by stage at about 0.2M and 2M input rows.

Runs synth -> ingest -> analyze -> bootstrap (1000 replicates) on the
step scenario, each stage as `python -m hfrtrend.cli` in its own child
process, one child at a time. The two sizes are set through
``--daily-cases`` over the scenario's 215-day window: 930 and 9,300 cases
a day. Per stage it records the wall time and the child's peak RSS (from
``os.wait4``), and for ingest the bytes of the store it wrote, and writes
them as JSON with nproc and the numpy version.
Each size also has a ``startup`` row: one ``--help`` child, the fixed
cost every stage pays before it reads a byte.

Usage:
    python3 scripts/bench_sizes.py --out BENCH.json [--seed 0]
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
DAILY_CASES = (930, 9300)
REPLICATES = 1000


def run_stage(argv: list[str], log: Path) -> dict:
    """Run one CLI stage in a child; return its wall time and peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    with open(log, "w", encoding="utf-8") as fh:
        child = subprocess.Popen([sys.executable, "-m", "hfrtrend.cli", *argv],
                                 stdout=fh, stderr=subprocess.STDOUT, env=env)
        _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - t0
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        sys.exit(f"{argv[0]} exited {child.returncode}; see {log}")
    return {"wall_s": round(wall, 3),
            "peak_rss_mb": round(usage.ru_maxrss / 1024.0, 1)}


def run_size(work: Path, daily_cases: int, seed: int) -> dict:
    synth, ingested, analyzed = work / "synth", work / "ingested", work / "analyzed"
    stages = {
        "synth": ["synth", "--scenario", "step", "--daily-cases", str(daily_cases),
                  "--seed", str(seed), "--out", str(synth)],
        "ingest": ["ingest", "--input", str(synth / "synthetic_florida.csv"),
                   "--out", str(ingested)],
        "analyze": ["analyze", "--store", str(ingested / "store.npz"),
                    "--out", str(analyzed)],
        "bootstrap": ["bootstrap", "--analyzed", str(analyzed), "--replicates",
                      str(REPLICATES), "--out", str(work / "bootstrap")],
    }
    startup = run_stage(["--help"], work / "startup.log")
    timed = {name: run_stage(argv, work / f"{name}.log")
             for name, argv in stages.items()}
    timed["ingest"]["store_bytes"] = (ingested / "store.npz").stat().st_size
    manifest = json.loads((synth / "manifest.json").read_text(encoding="utf-8"))
    return {"daily_cases": daily_cases, "rows": manifest["stats"]["records"],
            "startup": startup, "stages": timed,
            "total_wall_s": round(sum(s["wall_s"] for s in timed.values()), 3)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        # Compile bytecode and load the libraries once, untimed.
        run_stage(["--help"], work / "warmup.log")
        sizes = []
        for daily_cases in DAILY_CASES:
            (work / str(daily_cases)).mkdir()
            sizes.append(run_size(work / str(daily_cases), daily_cases, args.seed))
            print(json.dumps(sizes[-1]), flush=True)
    result = {
        "command": "python3 scripts/bench_sizes.py " + " ".join(sys.argv[1:]),
        "scenario": "step", "seed": args.seed, "replicates": REPLICATES,
        "nproc": len(os.sched_getaffinity(0)), "numpy": np.__version__,
        "python": platform.python_version(), "sizes": sizes,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2)
        fh.write("\n")


if __name__ == "__main__":
    main()
