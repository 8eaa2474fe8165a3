"""Smoke runs of the scripts in `scripts/`: each exits 0 on a small input
and writes what its usage line promises."""

import json
import os
import subprocess
import sys
from pathlib import Path

import hfrtrend
from hfrtrend.cli import EXIT_OK, main

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    """Run `scripts/<name>` in a child that imports this checkout's package;
    fail with its stderr when it exits nonzero."""
    src = str(Path(hfrtrend.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out


def test_run_synthetic_study(tmp_path):
    run_script("run_synthetic_study.py", "--out", str(tmp_path),
               "--daily-cases", "200", "--replicates", "100")
    assert (tmp_path / "ingested" / "store.npz").is_file()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["records"] > 0
    assert {"true_drop", "estimated_drop", "ci_covers_truth"} <= summary.keys()


def test_coverage_study():
    out = run_script("coverage_study.py", "--repetitions", "5", "--replicates", "50")
    lines = out.stdout.splitlines()
    assert lines[0].startswith("5 repetitions, B=50")
    assert len(lines) == 2 + 5  # summary, header, one row per probe


def test_reproduce_tables(tmp_path):
    assert main(["synth", "--daily-cases", "200", "--out",
                 str(tmp_path / "synth")]) == EXIT_OK
    out = tmp_path / "tables"
    run_script("reproduce_tables.py", "--florida-csv",
               str(tmp_path / "synth" / "synthetic_florida.csv"),
               "--replicates", "50", "--out", str(out))
    assert (out / "florida" / "analyzed" / "demographics.txt").is_file()
    assert sorted((out / "florida" / "bootstrap").glob("hfr_drop_*.txt"))


def test_bench_sizes_help():
    """Only `--help`: a full run times 2M rows."""
    assert run_script("bench_sizes.py", "--help").stdout.startswith("usage:")
