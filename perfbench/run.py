"""End-to-end benchmark of the hfrtrend pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Every workload runs the same analyst session through the public
CLI, one child process per stage invocation, one child at a time:

1. ``ingest`` once;
2. ``analyze`` with the defaults, then once per sensitivity re-analysis;
3. ``bootstrap --gender all`` (default date pairs, ``--replicates 1000``)
   from the first analysis.

The input is generated from ``--seed`` first (set-up, timed three times,
median reported). The session repeats until ``--seconds`` of session time
have been measured, at least once, as long as the run stays within
RUN_BUDGET_S; session time and peak RSS are medians over those rounds,
because the speed of a shared host changes from one second to the next.
Stage wall time includes interpreter start-up, which a user pays on every
CLI call; peak RSS comes from ``os.wait4`` on that stage's own child.

With ``--trace 1`` the input is generated once and one session is run,
both traced (see ``stage.py``), for the per-layer numbers.

Output: a details line, then as the last line of standard output one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A stage exiting nonzero or an output check failing counts as a failed
operation. Workload rationale and argv: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

HERE = Path(__file__).resolve().parent
STAGE = HERE / "stage.py"
SETUP_REPEATS = 3
RUN_DEADLINE_S = 170.0  # every run ends well inside 180 s
# No further round starts if it would end the run later than this, so that
# a full comparison (4 + 22 runs per workload) fits its time budget.
RUN_BUDGET_S = 60.0
REPLICATES = "1000"
DROP_TABLE_ROWS = 7
# The aggregate 04-15 -> 07-15 drop, read off the drop table (two
# significant digits), must lie this close to the drop of the generating
# curve after the same 7-day trailing smoothing. On 100k-300k-row inputs
# the estimate scattered up to 0.10 from that truth over seeds 1-15.
DROP_PAIR = ("2020-04-15", "2020-07-15")
DROP_TOLERANCE = 0.15


@dataclass(frozen=True)
class Workload:
    setup: tuple[str, ...]  # stage.py argv; {seed} and {out} filled in
    input_name: str
    ingest_args: tuple[str, ...]
    sensitivity: tuple[tuple[str, ...], ...]  # one re-analysis each


WORKLOADS = {
    # ~260k Florida-layout rows, one age band: row-proportional layers
    # (parse, normalize, store, cohort build) carry the session.
    "florida_rows": Workload(
        setup=("hfrtrend", "synth", "--scenario", "step", "--daily-cases",
               "1200", "--seed", "{seed}", "--out", "{out}"),
        input_name="synthetic_florida.csv",
        ingest_args=("--schema", "florida"),
        sensitivity=(("--min-deaths", "5"),),
    ),
    # ~100k gzipped CDC-layout rows over nine age bands plus ~10% rejects:
    # decompression, band labels, the quarantine path and state-artifact
    # detection; 14 trend fits make lambda selection the largest layer.
    # Two re-analyses (flagged states found, then named) keep the analyze
    # phase several seconds long.
    "cdc_states": Workload(
        setup=("gen", "--seed", "{seed}", "--out", "{out}"),
        input_name="cdc_cases.csv.gz",
        ingest_args=("--schema", "cdc", "--quarantine"),
        sensitivity=(("--auto-exclude",), ("--exclude-states", "NJ,CT")),
    ),
}

# Phase wall times are not end-to-end metrics: on a shared 2-vCPU host
# each spreads more than the largest bound allowed (README), so they are
# reported in the details line, and their layers under --trace 1.
END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "ingest_rss_mb": "MB",
    "analyze_rss_mb": "MB", "bootstrap_rss_mb": "MB",
}
# per-layer metric -> (span, field) summed over one traced session
SPAN_METRICS = {
    "ingest.parse_s": ("ingest.parse", "self_s"),
    "records.normalize_s": ("records.normalize", "self_s"),
    "records.normalize_calls": ("records.normalize", "calls"),
    "store.save_self_s": ("store.save", "self_s"),
    "store.load_s": ("store.load", "self_s"),
    "store.iter_records_s": ("store.iter_records", "self_s"),
    "ingest.filter_cohort_s": ("ingest.filter_cohort", "self_s"),
    "cohort.build_s": ("cohort.build", "self_s"),
    "cohort.demographics_s": ("cohort.demographics", "self_s"),
    "ingest.detect_artifacts_s": ("ingest.detect_artifacts", "self_s"),
    "cohort.shares_s": ("cohort.shares", "self_s"),
    "cohort.long_csv_s": ("cohort.long_csv", "self_s"),
    "signals.series_s": ("signals.series", "self_s"),
    "signals.series_calls": ("signals.series", "calls"),
    "trend.select_lambda_s": ("trend.select_lambda", "self_s"),
    "trend.select_lambda_calls": ("trend.select_lambda", "calls"),
    "trend.replicates_s": ("trend.replicates", "self_s"),
    "trend.analyze_trend_self_s": ("trend.analyze_trend", "self_s"),
    "trend.fits_attempted": ("trend.analyze_trend", "calls"),
    "trend.fits_failed": ("trend.analyze_trend", "failed"),
}
SETUP_SPAN_METRICS = {
    "synth.generate_s": ("synth.generate", "self_s"),
    "synth.write_s": ("synth.write", "self_s"),
}


class StageFailed(Exception):
    pass


class Run:
    """One benchmark run: child processes, timings, checks, counts."""

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.env["TMPDIR"] = str(work.resolve())
        self.start = time.monotonic()
        self.deadline = self.start + RUN_DEADLINE_S

    def spawn(self, args: list[str], log: Path, count: bool = True) -> dict:
        """Run stage.py ARGS in a child; return wall and CPU seconds and
        peak RSS."""
        argv = [sys.executable, str(STAGE), *args]
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(log),
             os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_DUP2, 1, 2),
        ]
        if count:
            self.attempted += 1
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise StageFailed(f"run deadline passed before {args[:2]}")
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, self.env,
                             file_actions=actions)
        killer = threading.Timer(timeout, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
        code = os.waitstatus_to_exitcode(status)
        if code != 0:
            if count:
                self.failed += 1
            tail = log.read_text(errors="replace")[-2000:]
            raise StageFailed(f"{' '.join(args)} exited {code}:\n{tail}")
        return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                "rss_mb": usage.ru_maxrss / 1024.0}

    def check(self, name: str, ok: bool) -> None:
        if not ok:
            self.failed += 1
        self.checks[name] = self.checks.get(name, True) and bool(ok)


def _session(w: Workload, setup_dir: Path, out: Path) -> list[tuple[str, list[str]]]:
    store = out / "ingested" / "store.npz"
    stages = [("ingest", ["ingest", "--input", str(setup_dir / w.input_name),
                          *w.ingest_args, "--out", str(out / "ingested")]),
              ("analyze", ["analyze", "--store", str(store),
                           "--out", str(out / "analyzed")])]
    stages += [("analyze", ["analyze", "--store", str(store), *extra,
                            "--out", str(out / f"analyzed_sensitivity{i}")])
               for i, extra in enumerate(w.sensitivity, 1)]
    stages.append(("bootstrap", ["bootstrap", "--analyzed", str(out / "analyzed"),
                                 "--gender", "all", "--replicates", REPLICATES,
                                 "--out", str(out / "bootstrap")]))
    return stages


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _truth_drop(truth: dict) -> float:
    """Relative drop between DROP_PAIR of the hospitalization-weighted
    aggregate HFR, each side a 7-day trailing ratio of sums like the
    pipeline's own smoothing."""
    start = dt.date.fromisoformat(truth["start"])
    num = den = 0.0
    for band in truth["bands"]:
        weight = (np.asarray(truth["case_intensity"][band])
                  * np.asarray(truth["p_hosp"][band]))
        num = num + weight * np.asarray(truth["hfr"][band])
        den = den + weight

    def smoothed(day: str) -> float:
        i = (dt.date.fromisoformat(day) - start).days
        return num[i - 6:i + 1].sum() / den[i - 6:i + 1].sum()

    return float(smoothed(DROP_PAIR[1]) / smoothed(DROP_PAIR[0]) - 1.0)


def _table_drop(path: Path) -> float | None:
    """Median aggregate drop of a drop table; None for a "-" cell."""
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if row[0] == "aggregate" and row[3] != "-":
                return float(row[3].split(" ")[0])
    return None


def _check_session(run: Run, w: Workload, out: Path, expected: dict,
                   truth: dict) -> dict[str, str]:
    """Output checks for one session; returns sha256 of the drop tables
    and rate CSVs."""
    report = _read_json(out / "ingested" / "ingest_report.json")
    rejected = report["rejected_rows_by_reason"]
    run.check("ingest_conservation",
              report["total_rows"] == report["kept_rows"] + sum(rejected.values()))
    run.check("ingest_kept_rows", report["kept_rows"] == expected["kept_rows"])
    run.check("ingest_rejects_by_reason",
              rejected == expected["rejected_rows_by_reason"])
    for i, extra in enumerate(w.sensitivity, 1):
        if "--auto-exclude" in extra:
            flagged = _read_json(out / f"analyzed_sensitivity{i}"
                                 / "excluded_states.json")
            run.check("auto_excluded_states",
                      sorted(flagged) == expected["auto_excluded_states"])
    hashes = {}
    tables = sorted((out / "bootstrap").glob("hfr_drop_*.csv"))
    run.check("drop_tables_written", len(tables) == 2)
    for table in tables:
        with open(table, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        run.check("drop_table_rows", len(rows) == 1 + DROP_TABLE_ROWS)
        hashes[f"bootstrap/{table.name}"] = _sha256(table)
    for sub in ("analyzed", *(f"analyzed_sensitivity{i}"
                              for i in range(1, len(w.sensitivity) + 1))):
        for rate_csv in sorted((out / sub).glob("[ch]fr_*.csv")):
            hashes[f"{sub}/{rate_csv.name}"] = _sha256(rate_csv)
    tag = "_to_".join(d[5:] for d in DROP_PAIR)
    estimate = _table_drop(out / "bootstrap" / f"hfr_drop_{tag}.csv")
    run.check("aggregate_drop_vs_truth", estimate is not None
              and abs(estimate - _truth_drop(truth)) <= DROP_TOLERANCE)
    return hashes


def _round(run: Run, w: Workload, setup_dir: Path, out: Path,
           trace_dir: Path | None = None) -> dict:
    """One analyst session; per-invocation wall, RSS and trace files."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    invocations = []
    for i, (phase, args) in enumerate(_session(w, setup_dir, out)):
        prefix = ["hfrtrend", *args]
        trace_file = None
        if trace_dir is not None:
            trace_file = trace_dir / f"{i}_{phase}.json"
            prefix = ["--trace", str(trace_file), *prefix]
        result = run.spawn(prefix, out / f"{i}_{phase}.log")
        invocations.append({"phase": phase, "argv": ["hfrtrend", *args],
                            **result, "trace": trace_file})
    return {"invocations": invocations}


def _peak_rss(invocations: list[dict], phase: str) -> float:
    return max(inv["rss_mb"] for inv in invocations if inv["phase"] == phase)


def _steal_ticks() -> list[int] | None:
    """(steal, total) jiffies from /proc/stat, if readable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return [fields[7] if len(fields) > 7 else 0, sum(fields)]


def _machine() -> dict:
    facts = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    for name, mod in (("numpy_blas", np), ("scipy_blas", scipy)):
        try:
            blas = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            facts[name] = f"{blas.get('name')} {blas.get('version')}"
        except (AttributeError, KeyError, TypeError):
            facts[name] = "unknown"
    return facts


def _end_to_end(rounds: list[dict], setup_walls: list[float]) -> dict:
    per_round = []
    for r in rounds:
        inv = r["invocations"]
        per_round.append({
            "pipeline_s": sum(i["wall_s"] for i in inv),
            "ingest_rss_mb": _peak_rss(inv, "ingest"),
            "analyze_rss_mb": _peak_rss(inv, "analyze"),
            "bootstrap_rss_mb": _peak_rss(inv, "bootstrap"),
        })
    values = {"setup_s": statistics.median(setup_walls)}
    for name in per_round[0]:
        values[name] = statistics.median(r[name] for r in per_round)
    return {name: {"value": values[name], "unit": END_TO_END_UNITS[name]}
            for name in END_TO_END_UNITS}


def _per_layer(run: Run, traced: dict, setup_trace: Path, expected: dict,
               out: Path) -> tuple[dict, list[str]]:
    metrics = {name: 0.0 if field == "self_s" else 0
               for table in (SETUP_SPAN_METRICS, SPAN_METRICS)
               for name, (_, field) in table.items()}
    absent: set[str] = set()
    fit_points_calls = 0
    overhead_s = 0.0
    cli_self = {"ingest": 0.0, "analyze": 0.0, "bootstrap": 0.0}

    def add(trace: dict, table: dict) -> float:
        nonlocal overhead_s
        for metric, (span, field) in table.items():
            metrics[metric] += trace["spans"].get(span, {}).get(field, 0)
        absent.update(trace["absent"])
        overhead_s += trace["overhead_s"]
        return sum(s["self_s"] for s in trace["spans"].values())

    add(_read_json(setup_trace), SETUP_SPAN_METRICS)
    calls = {}
    for inv in traced["invocations"]:
        trace = _read_json(inv["trace"])
        layer_self = add(trace, SPAN_METRICS)
        fit_points_calls += trace["counts"].get("trend.fit_points", 0)
        for span, total in trace["spans"].items():
            calls[span] = calls.get(span, 0) + total["calls"]
        # The layers can take no longer than the stage's own process.
        run.check("trace_within_stage", layer_self <= inv["wall_s"])
        cli_self[inv["phase"]] += inv["wall_s"] - layer_self
    # Spans sit where the rows pass: one next() per kept row plus the one
    # that ends the parse, one normalize call per kept row.
    if "hfrtrend.ingest.iter_parse_lines" not in absent:
        run.check("trace_parse_calls",
                  calls.get("ingest.parse") == expected["kept_rows"] + 1)
    if "hfrtrend.cli.normalize_record" not in absent:
        run.check("trace_normalize_calls",
                  calls.get("records.normalize") == expected["kept_rows"])
    ingest_report = _read_json(out / "ingested" / "ingest_report.json")
    metrics.update({
        "ingest.rows_read": ingest_report["total_rows"],
        "ingest.rows_rejected": sum(ingest_report["rejected_rows_by_reason"].values()),
        "store.bytes": (out / "ingested" / "store.npz").stat().st_size,
        "trend.fit_points_calls": fit_points_calls,
        "cli.ingest_self_s": cli_self["ingest"],
        "cli.analyze_self_s": cli_self["analyze"],
        "cli.bootstrap_self_s": cli_self["bootstrap"],
        "trace.overhead_s": overhead_s,
    })
    result = {}
    for name in sorted(metrics):
        unit = "s" if name.endswith("_s") else (
            "bytes" if name == "store.bytes" else "count")
        result[name] = {"value": metrics[name], "unit": unit}
    return result, sorted(absent)


def _measure(args, run: Run, w: Workload) -> tuple[dict, dict]:
    setup_dir = run.work / "setup"
    setup_dir.mkdir(parents=True)
    setup_argv = [a.format(seed=args.seed, out=setup_dir) for a in w.setup]
    # Compile bytecode and warm the page cache once, untimed: a user pays
    # interpreter start-up on every call, but compilation only once.
    run.spawn(["hfrtrend", "--help"], run.work / "warmup.log", count=False)

    details: dict = {"setup_argv": setup_argv}
    if args.trace:
        setup_trace = run.work / "setup_trace.json"
        run.spawn(["--trace", str(setup_trace), *setup_argv],
                  run.work / "setup.log")
    else:
        setup_walls = [run.spawn(setup_argv, run.work / "setup.log")["wall_s"]
                       for _ in range(SETUP_REPEATS)]
        details["setup_walls_s"] = setup_walls
    if w.setup[0] == "gen":
        expected = _read_json(setup_dir / "expected.json")
    else:
        manifest = _read_json(setup_dir / "manifest.json")
        expected = {"kept_rows": manifest["stats"]["records"],
                    "rejected_rows_by_reason": {}}
    truth = _read_json(setup_dir / "truth.json")

    out = run.work / "session"
    details["expected"] = expected
    if args.trace:
        trace_dir = run.work / "traces"
        trace_dir.mkdir()
        traced = _round(run, w, setup_dir, out, trace_dir)
        details["output_sha256"] = _check_session(run, w, out, expected, truth)
        details["session_argv"] = [inv["argv"] for inv in traced["invocations"]]
        details["traced_round"] = [
            {k: inv[k] for k in ("phase", "wall_s", "cpu_s", "rss_mb")}
            for inv in traced["invocations"]]
        layer_metrics, details["absent_hooks"] = _per_layer(
            run, traced, setup_trace, expected, out)
        return layer_metrics, details

    rounds = []
    hashes = None
    measured = 0.0
    while True:
        r = _round(run, w, setup_dir, out)
        round_hashes = _check_session(run, w, out, expected, truth)
        run.check("outputs_identical_across_rounds",
                  hashes is None or round_hashes == hashes)
        hashes = round_hashes
        rounds.append(r)
        measured += sum(inv["wall_s"] for inv in r["invocations"])
        round_s = measured / len(rounds)
        if (measured >= args.seconds
                or time.monotonic() + round_s > run.start + RUN_BUDGET_S):
            break

    details["session_argv"] = [inv["argv"] for inv in rounds[0]["invocations"]]
    details["rows_read"] = _read_json(
        out / "ingested" / "ingest_report.json")["total_rows"]
    details["output_sha256"] = hashes
    details["rounds"] = [[{k: inv[k] for k in ("phase", "wall_s", "cpu_s", "rss_mb")}
                          for inv in r["invocations"]] for r in rounds]
    return _end_to_end(rounds, setup_walls), details


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind through Run.spawn so the running child is killed
    # and reaped before this process exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = Path.cwd()
    if not (root / "src" / "hfrtrend" / "cli.py").is_file():
        print("error: run from the root of an hfrtrend checkout "
              "(src/hfrtrend/cli.py not found)", file=sys.stderr)
        return 2
    # Relative paths keep argv records the same in every checkout.
    work = Path(".perfbench") / f"{args.workload}-{args.seed}-t{args.trace}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    run = Run(root, work)
    steal_before = _steal_ticks()
    t0 = time.monotonic()
    details = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "machine": _machine()}
    try:
        metrics, measured = _measure(args, run, WORKLOADS[args.workload])
        details.update(measured)
    except StageFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        metrics = None
    finally:
        steal_after = _steal_ticks()
        if steal_before and steal_after:
            details["machine"]["steal_ticks"] = steal_after[0] - steal_before[0]
            details["machine"]["total_ticks"] = steal_after[1] - steal_before[1]
        details["run_wall_s"] = time.monotonic() - t0
        details["checks"] = run.checks
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there
        print(json.dumps(details, sort_keys=True, default=str))
    correct = metrics is not None and run.failed == 0 and all(run.checks.values())
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics or {}}))
    return 0 if metrics is not None else 1


if __name__ == "__main__":
    sys.exit(main())
