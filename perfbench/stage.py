"""Run one pipeline stage in this process, optionally traced.

    python3 perfbench/stage.py [--trace FILE] hfrtrend ARGV...
    python3 perfbench/stage.py [--trace FILE] gen ARGV...

`hfrtrend` calls `hfrtrend.cli.main(ARGV)`, exactly what the installed
`hfrtrend` command does; `gen` calls `perfbench/gen.py`. The exit code is
the stage's own.

With ``--trace`` the public functions of each layer are wrapped, from
outside the package, before the stage runs, and per-span totals (calls,
inclusive and self seconds) are written to FILE as JSON, with the time
the wrappers themselves added, estimated from their calls and a cost per
call timed on a no-op at the end of the stage. A wrapper is
installed on the module attribute the caller looks up at call time, so
`normalize_record` is wrapped in `hfrtrend.cli`, which imports that name
directly. A function missing from the package is listed as absent and
reads as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

# (module, attribute, span name). Several attributes may share a span.
SPANS = (
    ("hfrtrend.ingest", "iter_parse_lines", "ingest.parse"),
    ("hfrtrend.cli", "normalize_record", "records.normalize"),
    ("hfrtrend.store", "save_store", "store.save"),
    ("hfrtrend.store", "load_store", "store.load"),
    ("hfrtrend.store", "iter_records", "store.iter_records"),
    ("hfrtrend.ingest", "filter_cohort", "ingest.filter_cohort"),
    ("hfrtrend.ingest", "detect_reporting_artifacts", "ingest.detect_artifacts"),
    ("hfrtrend.cohort", "build_cohort_table", "cohort.build"),
    ("hfrtrend.cohort", "summarize_demographics", "cohort.demographics"),
    ("hfrtrend.cohort", "age_distribution_shares", "cohort.shares"),
    ("hfrtrend.cohort", "gender_fraction_series", "cohort.shares"),
    ("hfrtrend.cohort:CohortTable", "write_long_csv", "cohort.long_csv"),
    ("hfrtrend.signals", "cfr_series", "signals.series"),
    ("hfrtrend.signals", "hfr_series", "signals.series"),
    ("hfrtrend.trend", "analyze_trend", "trend.analyze_trend"),
    ("hfrtrend.trend", "select_lambda_block_cv", "trend.select_lambda"),
    ("hfrtrend.trend", "build_replicates", "trend.replicates"),
    ("hfrtrend.synth", "generate_line_records", "synth.generate"),
    ("hfrtrend.synth", "write_florida_csv", "synth.write"),
    ("gen", "write_cdc_csv", "synth.write"),
)
# Counted but not timed: ~1.8k calls per lambda selection, so a span would
# cost more than the work it splits out of trend.select_lambda.
COUNTS = (("hfrtrend.trend", "fit_points", "trend.fit_points"),)
CALIBRATE_SPAN = "trace.calibrate"
CALIBRATE_CALLS = 20000
CALIBRATE_REPEATS = 5


class Tracer:
    """Aggregating span recorder.

    Spans nest on a stack; a span's self time is its duration minus the
    durations of the spans opened directly inside it. Only per-name
    totals are kept, so a span per parsed row costs no memory.
    """

    def __init__(self):
        self.totals: dict[str, list] = {}  # name -> [calls, incl, self, failed]
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[list] = []  # [start, child seconds]

    def _enter(self) -> None:
        self._stack.append([time.perf_counter(), 0.0])

    def _exit(self, name: str, failed: bool) -> None:
        start, child = self._stack.pop()
        duration = time.perf_counter() - start
        total = self.totals.setdefault(name, [0, 0.0, 0.0, 0])
        total[0] += 1
        total[1] += duration
        total[2] += duration - child
        total[3] += failed
        if self._stack:
            self._stack[-1][1] += duration

    def span(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # The call only builds the generator; the work happens in
            # next(), so each next() is one span.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    self._enter()
                    failed = True
                    try:
                        item = next(inner)
                        failed = False
                    except StopIteration:
                        failed = False
                        return
                    finally:
                        self._exit(name, failed)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._enter()
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                self._exit(name, failed)
        return wrapper

    def counter(self, name: str, fn):
        self.counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        for hooks, make in ((SPANS, self.span), (COUNTS, self.counter)):
            for target, attr, name in hooks:
                module_name, _, cls = target.partition(":")
                owner = importlib.import_module(module_name)
                if cls:
                    owner = getattr(owner, cls, None)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.absent.append(f"{target}.{attr}")
                    continue
                setattr(owner, attr, make(name, fn))

    def _wrapper_cost(self, make) -> float:
        """Seconds a wrapper adds to one call: a no-op timed wrapped and
        bare, median of CALIBRATE_REPEATS batches of CALIBRATE_CALLS."""
        def noop():
            return None
        wrapped = make(CALIBRATE_SPAN, noop)
        costs = []
        for _ in range(CALIBRATE_REPEATS):
            t0 = time.perf_counter()
            for _ in range(CALIBRATE_CALLS):
                noop()
            t1 = time.perf_counter()
            for _ in range(CALIBRATE_CALLS):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / CALIBRATE_CALLS)
        self.totals.pop(CALIBRATE_SPAN, None)
        self.counts.pop(CALIBRATE_SPAN, None)
        return max(0.0, statistics.median(costs))

    def overhead_s(self) -> float:
        """Estimated time the wrappers added: calls times calibrated cost."""
        spans = sum(t[0] for t in self.totals.values())
        counts = sum(self.counts.values())
        return (spans * self._wrapper_cost(self.span)
                + counts * self._wrapper_cost(self.counter))

    def dump(self, path) -> None:
        overhead_s = self.overhead_s()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": {k: dict(zip(("calls", "incl_s", "self_s", "failed"), v))
                          for k, v in self.totals.items()},
                "counts": self.counts,
                "absent": self.absent,
                "overhead_s": overhead_s,
            }, fh, sort_keys=True)


def _entry(program: str):
    if program == "hfrtrend":
        return importlib.import_module("hfrtrend.cli").main
    if program == "gen":
        return importlib.import_module("gen").main
    raise SystemExit(f"unknown program {program!r}")


def main(argv: list[str]) -> int:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    entry = _entry(argv[0])
    if trace_path is None:
        return entry(argv[1:])
    tracer = Tracer()
    tracer.install()
    try:
        return entry(argv[1:])
    finally:
        tracer.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
