"""Cohort-based fatality-rate trend estimation from line-level
surveillance data.

The public names below are loaded on first access (PEP 562), so
`import hfrtrend` costs nothing beyond this file and a CLI stage loads
only the submodules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "records": (
        "AGE_BANDS", "ALL_AGE_BANDS", "GENDERS", "IngestReport",
        "LineRecord", "RawLineRecord", "bin_age", "normalize_record",
        "recode_outcome",
    ),
    "cohort": (
        "CohortTable", "StratumKey", "build_cohort_table",
        "demographics_text", "detect_reporting_artifacts",
        "summarize_demographics",
    ),
    "signals": (
        "RateSeries", "TimeSeries", "age_distribution_shares", "cfr_series",
        "gender_fraction_series", "hfr_series", "positive_test_rate",
        "trailing_average_7d",
    ),
    "trend": (
        "BootstrapConfig", "DropEstimate", "InsufficientDataError",
        "IntervalEstimate", "OutOfRangeError", "ReplicateSet", "SplineFit",
        "TrendResult", "analyze_trend", "build_replicates", "estimate_drop",
        "fit_points", "fit_smoothing_spline", "read_estimates",
    ),
    "ingest": ("load_testing_series", "parse_florida_lines"),
    "synth": (
        "SynthConfig", "generate_line_records",
        "simpson_paradox_holds", "simpson_scenario", "step_down_scenario",
        "write_florida_csv",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
