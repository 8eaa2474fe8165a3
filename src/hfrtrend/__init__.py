"""Cohort-based fatality-rate trend estimation from line-level
surveillance data."""

from .records import (
    AGE_BANDS,
    ALL_AGE_BANDS,
    GENDERS,
    DailyTestRecord,
    IngestReport,
    LineRecord,
    RawLineRecord,
    bin_age,
    normalize_record,
    recode_outcome,
)
from .cohort import (
    CohortTable,
    DemographicsSummary,
    StratumKey,
    age_distribution_shares,
    build_cohort_table,
    gender_fraction_series,
    summarize_demographics,
)
from .signals import (
    RateSeries,
    TimeSeries,
    cfr_series,
    hfr_series,
    positive_test_rate,
    trailing_average_7d,
)
from .trend import (
    BootstrapConfig,
    DropEstimate,
    InsufficientDataError,
    IntervalEstimate,
    OutOfRangeError,
    ReplicateSet,
    SplineFit,
    TrendResult,
    analyze_trend,
    build_replicates,
    estimate_drop,
    fit_points,
    fit_smoothing_spline,
    moving_block_resample,
    read_estimates,
)
from .ingest import (
    detect_reporting_artifacts,
    load_testing_series,
    parse_florida_lines,
)
from .synth import (
    SynthConfig,
    TruthTable,
    generate_line_records,
    simpson_paradox_holds,
    simpson_scenario,
    step_down_scenario,
    write_florida_csv,
)

__version__ = "0.1.0"
