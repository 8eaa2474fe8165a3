"""Synthetic line-level datasets with known ground-truth HFR trends.

The generator is the end-to-end oracle for the pipeline: it draws cases
from known per-band curves and writes them in the Florida file layout,
so the production parser reads them as it reads real data. Per day, then
per band, it draws one Poisson count n and three ``random(n)`` vectors,
and keeps each case as one integer code (`_record_table`). The CSV is
joined from a table of one line per code that occurs. When
``missingness_rate > 0``, one ``random((2, 2, n))`` block follows: row
[0] relabels the hospitalized and died "no" labels below the rate, and
row [1] makes a relabeled one "missing" below 0.5, else "unknown".
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .records import OUTCOME_CATEGORIES, RawLineRecord

FEMALE_FRACTION = 0.5  # chance that a synthetic case is female


@dataclass
class SynthConfig:
    """The generator's input, and the truth its output is checked against."""

    start: dt.date
    end: dt.date
    # band -> per-day arrays over [start, end]
    case_intensity: dict[str, np.ndarray]
    p_hosp: dict[str, np.ndarray]
    hfr: dict[str, np.ndarray]
    seed: int = 0
    # fraction of boolean-"no" outcome fields relabeled unknown/missing,
    # which the recode-to-no rule maps back losslessly
    missingness_rate: float = 0.0

    @property
    def n_days(self) -> int:
        return (self.end - self.start).days + 1

    @property
    def bands(self) -> tuple[str, ...]:
        return tuple(self.case_intensity)

    def aggregate_hfr(self) -> np.ndarray:
        """Hospitalization-weighted mixture of the per-band HFR curves."""
        num = sum(self.case_intensity[b] * self.p_hosp[b] * self.hfr[b]
                  for b in self.bands)
        den = sum(self.case_intensity[b] * self.p_hosp[b] for b in self.bands)
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0)

    def validate(self) -> None:
        for name in ("case_intensity", "p_hosp", "hfr"):
            for band, curve in getattr(self, name).items():
                curve = np.asarray(curve, dtype=float)
                if len(curve) != self.n_days:
                    raise ValueError(f"{name}[{band}] length != n_days")
                if name == "case_intensity":
                    if np.any(curve < 0):
                        raise ValueError(f"{name}[{band}] has negative intensity")
                elif np.any((curve < 0) | (curve > 1)):
                    raise ValueError(f"{name}[{band}] not a probability curve")
        if not (0 <= self.missingness_rate <= 1):
            raise ValueError("missingness_rate not in [0,1]")


def generate_cases(config: SynthConfig) -> np.ndarray:
    """Draw a synthetic dataset: Poisson daily case counts per band, each
    case hospitalized with p_hosp(t), each hospitalized case dying with
    the true HFR(t). Returns one code per case, in draw order:
    ((day * n_bands + band) * 2 + female) * 16 + hosp * 4 + died, each
    outcome label indexing OUTCOME_CATEGORIES."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    bands = config.bands
    chunks = []
    for day in range(config.n_days):
        for b, band in enumerate(bands):
            n_cases = int(rng.poisson(config.case_intensity[band][day]))
            if n_cases == 0:
                continue
            hosp = rng.random(n_cases) < config.p_hosp[band][day]
            died = hosp & (rng.random(n_cases) < config.hfr[band][day])
            female = rng.random(n_cases) < FEMALE_FRACTION
            labels = np.where([hosp, died], 0, 1)  # "yes", "no"
            if config.missingness_rate > 0:
                u = rng.random((2, 2, n_cases))
                labels = np.where((labels == 1) & (u[0] < config.missingness_rate),
                                  2 + (u[1] < 0.5), labels)  # "unknown", "missing"
            chunks.append(((day * len(bands) + b) * 2 + female) * 16
                          + labels[0] * 4 + labels[1])
    return np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)


def _record_table(codes: np.ndarray, config: SynthConfig) -> list:
    """One shared RawLineRecord per code that occurs, indexed by code."""
    bands = config.bands
    table = [None] * (int(codes.max()) + 1 if len(codes) else 0)
    for code in np.flatnonzero(np.bincount(codes)).tolist():
        group, outcome = divmod(code, 16)
        day, band = divmod(group // 2, len(bands))
        table[code] = RawLineRecord(
            config.start + dt.timedelta(days=day), None, bands[band],
            "female" if group % 2 else "male", OUTCOME_CATEGORIES[outcome // 4],
            OUTCOME_CATEGORIES[outcome % 4], None)
    return table


def generate_line_records(
    config: SynthConfig,
) -> tuple[list[RawLineRecord], SynthConfig]:
    """`generate_cases` as RawLineRecords, one shared record per code, and
    the config itself, whose curves are the truth."""
    codes = generate_cases(config)
    return list(map(_record_table(codes, config).__getitem__, codes.tolist())), config


_FLORIDA_LABEL = {"yes": "YES", "no": "NO", "unknown": "UNKNOWN", "missing": ""}


def _florida_line(r: RawLineRecord) -> str:
    age = r.age_years
    if age is None and r.age_band is not None:  # the band's midpoint age
        age = 85 if r.age_band == "80+" else sum(map(int, r.age_band.split("-"))) // 2
    gender = {"female": "Female", "male": "Male"}.get(r.gender, "Unknown")
    return (f"{r.event_date.isoformat()},{'' if age is None else age},{gender},"
            f"{_FLORIDA_LABEL[r.hospitalized_raw]},{_FLORIDA_LABEL[r.died_raw]}\r\n")


def _write_florida(path, table: list, index: np.ndarray) -> None:
    """Write the Florida layout: the header, then the line of table[i] for
    each i in `index`, each distinct line formatted once. No field holds a
    comma, quote or newline, so these are the lines `csv.writer` writes."""
    lines = [None if r is None else _florida_line(r) for r in table]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("ChartDate,Age,Gender,Hospitalized,Died\r\n")
        for i in range(0, len(index), 1 << 16):  # joined text stays ~2 MB
            fh.write("".join(map(lines.__getitem__, index[i:i + (1 << 16)].tolist())))


def write_cases_csv(codes: np.ndarray, config: SynthConfig, path) -> None:
    """Write `generate_cases` output as `write_florida_csv` writes records."""
    _write_florida(path, _record_table(codes, config), codes)


def write_florida_csv(records: list[RawLineRecord], path) -> None:
    """Emit records in the Florida file layout."""
    position: dict[RawLineRecord, int] = {}
    index = [position.setdefault(r, len(position)) for r in records]
    _write_florida(path, list(position), np.asarray(index))


def _sigmoid_step(n_days: int, old: float, new: float) -> np.ndarray:
    """Smooth step old -> new centred on the middle day, 8 days wide."""
    t = np.arange(n_days)
    return old + (new - old) / (1.0 + np.exp(-(t - 0.5 * (n_days - 1)) / 8.0))


# The scenarios' days, and the step scenario's true HFR before and after
# its step and its hospitalization probability.
_SCENARIO_START, _SCENARIO_END = dt.date(2020, 4, 1), dt.date(2020, 11, 1)
_SCENARIO_DAYS = (_SCENARIO_END - _SCENARIO_START).days + 1
_STEP_HFR_OLD, _STEP_HFR_NEW, _STEP_P_HOSP = 0.30, 0.18, 0.25


def step_down_scenario(daily_cases: float = 1000.0, seed: int = 0) -> SynthConfig:
    """Single-band config whose true HFR steps smoothly old -> new."""
    return SynthConfig(
        start=_SCENARIO_START,
        end=_SCENARIO_END,
        case_intensity={"50-59": np.full(_SCENARIO_DAYS, daily_cases)},
        p_hosp={"50-59": np.full(_SCENARIO_DAYS, _STEP_P_HOSP)},
        hfr={"50-59": _sigmoid_step(_SCENARIO_DAYS, _STEP_HFR_OLD, _STEP_HFR_NEW)},
        seed=seed,
    )


# Per-band HFR multipliers and hospitalization-mix weights tuned so every
# band's HFR rises while the aggregate HFR falls by about 2.6%.
_SIMPSON_BANDS = ("50-59", "60-69", "70-79", "80+")
_SIMPSON_HFR_OLD = {"50-59": 0.092, "60-69": 0.19, "70-79": 0.32, "80+": 0.47}
_SIMPSON_HFR_RISE = {"50-59": 1.11, "60-69": 1.12, "70-79": 1.035, "80+": 1.02}
_SIMPSON_WEIGHT_OLD = {"50-59": 0.25, "60-69": 0.25, "70-79": 0.25, "80+": 0.25}
_SIMPSON_WEIGHT_NEW = {"50-59": 0.303, "60-69": 0.262, "70-79": 0.232, "80+": 0.203}


def simpson_scenario(daily_cases: float = 1600.0, seed: int = 0) -> SynthConfig:
    """Config exhibiting Simpson's paradox: every age band's HFR rises
    between the endpoints while the case mix shifts young enough that the
    aggregate HFR falls. Every case is hospitalized."""
    lo, hi = _SIMPSON_WEIGHT_OLD, _SIMPSON_WEIGHT_NEW
    return SynthConfig(
        start=_SCENARIO_START,
        end=_SCENARIO_END,
        case_intensity={b: _sigmoid_step(_SCENARIO_DAYS, lo[b] * daily_cases,
                                         hi[b] * daily_cases)
                        for b in _SIMPSON_BANDS},
        p_hosp={b: np.ones(_SCENARIO_DAYS) for b in _SIMPSON_BANDS},
        hfr={b: _sigmoid_step(_SCENARIO_DAYS, _SIMPSON_HFR_OLD[b],
                              _SIMPSON_HFR_OLD[b] * _SIMPSON_HFR_RISE[b])
             for b in _SIMPSON_BANDS},
        seed=seed,
    )


def simpson_paradox_holds(config: SynthConfig) -> bool:
    """Analytic check on the configured curves: first vs last day, every
    band's HFR rises yet the aggregate HFR falls."""
    agg = config.aggregate_hfr()
    return all(h[-1] > h[0] for h in config.hfr.values()) and bool(agg[-1] < agg[0])
