"""Synthetic line-level datasets with known ground-truth HFR trends.

The generator is the end-to-end oracle for the pipeline: it emits raw
records (optionally in the Florida file layout so the production parser
is exercised) along with the exact per-band curves used to draw them.
"""

from __future__ import annotations

import csv
import datetime as dt
from dataclasses import dataclass

import numpy as np

from .records import RawLineRecord, CONFIRMED_PCR


@dataclass
class SynthConfig:
    start: dt.date
    end: dt.date
    # band -> per-day arrays over [start, end]
    case_intensity: dict[str, np.ndarray]
    p_hosp: dict[str, np.ndarray]
    hfr: dict[str, np.ndarray]
    female_fraction: float = 0.5
    seed: int = 0
    # fraction of boolean-"no" outcome fields relabeled unknown/missing,
    # which the recode-to-no rule maps back losslessly
    missingness_rate: float = 0.0

    @property
    def n_days(self) -> int:
        return (self.end - self.start).days + 1

    def validate(self) -> None:
        for name, curves in (
            ("case_intensity", self.case_intensity),
            ("p_hosp", self.p_hosp),
            ("hfr", self.hfr),
        ):
            for band, curve in curves.items():
                curve = np.asarray(curve, dtype=float)
                if len(curve) != self.n_days:
                    raise ValueError(f"{name}[{band}] length != n_days")
                if name == "case_intensity":
                    if np.any(curve < 0):
                        raise ValueError(f"{name}[{band}] has negative intensity")
                elif np.any((curve < 0) | (curve > 1)):
                    raise ValueError(f"{name}[{band}] not a probability curve")
        if not (0 <= self.female_fraction <= 1):
            raise ValueError("female_fraction not in [0,1]")
        if not (0 <= self.missingness_rate <= 1):
            raise ValueError("missingness_rate not in [0,1]")


@dataclass
class TruthTable:
    """Exact generating curves, for comparing pipeline output to truth."""

    start: dt.date
    bands: tuple[str, ...]
    hfr: dict[str, np.ndarray]
    p_hosp: dict[str, np.ndarray]
    case_intensity: dict[str, np.ndarray]

    def aggregate_hfr(self) -> np.ndarray:
        """Hospitalization-weighted mixture of the per-band HFR curves."""
        num = sum(
            self.case_intensity[b] * self.p_hosp[b] * self.hfr[b] for b in self.bands
        )
        den = sum(self.case_intensity[b] * self.p_hosp[b] for b in self.bands)
        return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def generate_line_records(
    config: SynthConfig,
) -> tuple[list[RawLineRecord], TruthTable]:
    """Draw a synthetic dataset: Poisson daily case counts per band, each
    case hospitalized with p_hosp(t), each hospitalized case dying with
    the true HFR(t)."""
    config.validate()
    rng = np.random.default_rng(config.seed)
    bands = tuple(config.case_intensity)
    records: list[RawLineRecord] = []
    unknown_labels = ("unknown", "missing")

    for day_idx in range(config.n_days):
        date = config.start + dt.timedelta(days=day_idx)
        for band in bands:
            n_cases = int(rng.poisson(config.case_intensity[band][day_idx]))
            if n_cases == 0:
                continue
            hosp = rng.random(n_cases) < config.p_hosp[band][day_idx]
            died = hosp & (rng.random(n_cases) < config.hfr[band][day_idx])
            female = rng.random(n_cases) < config.female_fraction
            for i in range(n_cases):
                hosp_label = "yes" if hosp[i] else "no"
                died_label = "yes" if died[i] else "no"
                if config.missingness_rate > 0:
                    if hosp_label == "no" and rng.random() < config.missingness_rate:
                        hosp_label = unknown_labels[int(rng.random() < 0.5)]
                    if died_label == "no" and rng.random() < config.missingness_rate:
                        died_label = unknown_labels[int(rng.random() < 0.5)]
                records.append(
                    RawLineRecord(
                        event_date=date,
                        age_years=None,
                        age_band=band,
                        gender="female" if female[i] else "male",
                        hospitalized_raw=hosp_label,
                        died_raw=died_label,
                        state=None,
                        confirmation_kind=CONFIRMED_PCR,
                    )
                )
    truth = TruthTable(
        start=config.start,
        bands=bands,
        hfr={b: np.asarray(config.hfr[b], dtype=float) for b in bands},
        p_hosp={b: np.asarray(config.p_hosp[b], dtype=float) for b in bands},
        case_intensity={
            b: np.asarray(config.case_intensity[b], dtype=float) for b in bands
        },
    )
    return records, truth


def _band_midpoint_age(band: str) -> int:
    if band == "80+":
        return 85
    lo, hi = band.split("-")
    return (int(lo) + int(hi)) // 2


def write_florida_csv(records: list[RawLineRecord], path) -> None:
    """Emit records in the Florida file layout so the production parser
    ingests synthetic data through the same code path as real data."""
    label = {"yes": "YES", "no": "NO", "unknown": "UNKNOWN", "missing": ""}
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["ChartDate", "Age", "Gender", "Hospitalized", "Died"])
        for r in records:
            age = r.age_years
            if age is None and r.age_band is not None:
                age = _band_midpoint_age(r.age_band)
            writer.writerow(
                [
                    r.event_date.isoformat(),
                    "" if age is None else age,
                    {"female": "Female", "male": "Male"}.get(r.gender, "Unknown"),
                    label[r.hospitalized_raw],
                    label[r.died_raw],
                ]
            )


def _sigmoid_step(
    n_days: int, old: float, new: float, midpoint_frac: float = 0.5, width: float = 8.0
) -> np.ndarray:
    t = np.arange(n_days)
    mid = midpoint_frac * (n_days - 1)
    return old + (new - old) / (1.0 + np.exp(-(t - mid) / width))


def step_down_scenario(
    start: dt.date = dt.date(2020, 4, 1),
    end: dt.date = dt.date(2020, 11, 1),
    hfr_old: float = 0.30,
    hfr_new: float = 0.18,
    daily_cases: float = 1000.0,
    p_hosp: float = 0.25,
    seed: int = 0,
) -> SynthConfig:
    """Single-band config whose true HFR steps smoothly old -> new."""
    n = (end - start).days + 1
    return SynthConfig(
        start=start,
        end=end,
        case_intensity={"50-59": np.full(n, daily_cases)},
        p_hosp={"50-59": np.full(n, p_hosp)},
        hfr={"50-59": _sigmoid_step(n, hfr_old, hfr_new)},
        seed=seed,
    )


# Per-band HFR multipliers and hospitalization-mix weights tuned so every
# band's HFR rises while the aggregate HFR falls by about 2.6%.
_SIMPSON_BANDS = ("50-59", "60-69", "70-79", "80+")
_SIMPSON_HFR_OLD = {"50-59": 0.092, "60-69": 0.19, "70-79": 0.32, "80+": 0.47}
_SIMPSON_HFR_RISE = {"50-59": 1.11, "60-69": 1.12, "70-79": 1.035, "80+": 1.02}
_SIMPSON_WEIGHT_OLD = {"50-59": 0.25, "60-69": 0.25, "70-79": 0.25, "80+": 0.25}
_SIMPSON_WEIGHT_NEW = {"50-59": 0.303, "60-69": 0.262, "70-79": 0.232, "80+": 0.203}


def simpson_scenario(
    start: dt.date = dt.date(2020, 4, 1),
    end: dt.date = dt.date(2020, 11, 1),
    daily_hospitalizations: float = 1600.0,
    seed: int = 0,
) -> SynthConfig:
    """Config exhibiting Simpson's paradox: every age band's HFR rises
    between the endpoints while the case mix shifts young enough that the
    aggregate HFR falls."""
    n = (end - start).days + 1
    intensity = {}
    p_hosp = {}
    hfr = {}
    for band in _SIMPSON_BANDS:
        w_old = _SIMPSON_WEIGHT_OLD[band] * daily_hospitalizations
        w_new = _SIMPSON_WEIGHT_NEW[band] * daily_hospitalizations
        intensity[band] = _sigmoid_step(n, w_old, w_new)
        p_hosp[band] = np.ones(n)
        h_old = _SIMPSON_HFR_OLD[band]
        hfr[band] = _sigmoid_step(n, h_old, h_old * _SIMPSON_HFR_RISE[band])
    return SynthConfig(
        start=start,
        end=end,
        case_intensity=intensity,
        p_hosp=p_hosp,
        hfr=hfr,
        seed=seed,
    )


def simpson_paradox_holds(config: SynthConfig) -> bool:
    """Analytic check on the configured curves: first vs last day, every
    band's HFR rises yet the aggregate HFR falls."""
    bands = tuple(config.case_intensity)
    rises = all(config.hfr[b][-1] > config.hfr[b][0] for b in bands)
    w_old = np.array([config.case_intensity[b][0] * config.p_hosp[b][0] for b in bands])
    w_new = np.array(
        [config.case_intensity[b][-1] * config.p_hosp[b][-1] for b in bands]
    )
    h_old = np.array([config.hfr[b][0] for b in bands])
    h_new = np.array([config.hfr[b][-1] for b in bands])
    agg_old = float(w_old @ h_old / w_old.sum())
    agg_new = float(w_new @ h_new / w_new.sum())
    return rises and agg_new < agg_old
