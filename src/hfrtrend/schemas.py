"""Declarative parse schemas for the supported line-list file layouts.

Column names and category spellings in public surveillance files drift
over time, so they live in data (a YAML file or the built-in defaults
below) rather than in parser code.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .records import AGE_BANDS


class SchemaError(ValueError):
    """Raised when a schema config or an input header is unusable."""


@dataclass(frozen=True)
class ParseSchema:
    name: str
    event_date_column: str
    gender_column: str
    hospitalized_column: str
    died_column: str
    delimiter: str = ","
    date_formats: tuple[str, ...] = ("%Y-%m-%d", "%Y/%m/%d", "%m/%d/%Y")
    age_column: str | None = None  # integer years
    age_band_column: str | None = None  # pre-binned band labels
    state_column: str | None = None
    confirmation_column: str | None = None
    confirmed_values: tuple[str, ...] = ()
    alt_event_date_column: str | None = None  # sensitivity-analysis switch
    outcome_spellings: dict[str, str] = field(default_factory=dict)
    gender_spellings: dict[str, str] = field(default_factory=dict)
    age_band_spellings: dict[str, str] = field(default_factory=dict)

    def required_columns(self) -> list[str]:
        cols = [
            self.event_date_column,
            self.gender_column,
            self.hospitalized_column,
            self.died_column,
        ]
        for optional in (
            self.age_column,
            self.age_band_column,
            self.state_column,
            self.confirmation_column,
        ):
            if optional is not None:
                cols.append(optional)
        return cols


_COMMON_OUTCOME_SPELLINGS = {
    "yes": "yes",
    "y": "yes",
    "no": "no",
    "n": "no",
    "unknown": "unknown",
    "unk": "unknown",
    "": "missing",
    "missing": "missing",
    "nan": "missing",
    "na": "missing",
}

_COMMON_GENDER_SPELLINGS = {
    "female": "female",
    "f": "female",
    "male": "male",
    "m": "male",
    "unknown": "other-unknown",
    "missing": "other-unknown",
    "other": "other-unknown",
    "": "other-unknown",
    "nan": "other-unknown",
}

# CDC-style "30 - 39 Years" labels plus plain band labels.
_COMMON_BAND_SPELLINGS = {b: b for b in AGE_BANDS}
_COMMON_BAND_SPELLINGS.update(
    {f"{b.replace('-', ' - ')} years": b for b in AGE_BANDS if b != "80+"}
)
_COMMON_BAND_SPELLINGS.update(
    {
        "80+ years": "80+",
        "unknown": "unknown",
        "missing": "unknown",
        "": "unknown",
        "nan": "unknown",
    }
)

FLORIDA_SCHEMA = ParseSchema(
    name="florida",
    event_date_column="ChartDate",
    age_column="Age",
    gender_column="Gender",
    hospitalized_column="Hospitalized",
    died_column="Died",
    outcome_spellings=dict(_COMMON_OUTCOME_SPELLINGS),
    gender_spellings=dict(_COMMON_GENDER_SPELLINGS),
    age_band_spellings=dict(_COMMON_BAND_SPELLINGS),
)

CDC_SCHEMA = ParseSchema(
    name="cdc",
    event_date_column="cdc_report_dt",
    alt_event_date_column="pos_spec_dt",
    age_band_column="age_group",
    gender_column="sex",
    hospitalized_column="hosp_yn",
    died_column="death_yn",
    state_column="res_state",
    confirmation_column="current_status",
    confirmed_values=("laboratory-confirmed case",),
    outcome_spellings=dict(_COMMON_OUTCOME_SPELLINGS),
    gender_spellings=dict(_COMMON_GENDER_SPELLINGS),
    age_band_spellings=dict(_COMMON_BAND_SPELLINGS),
)

BUILTIN_SCHEMAS = {"florida": FLORIDA_SCHEMA, "cdc": CDC_SCHEMA}


def load_schema(path: str, base: str | None = None) -> ParseSchema:
    """Load a schema from YAML, optionally overriding a built-in base.

    The file may set any ParseSchema field; spelling maps are merged into
    the base's maps rather than replacing them.
    """
    import yaml  # only schema files need it; keeps it off the CLI's import

    with open(path, "r", encoding="utf-8") as fh:
        raw = yaml.safe_load(fh) or {}
    if not isinstance(raw, dict):
        raise SchemaError(f"schema file {path} must contain a mapping")
    base_name = raw.pop("base", base)
    schema = BUILTIN_SCHEMAS.get(base_name) if base_name else None

    merged_maps = {}
    for key in ("outcome_spellings", "gender_spellings", "age_band_spellings"):
        if key in raw:
            combined = dict(getattr(schema, key)) if schema else {}
            combined.update({str(k).lower(): v for k, v in raw.pop(key).items()})
            merged_maps[key] = combined
    for key in ("date_formats", "confirmed_values"):
        if key in raw:
            raw[key] = tuple(raw[key])

    try:
        if schema is not None:
            return replace(schema, **raw, **merged_maps)
        return ParseSchema(**raw, **merged_maps)
    except TypeError as exc:
        raise SchemaError(f"bad schema file {path}: {exc}") from exc
