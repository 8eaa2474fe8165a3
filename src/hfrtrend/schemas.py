"""Declarative parse schemas for the supported line-list file layouts.

Column names and category spellings in public surveillance files drift
over time, so they live in data (a JSON file or the built-in defaults
below) rather than in parser code.
"""

from __future__ import annotations

import csv
import json
import zlib
from dataclasses import dataclass, field, fields, replace

from .records import AGE_BANDS, ALL_AGE_BANDS, GENDERS, OUTCOME_CATEGORIES


class SchemaError(ValueError):
    """Raised when a schema config, an input header or a file the tool
    reads back is unusable."""


# Bad input, not a bad program: each exits 2 from the CLI. OSError covers
# an unreadable or unwritable path and a corrupt gzip header; csv.Error a
# field over csv.field_size_limit().
DATA_ERRORS = (SchemaError, OSError, EOFError, zlib.error, UnicodeDecodeError,
               json.JSONDecodeError, csv.Error)

_SPELLING_MAPS = ("outcome_spellings", "gender_spellings", "age_band_spellings")


def fold(text: str) -> str:
    """The form in which cell text meets schema keys and confirmed values."""
    return text.strip().lower()


def _unique(pairs, where: str, key=str) -> dict:
    """The pairs as a dict keyed by key(k), refusing a key that repeats."""
    out = {}
    for k, v in pairs:
        if key(k) in out:
            raise SchemaError(f"{where} repeats key {k!r}")
        out[key(k)] = v
    return out


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

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise SchemaError(f"schema name must be a string, not {self.name!r}")
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name.endswith("_column") and not (
                    isinstance(value, str) or value is None and f.default is None):
                raise SchemaError(f"schema {self.name}: {f.name} must be a "
                                  f"column name, not {value!r}")
        if not (isinstance(self.delimiter, str) and len(self.delimiter) == 1):
            raise SchemaError(f"schema {self.name}: delimiter must be one "
                              f"character, not {self.delimiter!r}")
        for key, categories in zip(_SPELLING_MAPS,
                                   (OUTCOME_CATEGORIES, GENDERS, ALL_AGE_BANDS)):
            unknown = [v for v in getattr(self, key).values() if v not in categories]
            if unknown:
                raise SchemaError(f"schema {self.name}: {key} maps to unknown categories "
                                  f"{unknown}; expected one of {', '.join(categories)}")
            object.__setattr__(self, key, _unique(
                getattr(self, key).items(), f"schema {self.name}: {key}", fold))
        object.__setattr__(self, "confirmed_values",
                           tuple(map(fold, self.confirmed_values)))


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
    """Load a schema from a JSON object, optionally overriding a built-in base.

    The file may set any ParseSchema field; spelling maps are merged into
    the base's maps rather than replacing them. A key given twice in one
    object, or twice in one spelling map once folded, is an error.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=lambda pairs: _unique(
                pairs, f"schema file {path}"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SchemaError(f"cannot read schema file {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"schema file {path} must contain an object")
    base_name = raw.pop("base", base)
    # a tuple, not the dict: a JSON array or object is not hashable
    if base_name is not None and base_name not in tuple(BUILTIN_SCHEMAS):
        raise SchemaError(f"schema file {path}: base must be one of "
                          f"{', '.join(BUILTIN_SCHEMAS)}, not {base_name!r}")
    schema = BUILTIN_SCHEMAS.get(base_name)

    merged_maps = {}
    for key in _SPELLING_MAPS:
        if key in raw:
            spellings = raw.pop(key)
            if not isinstance(spellings, dict):
                raise SchemaError(f"schema file {path}: {key} must be an object")
            combined = dict(getattr(schema, key)) if schema else {}
            combined.update(_unique(spellings.items(),
                                    f"schema file {path}: {key}", fold))
            merged_maps[key] = combined
    for key in ("date_formats", "confirmed_values"):
        if key in raw:
            if not (isinstance(raw[key], list)
                    and all(isinstance(v, str) for v in raw[key])):
                raise SchemaError(f"schema file {path}: {key} must list strings")
            raw[key] = tuple(raw[key])

    try:
        if schema is not None:
            return replace(schema, **raw, **merged_maps)
        return ParseSchema(**raw, **merged_maps)
    except TypeError as exc:
        raise SchemaError(f"bad schema file {path}: {exc}") from exc
