"""Schema config loading and merge behavior."""

import pytest

from hfrtrend.schemas import (
    BUILTIN_SCHEMAS,
    SchemaError,
    load_schema,
)


class TestBuiltins:
    def test_cdc_has_confirmation_filter(self):
        cdc = BUILTIN_SCHEMAS["cdc"]
        assert cdc.confirmation_column == "current_status"
        assert "laboratory-confirmed case" in cdc.confirmed_values


class TestLoadSchema:
    def test_override_merges_spellings_into_base(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"base": "florida", "event_date_column": "EventDate",'
                        ' "outcome_spellings": {"si": "yes"}}')
        schema = load_schema(str(path))
        assert schema.event_date_column == "EventDate"
        assert schema.outcome_spellings["si"] == "yes"
        assert schema.outcome_spellings["y"] == "yes"  # base map retained
        assert schema.age_column == "Age"

    def test_base_via_argument(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"gender_column": "Sex"}')
        schema = load_schema(str(path), base="florida")
        assert schema.gender_column == "Sex"
        assert schema.name == "florida"

    def test_standalone_schema(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"name": "custom", "event_date_column": "d",'
                        ' "gender_column": "g", "hospitalized_column": "h",'
                        ' "died_column": "x"}')
        schema = load_schema(str(path))
        assert schema.name == "custom"

    def test_unknown_field_is_schema_error(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"base": "florida", "not_a_field": 1}')
        with pytest.raises(SchemaError):
            load_schema(str(path))

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('["just", "a", "list"]')
        with pytest.raises(SchemaError):
            load_schema(str(path))

    def test_boolean_words_stay_spelling_keys(self, tmp_path):
        """YAML 1.1 read unquoted `on` and `off` as the booleans true and
        false; JSON keys are always strings."""
        path = tmp_path / "schema.json"
        path.write_text('{"base": "florida",'
                        ' "outcome_spellings": {"on": "yes", "off": "no"}}')
        spellings = load_schema(str(path)).outcome_spellings
        assert spellings["on"] == "yes" and spellings["off"] == "no"
        assert "true" not in spellings and "false" not in spellings

    def test_empty_file_is_schema_error(self, tmp_path):
        """`{}` is the base schema unchanged; an empty file is malformed."""
        path = tmp_path / "schema.json"
        path.write_text("{}")
        assert load_schema(str(path), base="florida") == BUILTIN_SCHEMAS["florida"]
        path.write_text("")
        with pytest.raises(SchemaError, match="schema.json"):
            load_schema(str(path), base="florida")
