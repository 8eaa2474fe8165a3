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
        path = tmp_path / "schema.yaml"
        path.write_text(
            "base: florida\n"
            "event_date_column: EventDate\n"
            "outcome_spellings:\n"
            "  si: 'yes'\n"
        )
        schema = load_schema(str(path))
        assert schema.event_date_column == "EventDate"
        assert schema.outcome_spellings["si"] == "yes"
        assert schema.outcome_spellings["y"] == "yes"  # base map retained
        assert schema.age_column == "Age"

    def test_base_via_argument(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text("gender_column: Sex\n")
        schema = load_schema(str(path), base="florida")
        assert schema.gender_column == "Sex"
        assert schema.name == "florida"

    def test_standalone_schema(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text(
            "name: custom\n"
            "event_date_column: d\n"
            "gender_column: g\n"
            "hospitalized_column: h\n"
            "died_column: x\n"
        )
        schema = load_schema(str(path))
        assert schema.name == "custom"

    def test_unknown_field_is_schema_error(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text("base: florida\nnot_a_field: 1\n")
        with pytest.raises(SchemaError):
            load_schema(str(path))

    def test_non_mapping_file_rejected(self, tmp_path):
        path = tmp_path / "schema.yaml"
        path.write_text("- just\n- a\n- list\n")
        with pytest.raises(SchemaError):
            load_schema(str(path))
