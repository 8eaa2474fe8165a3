"""Schema config loading and merge behavior."""

from dataclasses import replace

import pytest

from hfrtrend.ingest import parse_florida_lines
from hfrtrend.schemas import (
    BUILTIN_SCHEMAS,
    CDC_SCHEMA,
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

    @pytest.mark.parametrize("text, key", [
        ('{"base": "florida", "gender_column": "Sex", "gender_column": "G"}',
         "gender_column"),
        ('{"base": "florida", "outcome_spellings": {"si": "yes", "si": "no"}}', "si"),
        ('{"base": "florida", "outcome_spellings": {"Si": "yes", "si": "no"}}', "si"),
        ('{"base": "florida", "gender_spellings": {"f": "male", " F ": "female"}}',
         " F "),
    ], ids=["field", "spelling", "spelling_folded", "spelling_stripped"])
    def test_repeated_key_is_schema_error(self, tmp_path, text, key):
        """json.load keeps the last of two equal keys; a schema refuses
        both, and two keys of one spelling map that fold equal."""
        path = tmp_path / "schema.json"
        path.write_text(text)
        with pytest.raises(SchemaError, match=f"schema.json.* repeats key '{key}'"):
            load_schema(str(path))

    def test_user_key_overrides_base_key_once_folded(self, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text('{"base": "florida", "outcome_spellings": {" Y ": "no"}}')
        spellings = load_schema(str(path)).outcome_spellings
        assert spellings["y"] == "no" and " y " not in spellings


class TestFold:
    """Schema keys and confirmed values are folded as cell text is."""

    def test_spelling_key_with_spaces_matches_its_cells(self, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text('{"base": "florida", "gender_spellings": {" Fem ": "female"}}')
        src = tmp_path / "fl.csv"
        src.write_text("ChartDate,Age,Gender,Hospitalized,Died\n"
                       "2020-04-01,34,FEM,NO,NO\n")
        records, report = parse_florida_lines(src, load_schema(str(schema)))
        assert report.rejected_rows_by_reason == {}
        assert records[0].gender == "female"

    def test_confirmed_value_in_the_files_own_spelling(self, tmp_path):
        schema = tmp_path / "schema.json"
        schema.write_text('{"base": "cdc",'
                          ' "confirmed_values": ["Laboratory-confirmed case"]}')
        src = tmp_path / "cdc.csv"
        src.write_text("cdc_report_dt,pos_spec_dt,age_group,sex,hosp_yn,death_yn,"
                       "res_state,current_status\n"
                       "2020-04-01,,50 - 59 Years,Male,No,No,NY,"
                       "Laboratory-confirmed case\n")
        _, report = parse_florida_lines(src, load_schema(str(schema)))
        assert (report.kept_rows, report.total_rows) == (1, 1)

    def test_schema_built_in_code_is_folded(self):
        schema = replace(CDC_SCHEMA, confirmed_values=(" Probable Case ",),
                         gender_spellings={" NB ": "other-unknown"})
        assert schema.confirmed_values == ("probable case",)
        assert schema.gender_spellings == {"nb": "other-unknown"}
        with pytest.raises(SchemaError, match="gender_spellings repeats key 'f'"):
            replace(CDC_SCHEMA, gender_spellings={"F": "female", "f": "female"})
