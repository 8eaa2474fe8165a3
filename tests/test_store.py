"""Columnar store round trips."""

import datetime as dt
import itertools
import zipfile
from collections import Counter
from dataclasses import fields

import numpy as np
import pytest

from hfrtrend import LineRecord
from hfrtrend.records import ALL_AGE_BANDS, GENDERS
from hfrtrend.schemas import SchemaError
from hfrtrend.store import (
    MAX_DATES,
    MAX_STATES,
    NO_STATE,
    PROFILES,
    STORE_VERSION,
    CaseColumns,
    as_columns,
    day_date,
    load_store,
    open_npz,
    save_store,
    write_npz,
)
from tests.conftest import assert_distinct_cells, case_records, make_records


class TestStore:
    def test_round_trip_preserves_records(self, rng, tmp_path):
        records = make_records(rng, 2000, span_days=10,
                               states=["FL", "NJ", "NYC", "NY", None])
        path = tmp_path / "store.npz"
        save_store(path, as_columns(records), meta={"schema": "florida"})
        cases, meta = load_store(path)
        assert meta == {"schema": "florida"}
        assert [getattr(cases, f.name).dtype for f in fields(CaseColumns)][:5] == [
            np.uint8, np.uint16, np.uint8, np.uint32, np.int32]
        assert Counter(case_records(cases)) == Counter(records)
        assert_distinct_cells(cases)
        assert cases.count.sum() == 2000 > len(cases.count)
        # vocabularies are distinct, in first-seen order
        assert [day_date(d) for d in cases.date_vocab] == list(
            dict.fromkeys(r.event_date for r in records))
        assert cases.state_vocab.tolist() == list(
            dict.fromkeys(r.state for r in records if r.state))

    def test_every_profile_round_trips(self):
        """All 120 (band, gender, hospitalized, died) combinations pack to
        distinct codes and unpack to themselves."""
        combos = list(itertools.product(ALL_AGE_BANDS, GENDERS, (False, True),
                                        (False, True)))
        assert len(combos) == PROFILES == 120
        records = [LineRecord(dt.date(2020, 4, 1), *c) for c in combos]
        cases = as_columns(records)
        assert cases.profile.tolist() == list(range(PROFILES))
        assert Counter(case_records(cases)) == Counter(records)

    @pytest.mark.parametrize("what, limit", [("event dates", MAX_DATES),
                                             ("states", MAX_STATES)])
    def test_vocabulary_past_its_column_is_refused(self, what, limit):
        """The record path refuses what ingest refuses, at the same limit."""
        dates = what == "event dates"
        first = dt.date(1800, 1, 1)
        records = [LineRecord(first + dt.timedelta(days=i * dates), "0-9", "female",
                              False, False, None if dates else f"S{i}")
                   for i in range(limit + 1)]
        assert as_columns(records[:limit]).count.sum() == limit
        with pytest.raises(SchemaError, match=f"^more than {limit:,} distinct {what}:"):
            as_columns(records)

    def test_state_codes_are_not_truncated(self, rng):
        records = make_records(rng, 50, states=["NYC", "NY", "FL"])
        cases = as_columns(records)
        assert sorted(cases.state_vocab.tolist()) == ["FL", "NY", "NYC"]
        (code,) = cases.state_codes(["NYC", "TX"])
        assert cases.state_vocab[code] == "NYC"
        assert cases.count[cases.state == code].sum() == sum(
            r.state == "NYC" for r in records)

    def test_empty_store(self, tmp_path):
        path = tmp_path / "store.npz"
        save_store(path, as_columns([]), meta={})
        cases, meta = load_store(path)
        assert meta == {}
        assert cases.count.size == 0
        assert cases.state_vocab.size == 0

    def test_version_check(self, tmp_path):
        path = tmp_path / "store.npz"
        np.savez_compressed(
            path, version=np.int64(STORE_VERSION + 1), meta_json=np.str_("{}")
        )
        with pytest.raises(ValueError, match="version"):
            load_store(path)

    @pytest.mark.parametrize("version", [1, 2, 3, None])
    def test_old_or_unversioned_store_rejected(self, tmp_path, version):
        path = tmp_path / "store.npz"
        payload = {"meta_json": np.str_("{}")}
        if version is not None:
            payload["version"] = np.int64(version)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match=f"store version {version} .*re-run ingest$"):
            load_store(path)


class TestWriteNpz:
    ARRAYS = {"version": np.int64(2), "meta_json": np.str_('{"a": 1}'),
              "day": np.arange(1000, dtype=np.int32) // 7,
              "flag": np.arange(1000) % 3 == 0,
              "vocab": np.array(["NYC", "NY", "TX"]),
              "strided": np.arange(20, dtype=np.int32)[::3]}

    def test_two_writes_are_byte_identical(self, tmp_path):
        write_npz(tmp_path / "a.npz", **self.ARRAYS)
        write_npz(tmp_path / "b.npz", **self.ARRAYS)
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_numpy_layout_at_level_one(self, tmp_path):
        """The members, their stamps and their payloads are those of
        `np.savez_compressed`; only the deflate level differs."""
        ours, numpys = tmp_path / "ours.npz", tmp_path / "numpy.npz"
        write_npz(ours, **self.ARRAYS)
        np.savez_compressed(numpys, **self.ARRAYS)
        with zipfile.ZipFile(ours) as a, zipfile.ZipFile(numpys) as b:
            assert [(i.filename, i.date_time, i.CRC, i.file_size, i.compress_type)
                    for i in a.infolist()] == [
                (i.filename, i.date_time, i.CRC, i.file_size, i.compress_type)
                for i in b.infolist()]
        with open_npz(ours, "test") as npz, np.load(numpys) as want:
            for name in self.ARRAYS:
                assert npz[name].dtype == want[name].dtype
                np.testing.assert_array_equal(npz[name], want[name])
