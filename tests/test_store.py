"""Columnar store round trips."""

import numpy as np
import pytest

from hfrtrend.records import ALL_AGE_BANDS, GENDERS
from hfrtrend.store import (
    NO_STATE,
    STORE_VERSION,
    as_columns,
    day_date,
    load_store,
    save_store,
)
from tests.conftest import make_records


def _state_names(cases):
    return [None if c == NO_STATE else str(cases.state_vocab[c]) for c in cases.state]


class TestStore:
    def test_round_trip_preserves_records(self, rng, tmp_path):
        records = make_records(rng, 200, states=["FL", "NJ", "NYC", "NY", None])
        path = tmp_path / "store.npz"
        n = save_store(path, as_columns(records), meta={"schema": "florida"})
        assert n == 200
        cases, meta = load_store(path)
        assert meta == {"schema": "florida"}
        assert [day_date(d) for d in cases.event_day] == [
            r.event_date for r in records
        ]
        assert [ALL_AGE_BANDS[b] for b in cases.age_band] == [
            r.age_band for r in records
        ]
        assert [GENDERS[g] for g in cases.gender] == [r.gender for r in records]
        assert cases.hospitalized.tolist() == [r.hospitalized for r in records]
        assert cases.died.tolist() == [r.died for r in records]
        assert _state_names(cases) == [r.state for r in records]

    def test_state_codes_are_not_truncated(self, rng):
        records = make_records(rng, 50, states=["NYC", "NY", "FL"])
        cases = as_columns(records)
        assert sorted(cases.state_vocab.tolist()) == ["FL", "NY", "NYC"]
        (code,) = cases.state_codes(["NYC", "TX"])
        assert cases.state_vocab[code] == "NYC"
        assert (cases.state == code).sum() == sum(r.state == "NYC" for r in records)

    def test_empty_store(self, tmp_path):
        path = tmp_path / "store.npz"
        assert save_store(path, as_columns([])) == 0
        cases, _ = load_store(path)
        assert len(cases) == 0
        assert cases.state_vocab.size == 0

    def test_version_check(self, tmp_path):
        path = tmp_path / "store.npz"
        np.savez_compressed(
            path, version=np.int64(STORE_VERSION + 1), meta_json=np.str_("{}")
        )
        with pytest.raises(ValueError, match="version"):
            load_store(path)

    @pytest.mark.parametrize("version", [1, None])
    def test_old_or_unversioned_store_rejected(self, tmp_path, version):
        path = tmp_path / "store.npz"
        payload = {"meta_json": np.str_("{}")}
        if version is not None:
            payload["version"] = np.int64(version)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match=f"store version {version}"):
            load_store(path)
