"""Shared fixtures and the acceptance-summary reporting hook."""

import datetime as dt
import re

import numpy as np
import pytest

from hfrtrend import LineRecord
from hfrtrend.records import AGE_BANDS, ALL_AGE_BANDS, GENDERS
from hfrtrend.store import PROFILES


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_records(rng, n, start=dt.date(2020, 4, 1), span_days=60, states=None):
    """Random normalized records over a date span (test data helper)."""
    records = []
    for _ in range(n):
        day = int(rng.integers(0, span_days))
        hosp = bool(rng.random() < 0.2)
        died = hosp and bool(rng.random() < 0.3)
        records.append(
            LineRecord(
                event_date=start + dt.timedelta(days=day),
                age_band=ALL_AGE_BANDS[rng.integers(0, len(ALL_AGE_BANDS))],
                gender=GENDERS[rng.integers(0, len(GENDERS))],
                hospitalized=hosp,
                died=died,
                state=None if states is None else states[rng.integers(0, len(states))],
            )
        )
    return records


def unpack(cases):
    """Per-case fields of the store's cells, decoded apart from the store,
    each cell repeated by its count: days since 1970-01-01 (int32), band
    and gender indices (uint8), the two outcomes (bool) and the state code."""
    band_gender, outcome = np.divmod(cases.profile, 4)
    band, gender = np.divmod(band_gender, len(GENDERS))
    fields = {"day": cases.date_vocab[cases.date], "band": band, "gender": gender,
              "hospitalized": outcome % 2 == 1, "died": outcome >= 2, "state": cases.state}
    return {name: np.repeat(field, cases.count) for name, field in fields.items()}


def assert_distinct_cells(cases):
    """The store's cells are distinct, in key order, and each holds a case."""
    key = (cases.date.astype(np.int64) * PROFILES + cases.profile) * 256 + cases.state
    assert (np.diff(key) > 0).all() and (cases.count > 0).all()


def case_records(cases):
    """The cases of the store's cells as LineRecords, one per case, in
    cell order: compare them with records as a multiset."""
    states = dict(enumerate(cases.state_vocab.tolist()))  # no name for NO_STATE
    epoch = dt.date(1970, 1, 1)
    return [LineRecord(epoch + dt.timedelta(days=day), ALL_AGE_BANDS[band],
                       GENDERS[gender], hospitalized, died, states.get(state))
            for day, band, gender, hospitalized, died, state in zip(
                *(field.tolist() for field in unpack(cases).values()))]


_CRITERION_RE = re.compile(r"test_criterion_(\d+)")

_CRITERION_TITLES = {
    1: "smoothing matches naive window-loop oracle",
    2: "cohort table matches nested-loop group-by oracle",
    3: "spline: line reproduction, OLS limit, banded vs dense solve",
    4: "bootstrap determinism and zero-residual degeneracy",
    5: "95% interval coverage on block-correlated noise in [0.88, 0.99]",
    6: "end-to-end recovery of the -0.40 step-down drop",
    7: "Simpson scenario: per-band rises, aggregate falls",
    8: "published-table reproduction from real files",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion."""
    results = {}
    for status in ("passed", "failed", "error", "skipped"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance" not in nodeid:
                continue
            m = _CRITERION_RE.search(nodeid)
            if m:
                results[int(m.group(1))] = status
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    label = {"passed": "PASS", "failed": "FAIL", "error": "FAIL", "skipped": "SKIP"}
    for num in sorted(results):
        title = _CRITERION_TITLES.get(num, "")
        terminalreporter.write_line(
            f"criterion {num}: {label[results[num]]} - {title}"
        )
