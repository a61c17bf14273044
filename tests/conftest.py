"""Shared fixtures: the paper's worked-example databases.

Three databases recur throughout the paper and therefore throughout the test
suite:

* ``example11`` — Example 1.1: ``S1 = AABCDABB``, ``S2 = ABCD``.
* ``table2`` — Table II: ``S1 = ABCABCA``, ``S2 = AABBCCC``.
* ``table3`` — Table III (the running example): ``S1 = ABCACBDDB``,
  ``S2 = ACDBACADD``.

Plus ``no_mmap`` (a host without :mod:`mmap`) and ``instrument_counts`` (a
registry's instruments reduced to what serial and pooled runs must share).
"""

from __future__ import annotations

import pytest

from repro.db.database import SequenceDatabase
from repro.db.index import InvertedEventIndex


@pytest.fixture
def example11() -> SequenceDatabase:
    """The motivating Example 1.1 database."""
    return SequenceDatabase.from_strings(["AABCDABB", "ABCD"], name="example-1.1")


@pytest.fixture
def table2() -> SequenceDatabase:
    """The Table II database used in Examples 2.1-2.3."""
    return SequenceDatabase.from_strings(["ABCABCA", "AABBCCC"], name="table-2")


@pytest.fixture
def table3() -> SequenceDatabase:
    """The Table III running-example database used in Section III."""
    return SequenceDatabase.from_strings(["ABCACBDDB", "ACDBACADD"], name="table-3")


@pytest.fixture
def table3_index(table3) -> InvertedEventIndex:
    """Inverted event index of the Table III database."""
    return InvertedEventIndex(table3)


@pytest.fixture
def no_mmap(monkeypatch):
    """Stand in for a host without :mod:`mmap`: every column file is read as a copy.

    The one switch for pattern stores, index segments and spill files alike,
    since they all map through :mod:`repro.db.columns`.
    """
    from repro.db import columns

    monkeypatch.setattr(columns, "_mmap", None)


@pytest.fixture
def instrument_counts():
    """Reduce a registry to its instrument names, counter values and histogram counts.

    Serial and pooled runs of one call must agree on all three; timings
    (histogram sums and buckets) and gauge values may differ.
    """

    def counts(obs):
        state = obs.dump()
        return {
            "counters": state["counters"],
            "gauges": sorted(state["gauges"]),
            "histograms": {name: hist["count"] for name, hist in state["histograms"].items()},
        }

    return counts
