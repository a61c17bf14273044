"""Shared fixtures: the paper's worked-example databases.

Three databases recur throughout the paper and therefore throughout the test
suite:

* ``example11`` — Example 1.1: ``S1 = AABCDABB``, ``S2 = ABCD``.
* ``table2`` — Table II: ``S1 = ABCABCA``, ``S2 = AABBCCC``.
* ``table3`` — Table III (the running example): ``S1 = ABCACBDDB``,
  ``S2 = ACDBACADD``.
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
