"""The miners' grow / size-1 counters count every engine call, split by caller.

Each test wraps the support engines' ``grow`` and ``initial`` the way an
external profiler would (replacing the public attributes), marks the calls
made inside :meth:`ClosureChecker.check`, mines, and compares those counts
with :class:`~repro.core.gsgrow.MiningStats` and its registry mirror.
"""

from __future__ import annotations

import pytest

from repro.core.clogsgrow import CloGSgrow
from repro.core.closure import ClosureChecker
from repro.core.engine import COMPRESSED_ENGINE, FULL_LANDMARK_ENGINE
from repro.core.gsgrow import GSgrow
from repro.datagen.ibm import QuestParameters, QuestSequenceGenerator
from repro.obs import MetricsRegistry


class EngineCalls:
    """Counts of the wrapped engine calls, split by whether a check was running."""

    def __init__(self, monkeypatch):
        self.dfs_grows = 0
        self.closure_grows = 0
        self.initials = 0
        self._checking = 0
        for engine in (COMPRESSED_ENGINE, FULL_LANDMARK_ENGINE):
            monkeypatch.setattr(engine, "grow", self._counted_grow(engine.grow))
            monkeypatch.setattr(engine, "initial", self._counted_initial(engine.initial))
        monkeypatch.setattr(ClosureChecker, "check", self._marked_check(ClosureChecker.check))

    def _counted_grow(self, grow):
        def counted(*args, **kwargs):
            if self._checking:
                self.closure_grows += 1
            else:
                self.dfs_grows += 1
            return grow(*args, **kwargs)

        return counted

    def _counted_initial(self, initial):
        def counted(*args, **kwargs):
            self.initials += 1
            return initial(*args, **kwargs)

        return counted

    def _marked_check(self, check):
        def marked(*args, **kwargs):
            self._checking += 1
            try:
                return check(*args, **kwargs)
            finally:
                self._checking -= 1

        return marked


def _quest_database():
    params = QuestParameters(D=5, C=20, N=10, S=20)
    return QuestSequenceGenerator(params, scale=0.005, seed=2).generate()


@pytest.fixture(params=["table3", "quest"])
def database(request, table3):
    return table3 if request.param == "table3" else _quest_database()


def _min_sup(database):
    return 2 if len(database) <= 2 else 6


@pytest.mark.parametrize("spill", [False, True], ids=["resident", "spill"])
@pytest.mark.parametrize("store_instances", [False, True], ids=["compressed", "full"])
def test_clogsgrow_counts_every_engine_call(
    monkeypatch, tmp_path, database, spill, store_instances
):
    calls = EngineCalls(monkeypatch)
    obs = MetricsRegistry()
    options = {"spill_budget": 64, "spill_dir": str(tmp_path)} if spill else {}
    miner = CloGSgrow(
        _min_sup(database), max_length=4, store_instances=store_instances, obs=obs, **options
    )
    result = miner.mine(database)
    assert len(result) > 0
    stats = miner.stats
    assert stats.dfs_grow_calls == calls.dfs_grows
    assert stats.closure_grow_calls == calls.closure_grows > 0
    assert stats.initial_calls == calls.initials > 0
    assert stats.ins_grow_calls == calls.dfs_grows + calls.closure_grows
    assert result.stats["ins_grow_calls"] == stats.ins_grow_calls
    counters = obs.snapshot()["counters"]
    assert counters["mine.grow.dfs"] == calls.dfs_grows
    assert counters["mine.grow.closure"] == calls.closure_grows
    assert counters["mine.initial"] == calls.initials


def test_size_one_sets_are_built_once_per_event(monkeypatch, database):
    calls = EngineCalls(monkeypatch)
    miner = CloGSgrow(_min_sup(database), max_length=4)
    miner.mine(database)
    # DFS roots and closure probes share one size-1 set per event.
    assert calls.initials <= len({event for sequence in database for event in sequence})


@pytest.mark.parametrize("spill", [False, True], ids=["resident", "spill"])
def test_gsgrow_has_no_closure_share(monkeypatch, tmp_path, database, spill):
    calls = EngineCalls(monkeypatch)
    options = {"spill_budget": 64, "spill_dir": str(tmp_path)} if spill else {}
    miner = GSgrow(_min_sup(database), max_length=3, **options)
    miner.mine(database)
    assert miner.stats.dfs_grow_calls == calls.dfs_grows > 0
    assert miner.stats.closure_grow_calls == calls.closure_grows == 0
    assert miner.stats.initial_calls == calls.initials > 0


def test_closed_mine_does_only_the_bounded_work():
    """Exact work of the repository benchmark's closed mine.

    Quest D5 C20 N10 S20 at scale 0.02 (100 sequences, 61 frequent events),
    ``CloGSgrow(12, max_length=4)``.  Growing only the appends the Apriori
    bound allows keeps the patterns, nodes, checks and prunes and takes the
    DFS from 28,731 grows to 7,311, the closure checker from 17,790 to 6,029
    and the extension probes from 18,300 to 6,500.
    """
    params = QuestParameters(D=5, C=20, N=10, S=20)
    database = QuestSequenceGenerator(params, scale=0.02, seed=2).generate()
    miner = CloGSgrow(12, max_length=4)
    result = miner.mine(database)
    stats = miner.stats
    assert len(result) == stats.patterns_reported == 355
    assert stats.nodes_visited == stats.closure_checks == 711
    assert stats.nodes_pruned_lbcheck == 250
    assert stats.dfs_grow_calls == 7_311
    assert stats.closure_grow_calls == 6_029
    assert stats.extension_evaluations == 6_500
