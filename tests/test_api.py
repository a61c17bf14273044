"""Tests for the top-level package façade."""

import pytest

import repro
from repro import api


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_quickstart_snippet(self):
        db = repro.SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
        assert repro.repetitive_support(db, "AB") == 4
        closed = repro.mine_closed(db, 2)
        frequent = repro.mine_all(db, 2)
        assert len(closed) <= len(frequent)


class TestMineFacade:
    def test_closed_by_default(self, table3):
        closed = api.mine(table3, 3)
        assert closed.algorithm == "CloGSgrow"
        assert "AB" not in closed

    def test_all_patterns_option(self, table3):
        frequent = api.mine(table3, 3, closed=False)
        assert frequent.algorithm == "GSgrow"
        assert "AB" in frequent

    def test_kwargs_forwarded(self, table3):
        capped = api.mine(table3, 3, closed=False, max_length=1)
        assert all(len(p) == 1 for p in capped.patterns())


class TestMineMany:
    def _batch(self):
        return [
            repro.SequenceDatabase.from_strings(["AABCDABB", "ABCD"]),
            repro.SequenceDatabase.from_strings(["ABCABCA", "AABBCCC"]),
            repro.SequenceDatabase.from_strings(["XYXYXY"]),
        ]

    def test_serial_matches_per_database_mine(self):
        batch = self._batch()
        results = api.mine_many(batch, 2)
        assert len(results) == len(batch)
        for db, result in zip(batch, results, strict=False):
            assert result.as_dict() == api.mine(db, 2).as_dict()

    def test_empty_batch(self):
        assert api.mine_many([], 2) == []

    def test_index_inputs_accepted(self, table3):
        index = repro.InvertedEventIndex(table3)
        serial = api.mine_many([index, table3], 3)
        assert serial[0].as_dict() == serial[1].as_dict()

    def test_kwargs_shared_across_batch(self):
        results = api.mine_many(self._batch(), 2, closed=False, max_length=1)
        assert all(len(p) == 1 for result in results for p in result.patterns())

    def test_process_pool_matches_serial(self):
        batch = self._batch()
        serial = api.mine_many(batch, 2)
        sharded = api.mine_many(batch, 2, n_jobs=2)
        assert [r.as_dict() for r in sharded] == [r.as_dict() for r in serial]

    def test_process_pool_over_disk_indexes(self, tmp_path):
        # A disk-backed index's database is bound to its open store and does
        # not pickle; the pool must ship plain sequences instead.
        from repro.stream.database import StreamingSequenceDatabase

        batch = self._batch()
        streams = [
            StreamingSequenceDatabase(db, db_backend="disk", db_dir=str(tmp_path / f"db{k}"))
            for k, db in enumerate(batch)
        ]
        try:
            sharded = api.mine_many([stream.index for stream in streams], 2, n_jobs=2)
        finally:
            for stream in streams:
                stream.index.backend.close()
        serial = api.mine_many(batch, 2)
        assert [r.as_dict() for r in sharded] == [r.as_dict() for r in serial]

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_disk_backend_in_one_db_dir_matches_ram(self, tmp_path, n_jobs):
        # Each database's index gets its own directory under db_dir; one
        # shared store would replay the earlier databases' segments.
        batch = self._batch()
        on_disk = api.mine_many(batch, 2, n_jobs=n_jobs, db_backend="disk", db_dir=str(tmp_path))
        in_ram = api.mine_many(batch, 2)
        assert [r.as_dict() for r in on_disk] == [r.as_dict() for r in in_ram]
        assert list(tmp_path.iterdir()) == []


class TestMineManyTelemetry:
    """Pool workers' telemetry must not be lost (the PR-9 regression).

    The parent registry after ``mine_many(n_jobs=4)`` must hold exactly
    the counter totals a serial run accumulates — worker registries ship
    home via :class:`~repro.obs.aggregate.WorkerTelemetry` and merge
    additively, so parallelism is invisible in the counters.
    """

    def _batch(self):
        return [
            repro.SequenceDatabase.from_strings(["AABCDABB", "ABCD"]),
            repro.SequenceDatabase.from_strings(["ABCABCA", "AABBCCC"]),
            repro.SequenceDatabase.from_strings(["XYXYXY"]),
            repro.SequenceDatabase.from_strings(["AABBAABB", "ABAB"]),
        ]

    def test_pooled_counters_equal_serial_totals(self):
        from repro.obs import MetricsRegistry

        serial_obs = MetricsRegistry()
        api.mine_many(self._batch(), 2, obs=serial_obs)
        pooled_obs = MetricsRegistry()
        api.mine_many(self._batch(), 2, n_jobs=4, obs=pooled_obs)

        serial_counters = serial_obs.dump()["counters"]
        pooled_counters = pooled_obs.dump()["counters"]
        assert serial_counters, "serial run recorded no counters"
        assert pooled_counters == serial_counters

    def test_pooled_spans_stitch_into_the_callers_trace(self):
        from repro.obs import MetricsRegistry, TraceRecorder, activated, root_context

        obs = MetricsRegistry(recorder=TraceRecorder())
        ambient = root_context()
        with activated(ambient):
            api.mine_many(self._batch(), 2, n_jobs=2, obs=obs)
        workers = [s for s in obs.recorder.spans() if s.name == "mine.worker.seconds"]
        assert len(workers) == len(self._batch())
        assert {s.trace_id for s in workers} == {ambient.trace_id}
        assert {s.parent_id for s in workers} <= {ambient.span_id}

    def test_pooled_instruments_equal_serial(self, instrument_counts):
        from repro.obs import MetricsRegistry

        serial_obs = MetricsRegistry()
        api.mine_many(self._batch(), 2, obs=serial_obs)
        pooled_obs = MetricsRegistry()
        api.mine_many(self._batch(), 2, n_jobs=2, obs=pooled_obs)
        assert instrument_counts(pooled_obs) == instrument_counts(serial_obs)
        assert instrument_counts(serial_obs)["histograms"]["mine.worker.seconds"] == len(
            self._batch()
        )

    def test_disabled_registry_adds_no_worker_overhead(self):
        from repro.obs import MetricsRegistry

        obs = MetricsRegistry(enabled=False)
        results = api.mine_many(self._batch(), 2, n_jobs=2, obs=obs)
        assert len(results) == len(self._batch())
        assert obs.dump() == {"counters": {}, "gauges": {}, "histograms": {}}


class TestMatchFacade:
    def test_match_from_result(self, example11):
        result = api.mine(example11, 2)
        matched = api.match(result, example11)
        assert matched.supports() == result.as_dict()

    def test_match_single_sequence_equals_repetitive_support(self, example11):
        result = api.mine(example11, 2)
        matched = api.match(result, "AABCDABB")
        for pattern, support in matched.supports().items():
            single = repro.SequenceDatabase.from_strings(["AABCDABB"])
            assert support == api.repetitive_support(single, pattern)

    def test_save_load_match_lifecycle(self, example11, tmp_path):
        result = api.mine(example11, 2)
        path = api.save_patterns(result, tmp_path / "patterns.rps")
        store = api.load_patterns(path)
        assert store.to_result().as_dict() == result.as_dict()
        matched = api.match(store, example11)
        assert matched.coverage() == 1.0

    def test_score_sequences(self, example11):
        result = api.mine(example11, 2)
        scores = api.score_sequences(result, ["AABCDABB", "XYZ"])
        assert len(scores) == 2
        assert scores[0].coverage > scores[1].coverage
        assert scores[1].anomaly == 1.0
