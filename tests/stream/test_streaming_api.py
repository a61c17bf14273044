"""End-to-end tests of the streaming surfaces: mine_stream and the CLI."""

from __future__ import annotations

import pytest

from repro.api import mine_stream
from repro.cli import main as cli_main, parse_stream_line
from repro.core.clogsgrow import mine_closed
from repro.datagen.markov import MarkovSequenceGenerator


def _sequences(n=12, seed=0):
    db = MarkovSequenceGenerator(
        num_sequences=n, num_events=5, average_length=10.0, concentration=4.0, seed=seed
    ).generate()
    return db.sequences


def canon(result):
    return sorted((mp.pattern.events, mp.support) for mp in result)


class TestMineStream:
    def test_updates_are_batched_and_final_state_matches_batch(self):
        sequences = _sequences(10)
        updates = list(mine_stream(sequences, 4, refresh_every=3, shard_size=4, max_length=4))
        # 10 appends at refresh_every=3 -> updates after 3, 6, 9 and a final flush.
        assert [u.appended for u in updates] == [3, 3, 3, 1]
        assert updates[-1].total_sequences == 10
        from repro.db.database import SequenceDatabase

        batch = mine_closed(SequenceDatabase(sequences), 4, max_length=4)
        assert canon(updates[-1].result) == canon(batch)

    def test_window_is_respected(self):
        updates = list(mine_stream(_sequences(9), 3, window=4, refresh_every=4, shard_size=2))
        assert updates[-1].total_sequences == 4
        assert any(u.evicted > 0 for u in updates)

    def test_all_patterns_mode(self):
        sequences = _sequences(8, seed=1)
        updates = list(mine_stream(sequences, 4, closed=False, refresh_every=8, max_length=3))
        assert len(updates) == 1
        from repro.core.gsgrow import mine_all
        from repro.db.database import SequenceDatabase

        batch = mine_all(SequenceDatabase(sequences), 4, max_length=3)
        assert canon(updates[0].result) == canon(batch)

    def test_rejects_bad_refresh_interval(self):
        with pytest.raises(ValueError):
            list(mine_stream([], 2, refresh_every=0))


class TestParseStreamLine:
    def test_text_chars_spmf(self):
        assert parse_stream_line("a b c", "text") == ["a", "b", "c"]
        assert parse_stream_line("abc", "chars") == ["a", "b", "c"]
        assert parse_stream_line("1 -1 2 -1 3 -1 -2", "spmf") == ["1", "2", "3"]

    def test_comments_and_blanks_are_skipped(self):
        assert parse_stream_line("", "text") is None
        assert parse_stream_line("# comment", "text") is None
        assert parse_stream_line("-2", "spmf") is None


class TestMineStreamCli:
    def _write_stream(self, tmp_path, lines):
        path = tmp_path / "stream.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_matches_batch_mine_output(self, tmp_path, capsys):
        lines = ["a b c a b c a", "a a b b c c c", "a b c a b", "b c a b c"]
        path = self._write_stream(tmp_path, lines)
        assert cli_main(["mine-stream", path, "--min-sup", "4", "--refresh-every", "2"]) == 0
        stream_out = capsys.readouterr().out
        assert cli_main(["mine", path, "--min-sup", "4"]) == 0
        batch_out = capsys.readouterr().out
        stream_patterns = [l for l in stream_out.splitlines() if l and not l.startswith("#")]
        batch_patterns = [l for l in batch_out.splitlines() if l and not l.startswith("#")]
        assert stream_patterns == batch_patterns
        assert "# update 1:" in stream_out and "# update 2:" in stream_out

    def test_follow_mode_stops_at_max_updates(self, tmp_path, capsys):
        path = self._write_stream(tmp_path, ["a b a b", "b a b a"])
        code = cli_main(
            [
                "mine-stream",
                path,
                "--min-sup",
                "2",
                "--follow",
                "--poll-interval",
                "0.01",
                "--max-updates",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# update 1:" in out and "# update 2:" not in out

    @pytest.mark.parametrize("backend", ["ram", "disk"])
    def test_follow_mode_ends_cleanly_on_ctrl_c(self, tmp_path, capsys, monkeypatch, backend):
        lines = ["a b c a b c a", "a a b b c c c", "a b c a b", "b c a b c", "a b c"]
        path = self._write_stream(tmp_path, lines)

        def interrupt(seconds):
            raise KeyboardInterrupt

        db_dir = tmp_path / "db"
        options = ["--db-backend", "disk", "--db-dir", str(db_dir)] if backend == "disk" else []
        monkeypatch.setattr("repro.cli.time.sleep", interrupt)
        code = cli_main(
            ["mine-stream", path, "--min-sup", "4", "--refresh-every", "2", "--follow", *options]
        )
        assert code == 0
        stream_out = capsys.readouterr().out
        assert "# update 3:" in stream_out and "# update 4:" not in stream_out
        assert cli_main(["mine", path, "--min-sup", "4"]) == 0
        batch_out = capsys.readouterr().out
        stream_patterns = [l for l in stream_out.splitlines() if l and not l.startswith("#")]
        batch_patterns = [l for l in batch_out.splitlines() if l and not l.startswith("#")]
        assert stream_patterns and stream_patterns == batch_patterns
        if backend == "disk":
            assert list(db_dir.iterdir()) == []

    def test_follow_mode_ignores_partially_written_lines(self, tmp_path, capsys):
        path = tmp_path / "stream.txt"
        path.write_text("a b a b\nb a b a\na b ")  # last line still in flight
        code = cli_main(
            [
                "mine-stream",
                str(path),
                "--min-sup",
                "2",
                "--follow",
                "--poll-interval",
                "0.01",
                "--max-updates",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # Only the two complete lines were ingested; the in-flight third
        # line must not be split off as a bogus ['a', 'b'] sequence.
        assert "window=2" in out

    def test_non_follow_mode_consumes_final_unterminated_line(self, tmp_path, capsys):
        path = tmp_path / "stream.txt"
        path.write_text("a b a b\nb a b a\na b a b")  # finished file, no trailing newline
        assert cli_main(["mine-stream", str(path), "--min-sup", "2"]) == 0
        assert "window=3" in capsys.readouterr().out

    def test_rejects_non_positive_refresh_interval(self, tmp_path, capsys):
        path = self._write_stream(tmp_path, ["a b"])
        with pytest.raises(SystemExit):
            cli_main(["mine-stream", str(path), "--min-sup", "2", "--refresh-every", "0"])
        assert "must be >= 1" in capsys.readouterr().err

    def test_window_and_all_flags(self, tmp_path, capsys):
        path = self._write_stream(tmp_path, ["a b a b", "b a b a", "a b a b"])
        code = cli_main(
            ["mine-stream", path, "--min-sup", "2", "--all", "--window", "2", "--shard-size", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "StreamMiner(GSgrow)" in out
