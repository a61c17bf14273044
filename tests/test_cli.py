"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, load_database, main
from repro.db import io as db_io
from repro.db.database import SequenceDatabase


@pytest.fixture
def chars_file(tmp_path):
    path = tmp_path / "db.txt"
    path.write_text("AABCDABB\nABCD\n")
    return str(path)


@pytest.fixture
def tokens_file(tmp_path):
    path = tmp_path / "tokens.txt"
    path.write_text("login browse buy\nlogin logout\n")
    return str(path)


class TestLoadDatabase:
    def test_formats(self, tmp_path, chars_file, tokens_file):
        db = SequenceDatabase.from_lists([["a", "b"], ["c"]], name="x")
        spmf_path = tmp_path / "db.spmf"
        json_path = tmp_path / "db.json"
        db_io.dump_spmf(db, spmf_path)
        db_io.dump_json(db, json_path)
        assert len(load_database(str(spmf_path), "spmf")) == 2
        assert len(load_database(str(json_path), "json")) == 2
        assert load_database(chars_file, "chars").sequence(1) == "AABCDABB"
        assert load_database(tokens_file, "text").sequence(1) == ["login", "browse", "buy"]

    def test_unknown_format(self, chars_file):
        with pytest.raises(ValueError):
            load_database(chars_file, "parquet")


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_mine_arguments(self):
        args = build_parser().parse_args(
            ["mine", "db.txt", "--min-sup", "3", "--all", "--max-length", "4", "--top", "10"]
        )
        assert args.command == "mine"
        assert args.min_sup == 3
        assert args.all and args.max_length == 4 and args.top == 10

    def test_mine_many_arguments(self):
        args = build_parser().parse_args(
            ["mine-many", "a.txt", "b.txt", "--min-sup", "2", "--jobs", "2"]
        )
        assert args.command == "mine-many"
        assert args.paths == ["a.txt", "b.txt"]
        assert args.min_sup == 2 and args.jobs == 2


class TestCommands:
    def test_support_command(self, chars_file, capsys):
        exit_code = main(["support", chars_file, "--format", "chars", "--pattern", "AB"])
        assert exit_code == 0
        assert capsys.readouterr().out.strip() == "4"

    def test_support_command_with_token_pattern(self, tokens_file, capsys):
        exit_code = main(["support", tokens_file, "--pattern", "login browse"])
        assert exit_code == 0
        assert capsys.readouterr().out.strip() == "1"

    def test_mine_closed_command(self, chars_file, capsys):
        exit_code = main(["mine", chars_file, "--format", "chars", "--min-sup", "2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "CloGSgrow" in out
        assert "AB" in out

    def test_mine_all_command_with_top(self, chars_file, capsys):
        exit_code = main(
            ["mine", chars_file, "--format", "chars", "--min-sup", "2", "--all", "--top", "3"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "GSgrow" in out
        # Header plus exactly three pattern lines.
        assert len([line for line in out.strip().splitlines() if "\t" in line]) == 3

    def test_mine_many_command(self, chars_file, tmp_path, capsys):
        other = tmp_path / "other.txt"
        other.write_text("ABCABCA\nAABBCCC\n")
        exit_code = main(
            ["mine-many", chars_file, str(other), "--format", "chars", "--min-sup", "2"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert out.count("CloGSgrow") == 2
        assert chars_file in out and str(other) in out

    def test_stats_command(self, chars_file, capsys):
        exit_code = main(["stats", chars_file, "--format", "chars"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "num_sequences: 2" in out
        assert "max_length: 8" in out

    def test_mine_profile_prints_phase_and_counter_table(self, chars_file, capsys):
        exit_code = main(
            ["mine", chars_file, "--format", "chars", "--min-sup", "2", "--profile"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "# profile" in out
        for row in ("phase.prepare", "phase.dfs", "phase.total"):
            assert row in out
        for counter in ("nodes_visited", "ins_grow_calls", "grow_rows", "closure_checks"):
            assert counter in out

    def test_mine_without_profile_prints_no_table(self, chars_file, capsys):
        exit_code = main(["mine", chars_file, "--format", "chars", "--min-sup", "2"])
        assert exit_code == 0
        assert "# profile" not in capsys.readouterr().out

    def test_serve_parser_accepts_stats_interval(self):
        args = build_parser().parse_args(
            ["serve", "patterns.rps", "--stats-interval", "0.5"]
        )
        assert args.stats_interval == 0.5

    def test_serve_parser_accepts_trace_flags(self):
        args = build_parser().parse_args(
            ["serve", "patterns.rps", "--trace-out", "spans.jsonl", "--slow-ms", "250"]
        )
        assert args.trace_out == "spans.jsonl"
        assert args.slow_ms == 250.0

    def test_top_parser_defaults(self):
        args = build_parser().parse_args(["top", "--port", "9999"])
        assert args.host == "127.0.0.1"
        assert args.port == 9999
        assert args.interval == 2.0
        assert args.count is None


class TestTopCommand:
    def _snapshot(self, score_requests, ping_requests=0):
        return {
            "counters": {
                "serve.op.score.requests": score_requests,
                "serve.op.ping.requests": ping_requests,
                "serve.requests": score_requests + ping_requests,
                "serve.errors": 0,
                "serve.bytes_in": 100,
                "serve.bytes_out": 200,
            },
            "histograms": {
                "serve.op.score.seconds": {"p50": 0.002, "p99": 0.010},
            },
        }

    def test_first_frame_has_no_rate(self):
        from repro.cli import render_top

        frame = render_top(None, self._snapshot(5), interval=2.0)
        lines = frame.splitlines()
        assert lines[0].split() == ["op", "rate/s", "p50", "p99", "total"]
        score_line = next(line for line in lines if line.startswith("score"))
        assert score_line.split() == ["score", "-", "2.0ms", "10.0ms", "5"]
        assert "requests=5" in lines[-1]

    def test_rate_comes_from_counter_delta(self):
        from repro.cli import render_top

        frame = render_top(self._snapshot(5), self._snapshot(25), interval=2.0)
        score_line = next(
            line for line in frame.splitlines() if line.startswith("score")
        )
        assert score_line.split()[1] == "10.0"  # (25 - 5) / 2s

    def test_zero_count_ops_are_hidden(self):
        from repro.cli import render_top

        frame = render_top(None, self._snapshot(3, ping_requests=0), interval=2.0)
        assert "ping" not in frame

    def test_top_against_live_daemon(self, tmp_path, chars_file, capsys):
        from repro.core.clogsgrow import mine_closed
        from repro.db.database import SequenceDatabase
        from repro.match.store import save_patterns
        from repro.serve import PatternServer, ServeClient

        db = SequenceDatabase.from_strings(["AABCDABB", "ABCD"])
        store = save_patterns(mine_closed(db, 2), tmp_path / "patterns.rps")
        with PatternServer(store) as server:
            host, port = server.address
            with ServeClient(host, port) as client:
                client.ping()
            code = main(
                ["top", "--port", str(port), "--count", "2", "--interval", "0.01"]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("op ") >= 1 or "rate/s" in out
        assert "requests=" in out

    def test_top_against_no_daemon_fails_cleanly(self, capsys):
        import socket

        # grab a port that is certainly not serving
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(["top", "--port", str(port), "--count", "1"])
        assert code == 1
        assert "top:" in capsys.readouterr().err


class TestMatchCommands:
    @pytest.fixture
    def store_file(self, chars_file, tmp_path):
        out = tmp_path / "patterns.rps"
        assert (
            main(
                [
                    "export-patterns",
                    chars_file,
                    "--format",
                    "chars",
                    "--min-sup",
                    "2",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        return str(out)

    def test_export_patterns_binary(self, chars_file, tmp_path, capsys):
        from repro.match import load_patterns

        out_path = tmp_path / "patterns.rps"
        exit_code = main(
            [
                "export-patterns",
                chars_file,
                "--format",
                "chars",
                "--min-sup",
                "2",
                "--out",
                str(out_path),
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "CloGSgrow" in out and str(out_path) in out
        store = load_patterns(out_path)
        assert len(store) == 3
        assert store.min_sup == 2

    def test_export_patterns_json(self, chars_file, tmp_path, capsys):
        from repro.match import load_patterns

        out = tmp_path / "patterns.json"
        exit_code = main(
            [
                "export-patterns",
                chars_file,
                "--format",
                "chars",
                "--min-sup",
                "2",
                "--all",
                "--out",
                str(out),
            ]
        )
        assert exit_code == 0
        assert load_patterns(out).algorithm == "GSgrow"
        assert out.read_text().startswith("{")

    def test_match_command(self, store_file, tmp_path, capsys):
        query = tmp_path / "query.txt"
        query.write_text("ABCABCA\nAABBCCC\nXYZ\n")
        exit_code = main(
            ["match", store_file, str(query), "--format", "chars", "--per-sequence"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "patterns matched" in out
        assert "seq 3\tcoverage=0.000" in out
        assert "4\tAB" in out

    def test_match_command_top_limit(self, store_file, tmp_path, capsys):
        query = tmp_path / "query.txt"
        query.write_text("AABCDABB\n")
        exit_code = main(
            ["match", store_file, str(query), "--format", "chars", "--top", "1"]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert len([line for line in out.splitlines() if "\t" in line]) == 1
