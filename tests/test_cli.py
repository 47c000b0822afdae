"""Tests for the ``python -m repro`` command-line interface."""


import json
import threading
import urllib.request

import pytest

from repro.__main__ import main


class TestStats:
    def test_prints_table1(self, capsys):
        assert main(["--scale", "tiny", "stats"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output and "DBLP" in output


class TestExperiments:
    def test_single_experiment(self, capsys):
        assert main(["--scale", "tiny", "experiments", "table4"]) == 0
        output = capsys.readouterr().out
        assert "Table 4" in output
        assert "neighborhood" in output

    def test_unknown_experiment_rejected(self, capsys):
        assert main(["--scale", "tiny", "experiments", "table42"]) == 2
        assert "unknown experiments" in capsys.readouterr().err

    def test_extension_runs(self, capsys):
        assert main(["--scale", "tiny", "experiments",
                     "self-mapping"]) == 0
        assert "duplicate clusters" in capsys.readouterr().out


class TestFigures:
    def test_all_figures_match(self, capsys):
        assert main(["figures"]) == 0
        output = capsys.readouterr().out
        assert "all figures match the paper: True" in output


class TestExport:
    def test_exports_mapping_tables(self, tmp_path, capsys):
        out = tmp_path / "mappings"
        assert main(["--scale", "tiny", "export", "--out", str(out)]) == 0
        files = sorted(path.name for path in out.glob("*.csv"))
        assert any(name.startswith("DBLP_PubAuthor") for name in files)
        assert any(name.startswith("gold_publications") for name in files)

    def test_exported_tables_reimportable(self, tmp_path):
        from repro.model.io import read_mapping_csv
        out = tmp_path / "mappings"
        main(["--scale", "tiny", "export", "--out", str(out)])
        path = next(out.glob("DBLP_CoAuthor.csv"))
        mapping = read_mapping_csv(path, domain="DBLP.Author",
                                   range="DBLP.Author")
        assert len(mapping) > 0


class TestSeedScale:
    def test_seed_changes_world(self, capsys):
        main(["--scale", "tiny", "--seed", "1", "stats"])
        first = capsys.readouterr().out
        main(["--scale", "tiny", "--seed", "2", "stats"])
        second = capsys.readouterr().out
        assert first != second


class TestServe:
    def test_serve_command_answers_requests(self, capsys, monkeypatch):
        """``repro serve`` binds the HTTP service over the generated
        reference; drive one /match round trip, then shut down."""
        from repro.serve import http as serve_http

        answers = {}
        real_build_server = serve_http.build_server

        def build_and_probe(service, host, port):
            server = real_build_server(service, host, port)

            def probe():
                try:
                    bound_host, bound_port = server.server_address[:2]
                    title = service.index.get(
                        service.index.ids()[0]).get("title")
                    body = json.dumps({"record": {
                        "id": "probe", "attributes": {"title": title}}})
                    request = urllib.request.Request(
                        f"http://{bound_host}:{bound_port}/v1/match",
                        data=body.encode(),
                        headers={"Content-Type": "application/json"})
                    with urllib.request.urlopen(
                            request, timeout=10) as response:
                        answers["match"] = json.loads(response.read())
                finally:
                    server.shutdown()  # a dead probe must not hang serve

            threading.Thread(target=probe, daemon=True).start()
            return server

        monkeypatch.setattr(serve_http, "build_server", build_and_probe)
        assert main(["--scale", "tiny", "serve", "--port", "0",
                     "--threshold", "0.9"]) == 0
        output = capsys.readouterr().out
        assert "serving DBLP.Publication" in output
        matches = answers["match"]["matches"]["probe"]
        assert matches and matches[0][1] == 1.0

    def test_serve_flag_validation(self, capsys):
        assert main(["--workers", "0", "stats"]) == 2
        assert "--workers" in capsys.readouterr().err
        assert main(["--scale", "tiny", "serve", "--threshold", "1.5"]) == 2
        assert "--threshold" in capsys.readouterr().err
        assert main(["--scale", "tiny", "serve",
                     "--max-candidates", "-1"]) == 2
        assert "--max-candidates" in capsys.readouterr().err


class TestServeKnobFlags:
    def test_new_serve_knobs_parse_with_defaults(self):
        from repro.__main__ import _build_parser

        args = _build_parser().parse_args(["serve"])
        assert args.missing == "skip"
        assert args.cache_size == 1024
        assert args.compact_ratio == 0.25
        assert args.compact_min == 64

    def test_new_serve_knobs_accept_overrides(self):
        from repro.__main__ import _build_parser

        args = _build_parser().parse_args(
            ["serve", "--missing", "zero", "--cache-size", "0",
             "--compact-ratio", "0.5", "--compact-min", "128"])
        assert args.missing == "zero"
        assert args.cache_size == 0
        assert args.compact_ratio == 0.5
        assert args.compact_min == 128

    def test_missing_flag_rejects_unknown_policy(self, capsys):
        from repro.__main__ import _build_parser

        with pytest.raises(SystemExit):
            _build_parser().parse_args(["serve", "--missing", "explode"])

    def test_pruning_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["--scale", "tiny", "serve", "--pruning", "never"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --pruning never" \
            in capsys.readouterr().err

    def test_lint_subcommand_accepts_cache_flags(self):
        from repro.__main__ import _build_parser

        args = _build_parser().parse_args(
            ["lint", "--cache", "scratch.json", "--no-cache"])
        assert args.lint_cache == "scratch.json"
        assert args.lint_no_cache is True


class TestEngineFlags:
    def test_shard_blocking_flag_configures_default_engine(self, capsys):
        from repro.engine import get_default_engine, set_default_engine

        try:
            assert main(["--scale", "tiny", "--workers", "2",
                         "--shard-blocking", "experiments", "table2"]) == 0
            engine = get_default_engine()
            assert engine.config.workers == 2
            assert engine.config.shard_blocking is True
            assert "Table 2" in capsys.readouterr().out
        finally:
            set_default_engine(None)

    def test_sharded_run_matches_streamed_run(self, capsys):
        from repro.engine import set_default_engine

        def trim(text):
            # strip the trailing wall-time line before comparing
            return [line for line in text.splitlines()
                    if not line.strip().startswith("[table2")]

        try:
            main(["--scale", "tiny", "experiments", "table2"])
            streamed = capsys.readouterr().out
            main(["--scale", "tiny", "--workers", "2", "--shard-blocking",
                  "experiments", "table2"])
            sharded = capsys.readouterr().out
            assert trim(streamed) == trim(sharded)
        finally:
            set_default_engine(None)
