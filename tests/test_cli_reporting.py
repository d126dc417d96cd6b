"""Tests for the CLI and text reporting."""

from __future__ import annotations


import pytest

from repro.cli import build_parser, main
from repro.experiments.reporting import format_value, render_table


class TestFormatValue:
    def test_floats_rounded(self):
        assert format_value(3.14159, precision=2) == "3.14"

    def test_nan_rendered_as_dash(self):
        assert format_value(float("nan")) == "-"

    def test_tiny_floats_scientific(self):
        assert "e" in format_value(1e-9)

    def test_ints_and_strings(self):
        assert format_value(42) == "42"
        assert format_value("x") == "x"

    def test_zero(self):
        assert format_value(0.0) == "0.000"


class TestRenderTable:
    def test_alignment(self):
        table = render_table(
            ["name", "value"],
            [("a", 1.0), ("long-name", 12.5)],
            precision=1,
        )
        lines = table.splitlines()
        assert len(lines) == 4
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # all lines equally wide

    def test_row_width_validation(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [(1,)])

    def test_empty_rows(self):
        table = render_table(["a"], [])
        assert "a" in table


class TestCLI:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig09" in out and "fastssp" in out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_table2(self, capsys):
        assert main(["table2", "--scale", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "Deltacom" in out and "113" in out

    def test_fig13(self, capsys):
        assert main(["fig13"]) == 0
        out = capsys.readouterr().out
        assert "6000" in out and "90.0" in out

    def test_fig14(self, capsys):
        assert main(["fig14"]) == 0
        out = capsys.readouterr().out
        assert "1000000" in out

    def test_fig08(self, capsys):
        assert main(["fig08", "--sites", "80"]) == 0
        out = capsys.readouterr().out
        assert "Weibull" in out

    def test_database(self, capsys):
        assert main(["database", "--endpoints", "50000"]) == 0
        out = capsys.readouterr().out
        assert "rejected 0" in out

    def test_fastssp(self, capsys):
        assert main(["fastssp", "--instances", "2", "--items", "50"]) == 0
        out = capsys.readouterr().out
        assert "True" in out

    def test_fig02(self, capsys):
        assert main(["fig02", "--epochs", "48"]) == 0
        out = capsys.readouterr().out
        assert "pair #4" in out or "modes" in out

    def test_parser_covers_all_commands(self):
        parser = build_parser()
        # Parsing each registered command with defaults must not raise.
        for command in ("fig13", "fig14", "list"):
            args = parser.parse_args([command])
            assert args.command == command


class TestSparkline:
    def test_basic_shape(self):
        from repro.experiments.reporting import render_sparkline

        line = render_sparkline([1, 2, 3, 4, 5])
        assert len(line) == 5
        assert line[0] == "▁" and line[-1] == "█"

    def test_constant_series(self):
        from repro.experiments.reporting import render_sparkline

        assert render_sparkline([3, 3, 3]) == "▁▁▁"

    def test_nan_rendered_as_space(self):
        from repro.experiments.reporting import render_sparkline

        line = render_sparkline([1.0, float("nan"), 2.0])
        assert line[1] == " "

    def test_downsampling(self):
        from repro.experiments.reporting import render_sparkline

        line = render_sparkline(list(range(1000)), width=40)
        assert len(line) == 40

    def test_empty(self):
        from repro.experiments.reporting import render_sparkline

        assert render_sparkline([]) == ""


class TestRenderCDF:
    def test_shape(self):
        from repro.experiments.reporting import render_cdf

        plot = render_cdf([1, 2, 3, 4, 5], width=20, height=4)
        lines = plot.splitlines()
        assert len(lines) == 6  # 4 rows + axis + labels

    def test_monotone_fill(self):
        from repro.experiments.reporting import render_cdf

        plot = render_cdf(list(range(100)), width=30, height=5)
        rows = plot.splitlines()[:5]
        # Lower CDF thresholds have at least as much fill.
        fills = [row.count("█") for row in rows]
        assert fills == sorted(fills)

    def test_empty(self):
        from repro.experiments.reporting import render_cdf

        assert render_cdf([]) == "(empty)"


class TestSolveCommand:
    @pytest.fixture()
    def artifacts(self, tmp_path):
        from repro.topology import b4, contract, dump_topology
        from repro.traffic import generate_demands, write_demands_csv

        topo = contract(
            b4(),
            site_pairs=[("B4-00", "B4-05")],
            tunnels_per_pair=2,
            total_endpoints=60,
            seed=1,
        )
        demands = generate_demands(topo, seed=2, target_load=1.0)
        tpath = str(tmp_path / "t.json")
        dpath = str(tmp_path / "d.csv")
        dump_topology(topo, tpath)
        with open(dpath, "w", encoding="utf-8") as handle:
            write_demands_csv(demands, handle)
        return tpath, dpath

    def test_solve_with_demand_file(self, artifacts, capsys):
        tpath, dpath = artifacts
        assert main(
            ["solve", "--topology", tpath, "--demands", dpath]
        ) == 0
        out = capsys.readouterr().out
        assert "MegaTE" in out and "satisfied" in out

    def test_solve_generates_demands(self, artifacts, capsys):
        tpath, _ = artifacts
        assert main(
            ["solve", "--topology", tpath, "--load", "1.2"]
        ) == 0
        out = capsys.readouterr().out
        assert "feasible=True" in out

    def test_solve_other_scheme(self, artifacts, capsys):
        tpath, dpath = artifacts
        assert main(
            ["solve", "--topology", tpath, "--demands", dpath,
             "--scheme", "teal"]
        ) == 0
        assert "TEAL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "option, content",
        [
            ("--topology", None),  # missing file
            ("--topology", "dir"),  # a directory instead of a file
            ("--topology", "{not json"),
            ("--topology", "[]"),  # JSON, but not a topology document
            ("--demands", None),
            ("--demands", "site_pair,src,dst\n"),  # wrong header
            (
                "--demands",
                "site_pair_index,src_endpoint,dst_endpoint,"
                "volume_gbps,qos\n0,1,2\n",  # short row
            ),
        ],
    )
    def test_bad_input_file_is_a_usage_error(
        self, artifacts, tmp_path, capsys, option, content
    ):
        """Status 2 and one ``repro solve:`` line, never a traceback."""
        tpath, _ = artifacts
        bad = tmp_path / "bad"
        if content == "dir":
            bad.mkdir()
        elif content is not None:
            bad.write_text(content, encoding="utf-8")
        if option == "--topology":
            argv = ["solve", "--topology", str(bad)]
        else:
            argv = ["solve", "--topology", tpath, "--demands", str(bad)]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro solve: {option} {bad}: ")
        assert captured.out == ""


class TestObservabilityCLI:
    """The ``metrics``/``trace`` subcommands and the shared output flags."""

    TINY = ["--endpoints", "600", "--pairs", "6", "--intervals", "2",
            "--seed", "5"]

    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        from repro import obs

        yield
        obs.set_enabled(False)
        obs.reset()

    def test_metrics_prometheus_text(self, capsys):
        assert main(["metrics", *self.TINY]) == 0
        out = capsys.readouterr().out
        assert "# TYPE megate_solves_total counter" in out
        assert "megate_solve_seconds_bucket" in out
        assert "megate_satisfied_fraction" in out

    def test_metrics_json_to_file(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main(
            ["metrics", *self.TINY, "--json", "--out", str(path)]
        ) == 0
        snapshot = json.loads(path.read_text())
        assert snapshot["megate_solves_total"]["kind"] == "counter"

    def test_trace_profile_table(self, capsys):
        assert main(["trace", *self.TINY]) == 0
        out = capsys.readouterr().out
        assert "Span profile" in out
        assert "te.solve" in out
        assert "te.phase." in out

    def test_trace_jsonl_out(self, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        assert main(["trace", *self.TINY, "--out", str(path)]) == 0
        events = [
            json.loads(line)
            for line in path.read_text().splitlines()
        ]
        assert events
        by_id = {e["span_id"]: e for e in events}
        # Every solver-phase span nests (transitively) under te.solve.
        phases = [
            e for e in events if e["name"].startswith("te.phase.")
        ]
        assert phases
        for event in phases:
            node = event
            while node["parent_id"] is not None:
                node = by_id[node["parent_id"]]
                if node["name"] == "te.solve":
                    break
            assert node["name"] == "te.solve"

    def test_replay_json_out(self, tmp_path):
        import json

        path = tmp_path / "replay.json"
        assert main([
            "replay", *self.TINY, "--json", "--out", str(path),
        ]) == 0
        outcome = json.loads(path.read_text())
        assert outcome["digest_match"] is True
        assert "cold" in outcome and "incremental" in outcome

    def test_replay_trace_and_metrics_out(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.prom"
        assert main([
            "replay", *self.TINY,
            "--trace-out", str(trace_path),
            "--metrics-out", str(metrics_path),
        ]) == 0
        assert trace_path.read_text().count("\n") > 0
        assert "megate_solves_total" in metrics_path.read_text()

    def test_chaos_json_out(self, tmp_path):
        import json

        path = tmp_path / "chaos.json"
        assert main([
            "chaos", "--intensities", "0.5", "--agents", "5",
            "--shards", "2", "--horizon", "30", "--seed", "1",
            "--json", "--out", str(path),
        ]) == 0
        rows = json.loads(path.read_text())
        assert len(rows) == 1
        assert rows[0]["intensity"] == 0.5

    def test_reporting_flags_uniform(self):
        """Every reporting subcommand exposes --seed, --json and --out."""
        parser = build_parser()
        for command in (
            "replay", "chaos", "soak", "stream", "metrics", "trace",
        ):
            args = parser.parse_args([command])
            for flag in ("seed", "json", "out"):
                assert hasattr(args, flag), (command, flag)

    @pytest.mark.parametrize("command", ["soak", "stream"])
    @pytest.mark.parametrize(
        "content", ["not json\n", '{"history": [{"kind": "soak"}]}\n']
    )
    def test_bad_history_fails_before_any_interval(
        self, tmp_path, capsys, monkeypatch, command, content
    ):
        """A malformed ``--history`` file is a usage error (status 2, one
        ``repro <command>:`` line) raised before the run starts."""
        from repro.experiments import soak_study, stream_study

        def no_run(*args, **kwargs):
            raise AssertionError("an interval ran before --history was read")

        monkeypatch.setattr(soak_study, "run_soak_study", no_run)
        monkeypatch.setattr(stream_study, "run_stream_study", no_run)
        bad = tmp_path / "bad.json"
        bad.write_text(content, encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--history", str(bad)])
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith(f"repro {command}: --history {bad}: ")
        assert captured.out == ""

    def test_soak_json_report_and_history(self, tmp_path):
        import json

        report_path = tmp_path / "soak.json"
        metrics_path = tmp_path / "soak.prom"
        history_path = tmp_path / "hist.json"
        argv = [
            "soak", "--scenario", "link-flap",
            "--endpoints", "2000", "--pairs", "20",
            "--intervals", "4", "--seed", "0",
            "--agents", "8", "--shards", "2",
            "--json", "--out", str(report_path),
            "--metrics-out", str(metrics_path),
            "--history", str(history_path),
        ]
        assert main(argv) == 0
        report = json.loads(report_path.read_text())
        assert report["scenario"] == "link-flap"
        assert report["violations"] == []
        assert len(report["records"]) == 4
        assert "megate_soak_intervals_total" in metrics_path.read_text()
        from repro.experiments.bench_history import load_history

        history = load_history(history_path)
        assert len(history) == 1
        assert history[0]["kind"] == "soak"
        assert history[0]["identity_digest"] == report["identity_digest"]

    def test_stream_json_report_and_history(self, tmp_path):
        import json

        report_path = tmp_path / "stream.json"
        metrics_path = tmp_path / "stream.prom"
        history_path = tmp_path / "hist.json"
        argv = [
            "stream", "--scenario", "flash-crowd",
            "--trigger", "hybrid", "--predictor", "last-value",
            "--endpoints", "2000", "--pairs", "24",
            "--events", "8", "--seed", "0",
            "--json", "--out", str(report_path),
            "--metrics-out", str(metrics_path),
            "--history", str(history_path),
        ]
        assert main(argv) == 0
        study = json.loads(report_path.read_text())
        assert study["scenario"] == "flash-crowd"
        assert study["trigger"] == "hybrid"
        assert study["oracle_ratio"] > 0
        for run in ("oracle", "candidate", "no_admission", "admission"):
            assert study[run]["solves"] >= 1
            assert 0.0 < study[run]["satisfied_fraction"] <= 1.0
        assert "megate_stream_resolves_total" in metrics_path.read_text()
        from repro.experiments.bench_history import load_history

        history = load_history(history_path)
        assert len(history) == 1
        assert history[0]["kind"] == "stream"
        assert history[0]["trigger"] == "hybrid"
        assert (
            history[0]["identity_digest"]
            == study["candidate"]["identity_digest"]
        )

    def test_stream_table_output(self, capsys):
        argv = [
            "stream", "--scenario", "diurnal-shift",
            "--trigger", "delta",
            "--endpoints", "2000", "--pairs", "20",
            "--events", "6", "--seed", "1",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "oracle ratio" in out
        assert "identity digest" in out

    def test_soak_gate_exits_nonzero_on_violation(self, tmp_path, capsys):
        # A zero staleness bound cannot be met; the gate must exit
        # non-zero.  --no-gate downgrades it to a report.
        import json

        import repro.simulation.soak as soak_mod

        argv = [
            "soak", "--scenario", "baseline",
            "--endpoints", "2000", "--pairs", "20",
            "--intervals", "2", "--seed", "0",
            "--agents", "4", "--shards", "2",
            "--json", "--out", str(tmp_path / "r.json"),
        ]
        import unittest.mock

        strict = soak_mod.SLOSpec(max_staleness_p99_s=0.0)
        with unittest.mock.patch.object(
            soak_mod, "SLOSpec", lambda: strict
        ):
            with pytest.raises(SystemExit, match="SLO violations"):
                main(argv)
            assert main(argv + ["--no-gate"]) == 0
        report = json.loads((tmp_path / "r.json").read_text())
        assert any(
            "staleness p99" in v for v in report["violations"]
        )


class TestVerifyScorecard:
    def test_fast_checks_pass(self):
        from repro.experiments.summary import (
            _check_database,
            _check_fastssp,
            _check_fig13_fig14,
            _check_table2,
        )

        for check in (
            _check_table2,
            _check_fig13_fig14,
            _check_database,
            _check_fastssp,
        ):
            result = check()
            assert result.passed, (result.name, result.measured)
            assert result.claim and result.measured

    def test_crashing_check_reported_not_raised(self, monkeypatch):
        import repro.experiments.summary as summary

        def boom():
            raise RuntimeError("kaboom")

        monkeypatch.setattr(summary, "_CHECKS", [boom])
        results = summary.run_all_checks()
        assert len(results) == 1
        assert not results[0].passed
        assert "kaboom" in results[0].measured

    def test_verify_in_parser(self):
        parser = build_parser()
        args = parser.parse_args(["verify"])
        assert args.command == "verify"
