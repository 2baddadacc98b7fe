"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["teleport"])


class TestFigureCommands:
    def test_figure2a(self, capsys):
        assert main(["figure2a"]) == 0
        out = capsys.readouterr().out
        assert "66 satellites" in out
        assert "connected: True" in out

    def test_figure2b_quick(self, capsys):
        assert main(["figure2b", "--counts", "10", "40",
                     "--trials", "2", "--epochs", "4"]) == 0
        out = capsys.readouterr().out
        assert "reachability" in out
        assert "40" in out

    def test_figure2b_engine_flag_output_identical(self, capsys):
        pytest.importorskip("scipy")
        args = ["figure2b", "--counts", "10", "25", "--trials", "2",
                "--epochs", "3"]
        assert main(args + ["--engine", "batched"]) == 0
        batched = capsys.readouterr().out
        assert main(args + ["--engine", "scalar"]) == 0
        assert capsys.readouterr().out == batched
        assert main(args) == 0  # scalar is the default
        assert capsys.readouterr().out == batched

    def test_faults_sweep_engine_flag_output_identical(self, capsys):
        pytest.importorskip("scipy")
        args = ["faults", "sweep", "--mtbf-hours", "2", "--mttr", "600",
                "--horizon", "1800", "--epochs", "3", "--seed", "7"]
        assert main(args + ["--engine", "batched"]) == 0
        batched = capsys.readouterr().out
        assert main(args + ["--engine", "scalar"]) == 0
        assert capsys.readouterr().out == batched

    def test_figure2c_quick(self, capsys):
        assert main(["figure2c", "--counts", "4", "25",
                     "--trials", "2"]) == 0
        out = capsys.readouterr().out
        assert "union" in out


class TestCatalog:
    def test_emits_parseable_tles(self, capsys):
        assert main(["catalog", "--kind", "star", "--satellites", "4",
                     "--planes", "2", "--prefix", "TEST"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 12  # 4 satellites x 3 lines
        from repro.orbits.tle import parse_tle
        record = parse_tle(lines[:3])
        assert record.name.startswith("TEST-")

    def test_iridium_catalog_size(self, capsys):
        assert main(["catalog"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 66 * 3


class TestLatency:
    def test_served_location(self, capsys):
        assert main(["latency", "--lat", "-1.29", "--lon", "36.82"]) == 0
        out = capsys.readouterr().out
        assert "ms" in out


class TestDemand:
    def test_sweep_quick(self, capsys):
        assert main(["demand", "sweep", "--satellites", "24",
                     "--hours", "20", "--users", "20000",
                     "--bands", "8", "--equator-columns", "16"]) == 0
        out = capsys.readouterr().out
        assert "served" in out and "revenue_usd" in out
        rows = [line for line in out.strip().splitlines()
                if line.split() and line.split()[0] == "24"]
        assert len(rows) == 1
        assert "True" in rows[0]  # converged

    def test_sweep_rejects_bad_hour(self, capsys):
        assert main(["demand", "sweep", "--satellites", "24",
                     "--hours", "25"]) != 0

    def test_sweep_at_360_satellites(self, capsys):
        # The plane-count heuristic gives 13 here, which does not divide
        # 360; the sweep must snap it to a divisor instead of crashing.
        assert main(["demand", "sweep", "--satellites", "360",
                     "--hours", "12", "--users", "20000",
                     "--bands", "8", "--equator-columns", "16"]) == 0
        rows = [line for line in capsys.readouterr().out.splitlines()
                if line.split() and line.split()[0] == "360"]
        assert len(rows) == 1


class TestObservability:
    def test_trace_covers_engine_routing_and_experiment(self, capsys,
                                                        tmp_path):
        from repro import obs
        from repro.obs.export import read_jsonl

        trace = tmp_path / "out.jsonl"
        metrics = tmp_path / "metrics.csv"
        assert main(["figure2b", "--counts", "10", "25", "--trials", "2",
                     "--epochs", "4", "--trace", str(trace),
                     "--metrics-out", str(metrics)]) == 0
        # The recorder must not leak past the command.
        assert obs.active() is obs.NULL_RECORDER
        records = read_jsonl(trace)
        assert records[0]["type"] == "manifest"
        assert records[0]["command"] == "figure2b"
        assert records[0]["seed"] == 42
        span_layers = {
            record["name"].split(".")[0]
            for record in records if record["type"] == "span"
        }
        assert {"engine", "routing", "experiment"} <= span_layers
        counters = {
            (record["name"], record["label"])
            for record in records if record["type"] == "counter"
        }
        assert ("engine.events", "figure2b.epoch") in counters
        assert metrics.read_text().startswith("type,name,label")

    def test_same_seed_runs_have_identical_metric_values(self, capsys,
                                                         tmp_path):
        from repro.obs.export import read_jsonl

        def capture(name):
            path = tmp_path / name
            assert main(["figure2b", "--counts", "16", "--trials", "2",
                         "--epochs", "3", "--trace", str(path)]) == 0
            capsys.readouterr()
            # The output path itself lands in the manifest config, so
            # drop config fields along with wall-clock timings.  Phase
            # rows export slowest-first, so their order is wall-clock
            # dependent too — compare records order-insensitively.
            nondeterministic = ("duration_s", "total_s", "max_s",
                                "config", "config_hash")
            return sorted(
                (
                    {k: v for k, v in record.items()
                     if k not in nondeterministic}
                    for record in read_jsonl(path)
                ),
                key=lambda record: sorted(
                    (k, str(v)) for k, v in record.items()
                ),
            )

        assert capture("a.jsonl") == capture("b.jsonl")

    def test_obs_summarize(self, capsys, tmp_path):
        trace = tmp_path / "out.jsonl"
        assert main(["figure2a", "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "top spans" in out
        assert "experiment.figure2a" in out
        assert "config_hash" in out

    def test_obs_summarize_missing_file(self, capsys, tmp_path):
        assert main(["obs", "summarize", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such trace file" in capsys.readouterr().err

    def test_obs_summarize_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("this is not json\n")
        assert main(["obs", "summarize", str(bad)]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_unwritable_trace_path_is_clean_error(self, capsys, tmp_path):
        bad = tmp_path / "no-such-dir" / "out.jsonl"
        assert main(["figure2a", "--trace", str(bad)]) == 1
        assert "cannot write telemetry" in capsys.readouterr().err

    def test_no_flags_means_null_recorder(self, capsys):
        from repro import obs

        assert main(["figure2a"]) == 0
        assert obs.active() is obs.NULL_RECORDER

    def test_requires_coordinates(self):
        with pytest.raises(SystemExit):
            main(["latency", "--lat", "10.0"])


class TestEventExportFlags:
    QUICK_SWEEP = ["faults", "sweep", "--mtbf-hours", "2",
                   "--horizon", "1200", "--epochs", "2", "--seed", "7"]

    def test_events_out_writes_timeline(self, capsys, tmp_path):
        from repro.obs.export import read_jsonl

        events = tmp_path / "events.jsonl"
        assert main(self.QUICK_SWEEP + ["--events-out", str(events)]) == 0
        assert "event records)" in capsys.readouterr().out
        records = read_jsonl(events)
        assert records[0]["type"] == "manifest"
        assert records[0]["totals"]["events"] > 0
        kinds = {r["kind"] for r in records if r["type"] == "event"}
        assert "fault.inject" in kinds
        assert {r["type"] for r in records} >= {"health_epochs",
                                                "health_links"}

    def test_events_out_byte_identical_across_runs_and_jobs(self, capsys,
                                                            tmp_path):
        def capture(name, *extra):
            path = tmp_path / name
            assert main(self.QUICK_SWEEP + list(extra)
                        + ["--events-out", str(path)]) == 0
            capsys.readouterr()
            # The manifest embeds the output path and job count; every
            # other record must match byte for byte.
            lines = path.read_text().splitlines()
            assert '"type": "manifest"' in lines[0]
            return lines[1:]

        serial = capture("a.jsonl")
        assert capture("b.jsonl") == serial
        assert capture("p.jsonl", "--jobs", "2") == serial

    def test_prom_out_writes_exposition(self, capsys, tmp_path):
        prom = tmp_path / "metrics.prom"
        assert main(["figure2b", "--counts", "10", "--trials", "2",
                     "--epochs", "3", "--prom-out", str(prom)]) == 0
        assert "exposition lines)" in capsys.readouterr().out
        text = prom.read_text()
        assert "# TYPE" in text
        assert "repro_" in text

    def test_flight_recorder_dump_on_crash(self, capsys, tmp_path,
                                           monkeypatch):
        import repro.cli as cli_module

        def exploding(_args):
            from repro import obs
            obs.event("fault.inject", 1.0, subject="f-0")
            obs.event("link.down", 2.0, subject="S1--S2")
            raise RuntimeError("mid-run crash")

        # build_parser resolves command handlers by name at call time, so
        # patching the module global reroutes the figure2a subcommand.
        monkeypatch.setitem(
            cli_module.__dict__, "_cmd_figure2a", exploding)
        with pytest.raises(RuntimeError, match="mid-run crash"):
            cli_module.main(["figure2a", "--flight-recorder", "8",
                             "--events-out", str(tmp_path / "e.jsonl")])
        err = capsys.readouterr().err
        assert "flight recorder: last 2 of 2 events" in err
        assert "fault.inject" in err
        assert "S1--S2" in err

    def test_bad_flight_recorder_size_is_clean_error(self, capsys):
        assert main(["figure2a", "--flight-recorder", "0"]) == 2
        assert "bad observability options" in capsys.readouterr().err


class TestObsReport:
    def test_report_from_events_file(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main(["faults", "sweep", "--mtbf-hours", "2",
                     "--horizon", "1200", "--epochs", "2", "--seed", "7",
                     "--events-out", str(events)]) == 0
        capsys.readouterr()
        out = tmp_path / "report.html"
        assert main(["obs", "report", str(events),
                     "--out", str(out)]) == 0
        assert "wrote" in capsys.readouterr().out
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "Event timeline" in html
        assert "fault.inject" in html

    def test_report_missing_file(self, capsys, tmp_path):
        assert main(["obs", "report", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such trace file" in capsys.readouterr().err

    def test_report_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        assert main(["obs", "report", str(bad), "--out",
                     str(tmp_path / "r.html")]) == 1
        assert "malformed" in capsys.readouterr().err

    def test_summarize_events_file(self, capsys, tmp_path):
        events = tmp_path / "events.jsonl"
        assert main(["faults", "sweep", "--mtbf-hours", "2",
                     "--horizon", "1200", "--epochs", "2", "--seed", "7",
                     "--events-out", str(events)]) == 0
        capsys.readouterr()
        assert main(["obs", "summarize", str(events)]) == 0
        out = capsys.readouterr().out
        assert "events (" in out
        assert "lowest-availability links" in out


class TestAvailabilityCommand:
    def test_runs_and_reports_both_sweeps(self, capsys):
        assert main(["availability", "--epochs", "2"]) == 0
        out = capsys.readouterr().out
        assert "availability vs fleet size" in out
        assert "walker-star" in out
        assert "resilience to failures" in out


class TestFaultsCommands:
    QUICK_SWEEP = ["faults", "sweep", "--mtbf-hours", "2", "--mttr", "600",
                   "--horizon", "1200", "--epochs", "2", "--seed", "7"]

    def test_sweep_prints_recovery_table(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        out = capsys.readouterr().out
        assert "mtbf_h" in out
        assert "availability" in out

    def test_sweep_same_seed_byte_identical(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        first = capsys.readouterr().out
        assert main(self.QUICK_SWEEP) == 0
        assert capsys.readouterr().out == first

    def test_sweep_requires_faults_subcommand(self):
        with pytest.raises(SystemExit):
            main(["faults"])

    def test_inject_schedule_out_then_replay(self, tmp_path, capsys):
        out_file = tmp_path / "schedule.json"
        assert main(["faults", "inject", "--mtbf-hours", "1",
                     "--mttr", "300", "--horizon", "1200",
                     "--epochs", "2", "--seed", "7",
                     "--schedule-out", str(out_file)]) == 0
        inject_out = capsys.readouterr().out
        assert "faults:" in inject_out
        assert out_file.exists()
        assert main(["faults", "replay", str(out_file),
                     "--epochs", "2"]) == 0
        replay_out = capsys.readouterr().out
        assert "replayed" in replay_out
        # Same schedule, same network: identical recovery summary.
        summary = inject_out[inject_out.index("faults:"):]
        assert replay_out[replay_out.index("faults:"):] == summary

    def test_replay_missing_file(self, capsys, tmp_path):
        assert main(["faults", "replay",
                     str(tmp_path / "nope.json")]) == 1
        assert "no such schedule file" in capsys.readouterr().err

    def test_replay_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["faults", "replay", str(bad)]) == 1
        assert "malformed schedule" in capsys.readouterr().err

    def test_sweep_trace_records_fault_lifecycle(self, capsys, tmp_path):
        from repro.obs.export import read_jsonl

        trace = tmp_path / "faults.jsonl"
        assert main(self.QUICK_SWEEP + ["--trace", str(trace)]) == 0
        records = read_jsonl(trace)
        span_names = {
            record["name"] for record in records
            if record["type"] == "span"
        }
        assert "faults.apply" in span_names
        assert "experiment.resilience_dynamic.sweep" in span_names


class TestReliabilityCommand:
    QUICK_SWEEP = ["reliability", "sweep", "--loss", "0.0", "0.2",
                   "--mtbf-hours", "0.0", "0.3", "--horizon", "600",
                   "--probes", "2", "--seed", "7"]

    def test_sweep_prints_reliability_table(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        out = capsys.readouterr().out
        assert "auth_ok" in out
        assert "inflation" in out
        assert "breaker_opens" in out

    def test_sweep_same_seed_byte_identical(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        first = capsys.readouterr().out
        assert main(self.QUICK_SWEEP) == 0
        assert capsys.readouterr().out == first

    def test_zero_loss_rows_show_no_inflation(self, capsys):
        assert main(["reliability", "sweep", "--loss", "0.0",
                     "--mtbf-hours", "0.0", "--horizon", "300",
                     "--probes", "1", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        row = out.strip().splitlines()[-1].split()
        assert row[2] == row[3]  # auth_ok == baseline_ok
        assert float(row[4]) == 1.0  # one attempt per association
        assert float(row[5]) == 1.0  # no latency inflation

    def test_requires_reliability_subcommand(self):
        with pytest.raises(SystemExit):
            main(["reliability"])

    def test_sweep_trace_records_exchange_metrics(self, capsys, tmp_path):
        from repro.obs.export import read_jsonl

        trace = tmp_path / "reliability.jsonl"
        assert main(["reliability", "sweep", "--loss", "0.2",
                     "--mtbf-hours", "0.0", "--horizon", "300",
                     "--probes", "2", "--seed", "7",
                     "--trace", str(trace)]) == 0
        records = read_jsonl(trace)
        span_names = {
            record["name"] for record in records
            if record["type"] == "span"
        }
        assert "experiment.reliability.sweep" in span_names
        counter_names = {
            record["name"] for record in records
            if record["type"] == "counter"
        }
        assert "reliability.exchange.attempts" in counter_names
        assert "reliability.channel.messages" in counter_names


class TestDtnCommand:
    QUICK_SWEEP = ["dtn", "sweep", "--radius", "0", "1500",
                   "--buffer-kb", "64", "--horizon", "3600",
                   "--step", "600", "--loss", "0", "--sensors", "2",
                   "--satellites", "24", "--interval", "600",
                   "--bundle-bytes", "1024", "--seed", "17"]

    def test_sweep_prints_delivery_table(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        out = capsys.readouterr().out
        assert "ratio" in out and "replans" in out and "drops" in out
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 2

    def test_sweep_same_seed_byte_identical(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        first = capsys.readouterr().out
        assert main(self.QUICK_SWEEP) == 0
        assert capsys.readouterr().out == first

    def test_sweep_rejects_bad_options(self, capsys):
        assert main(["dtn", "sweep", "--radius", "-5"]) != 0
        assert "bad dtn sweep options" in capsys.readouterr().err

    def test_requires_dtn_subcommand(self):
        with pytest.raises(SystemExit):
            main(["dtn"])

    def test_sweep_trace_records_dtn_metrics(self, capsys, tmp_path):
        from repro.obs.export import read_jsonl

        trace = tmp_path / "dtn.jsonl"
        events = tmp_path / "events.jsonl"
        assert main(self.QUICK_SWEEP + ["--trace", str(trace),
                                        "--events-out", str(events)]) == 0
        records = read_jsonl(trace)
        span_names = {
            record["name"] for record in records
            if record["type"] == "span"
        }
        assert "experiment.disrupted.sweep" in span_names
        counter_names = {
            record["name"] for record in records
            if record["type"] == "counter"
        }
        assert "dtn.bundles.created" in counter_names
        assert "dtn.custody.transfers" in counter_names
        event_kinds = {
            record["kind"] for record in read_jsonl(events)
            if record["type"] == "event"
        }
        assert "bundle.create" in event_kinds
        assert "bundle.deliver" in event_kinds
        assert "custody.accept" in event_kinds

    def test_sweep_events_identical_across_jobs(self, capsys, tmp_path):
        def capture(name, *extra):
            path = tmp_path / name
            assert main(self.QUICK_SWEEP + list(extra)
                        + ["--events-out", str(path)]) == 0
            capsys.readouterr()
            lines = path.read_text().splitlines()
            assert '"type": "manifest"' in lines[0]
            return lines[1:]

        serial = capture("a.jsonl")
        assert capture("b.jsonl") == serial
        assert capture("p.jsonl", "--jobs", "2") == serial


class TestScaleCommand:
    QUICK_SWEEP = ["scale", "sweep", "--satellites", "48",
                   "--epochs", "3"]

    def test_sweep_prints_scale_table(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        out = capsys.readouterr().out
        assert "churn_mean" in out and "digests" in out
        rows = out.strip().splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].split()[-1] == "ok"

    def test_sweep_byte_identical_across_jobs_and_spatial(self, capsys):
        assert main(self.QUICK_SWEEP) == 0
        first = capsys.readouterr().out
        assert main(self.QUICK_SWEEP + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == first
        for mode in ("on", "off"):
            assert main(self.QUICK_SWEEP + ["--spatial", mode]) == 0
            assert capsys.readouterr().out == first

    def test_no_digest_check_prints_placeholder(self, capsys):
        assert main(self.QUICK_SWEEP + ["--no-digest-check"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert rows[0].split()[-1] == "--"

    def test_sweep_rejects_bad_options(self, capsys):
        assert main(["scale", "sweep", "--satellites", "1"]) != 0
        assert "bad scale sweep options" in capsys.readouterr().err

    def test_requires_scale_subcommand(self):
        with pytest.raises(SystemExit):
            main(["scale"])

    def test_sweep_trace_records_epochs(self, capsys, tmp_path):
        from repro.obs.export import read_jsonl

        trace = tmp_path / "scale.jsonl"
        assert main(self.QUICK_SWEEP + ["--trace", str(trace)]) == 0
        records = read_jsonl(trace)
        span_names = {
            record["name"] for record in records
            if record["type"] == "span"
        }
        assert "experiment.scale.sweep" in span_names
        counter_names = {
            record["name"] for record in records
            if record["type"] == "counter"
        }
        assert "experiment.scale.epochs" in counter_names


class TestReportCommand:
    def test_writes_markdown_report(self, tmp_path, capsys):
        output = tmp_path / "RESULTS.md"
        assert main(["report", "--output", str(output), "--trials", "2"]) == 0
        content = output.read_text()
        assert "# RESULTS" in content
        assert "Figure 2(b)" in content
        assert "Key ablations" in content
        assert "resilience" in content
