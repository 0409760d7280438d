"""CLI tests: every experiment subcommand runs and prints its headline."""

import json
import re

import pytest

from repro.cli import EXPERIMENTS, build_parser, main, package_version


class TestVersion:
    def test_version_matches_package_metadata(self):
        import repro

        assert package_version() == repro.__version__ == "1.2.0"

    def test_version_flag_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "1.2.0" in capsys.readouterr().out


class TestParser:
    def test_all_experiments_registered(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name] if name != "fig10" else [name, "--bit", "0"])
            assert args.experiment == name

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])


class TestCommands:
    @pytest.mark.parametrize(
        "command, expect",
        [
            (["table1"], "Table I"),
            (["table2"], "Table II"),
            (["fig2"], "R–I"),
            (["fig6"], "optima"),
            (["fig7"], "windows"),
            (["fig8"], "window"),
            (["fig9"], "SLT1"),
            (["latency"], "faster"),
            (["energy"], "lower"),
            (["corners"], "Temperature corners"),
            (["disturb"], "read-disturb budget"),
            (["trim"], "compensating divider skew"),
            (["capacity"], "capacity projection"),
            (["sensitivity"], "sensitivity"),
            (["ber"], "error budget"),
            (["list"], "available experiments"),
        ],
    )
    def test_command_output(self, command, expect, capsys):
        assert main(command) == 0
        assert expect in capsys.readouterr().out

    def test_fig10_both_bits(self, capsys):
        assert main(["fig10", "--bit", "1"]) == 0
        assert "sensed: 1" in capsys.readouterr().out
        assert main(["fig10", "--bit", "0"]) == 0
        assert "sensed: 0" in capsys.readouterr().out

    def test_fig11_runs(self, capsys):
        assert main(["fig11"]) == 0
        out = capsys.readouterr().out
        assert "nondestructive" in out
        assert "16kb" in out

    def test_fig10_rejects_bad_bit(self):
        with pytest.raises(SystemExit):
            main(["fig10", "--bit", "2"])

    def test_export_writes_csv(self, capsys, tmp_path):
        assert main(["export", "--directory", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "CSV files" in out
        assert (tmp_path / "fig6_beta_sweep.csv").exists()


class TestObservabilityCommands:
    """`repro stats` and the --metrics-out/--trace-out artifact flags."""

    STATS = ["stats", "--bits", "720", "--seed", "7"]
    FAULTS = ["faults", "--bits", "2304", "--rates", "1e-3"]

    def test_stats_prints_metric_tables(self, capsys):
        assert main(self.STATS) == 0
        out = capsys.readouterr().out
        assert "instrumented workload" in out
        assert "core.reads.batch" in out
        assert "ecc.scrub.passes" in out
        assert "read_issued" in out

    def test_stats_writes_artifacts(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        events = tmp_path / "events.jsonl"
        command = self.STATS + ["--metrics-out", str(metrics), "--trace-out", str(events)]
        assert main(command) == 0
        snap = json.loads(metrics.read_text())
        assert "profile" not in snap  # wall-clock kept out unless --profile
        assert snap["counters"]["ecc.scrub.passes"] >= 1
        lines = [json.loads(line) for line in events.read_text().splitlines()]
        assert lines and all("kind" in line and "seq" in line for line in lines)

    def test_stats_profile_flag_includes_wall_clock(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        assert main(self.STATS + ["--metrics-out", str(metrics), "--profile"]) == 0
        assert "profile" in json.loads(metrics.read_text())

    def test_stats_metrics_deterministic_across_runs(self, capsys, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(self.STATS + ["--metrics-out", str(first)]) == 0
        assert main(self.STATS + ["--metrics-out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_faults_writes_reconciling_metrics(self, capsys, tmp_path):
        metrics = tmp_path / "metrics.json"
        events = tmp_path / "events.jsonl"
        command = self.FAULTS + ["--metrics-out", str(metrics), "--trace-out", str(events)]
        assert main(command) == 0
        out = capsys.readouterr().out
        assert "fault campaign" in out
        counters = json.loads(metrics.read_text())["counters"]
        words = sum(
            value
            for key, value in counters.items()
            if key.startswith("campaign.words{")
        )
        tiers = sum(
            value
            for key, value in counters.items()
            if key.startswith("recovery.words{")
        )
        assert words == tiers > 0
        assert events.read_text().strip()

    def test_faults_without_flags_stays_unmetered(self, capsys):
        from repro import obs

        assert main(self.FAULTS) == 0
        assert not obs.active()
        assert obs.get_registry().merge_counters(["campaign.words"]) == 0


class TestServeCommand:
    """`repro serve` — the trace-driven memory-controller simulation."""

    SERVE = ["serve", "--requests", "400", "--seed", "7"]

    def test_serve_prints_summary(self, capsys):
        assert main(self.SERVE) == 0
        out = capsys.readouterr().out
        assert "service simulation" in out
        assert "throughput" in out
        assert "p50/p99" in out

    def test_serve_check_passes(self, capsys):
        assert main(self.SERVE + ["--check"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_serve_trace_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(self.SERVE + ["--trace-out", str(trace)]) == 0
        first = capsys.readouterr().out
        assert trace.exists()
        assert main(["serve", "--trace-in", str(trace), "--check"]) == 0
        second = capsys.readouterr().out
        assert "PASS" in second

        # Replaying the saved trace reproduces the identical summary rows.
        def summary_rows(text):
            return [line for line in text.splitlines()
                    if "|" in line and "metric" not in line]

        assert summary_rows(first) == summary_rows(second)

    @pytest.mark.parametrize("content", [
        "not json\n",
        '{"id": 0, "t": 1e-9, "op": "read"}\n',
        '{"id": 0, "t": 1e-9, "addr": 3, "op": "re',
        "",
        None,
    ], ids=["non-json", "no-addr", "truncated", "empty", "missing"])
    def test_bad_trace_in_exits_two(self, capsys, tmp_path, content):
        trace = tmp_path / "trace.jsonl"
        if content is not None:
            trace.write_text(content)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--trace-in", str(trace)])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out.startswith("error: cannot replay trace")

    def test_serve_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        command = self.SERVE + ["--policy", "batch", "--metrics-out", str(metrics)]
        assert main(command) == 0
        snapshot = json.loads(metrics.read_text())
        assert "profile" not in snapshot
        gauges = snapshot["gauges"]
        key = "service.read_latency_p99_ns{policy=batch,scheme=nondestructive}"
        assert gauges[key] > 0.0
        assert snapshot["histograms"]["service.latency_ns{op=read}"]["count"] == 400

    def test_serve_backed_reports_recovery(self, capsys):
        command = ["serve", "--requests", "120", "--seed", "7",
                   "--backed", "--fault-rate", "1e-3"]
        assert main(command) == 0
        assert "recovery" in capsys.readouterr().out

    def test_serve_write_fraction_and_cache(self, capsys):
        command = self.SERVE + ["--write-fraction", "0.2", "--cache", "64",
                                "--addressing", "zipfian"]
        assert main(command) == 0
        out = capsys.readouterr().out
        assert "writes" in out
        assert "cache hit rate" in out

    COMPOSED = ["serve", "--requests", "300", "--rate", "1.6e8",
                "--seed", "2011", "--adaptive", "--drift", "field-window",
                "--drift-offset-mv", "5", "--drift-flip-fraction", "0.002",
                "--slo-p99-ns", "1000", "--guardband", "0.6",
                "--request-retries", "2"]

    @staticmethod
    def _rows(text):
        return dict(
            (part.strip() for part in line.split("|", 1))
            for line in text.splitlines() if "|" in line
        )

    @pytest.mark.parametrize(
        "kind", ["controller-stall", "bank-offline", "sense-lockup"]
    )
    def test_failures_compose_with_adaptive_and_drift(self, capsys, kind):
        assert main(self.COMPOSED) == 0
        without = self._rows(capsys.readouterr().out)
        assert main(self.COMPOSED + ["--failures", kind, "--check"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        rows = self._rows(out)
        assert rows["failure scenario"] == kind
        # The scenario reached the run: the report differs from the same
        # adaptive, drifted run without it.
        served = ("throughput", "read latency p50/p99/p99.9", "bank loads",
                  "recovery", "adaptation", "degradation")
        assert [rows[key] for key in served] != [without[key] for key in served]
        requests, reads, writes = map(int, re.match(
            r"(\d+) \((\d+) reads, (\d+) writes\)", rows["requests"]
        ).groups())
        timed_out, failed = map(int, re.match(
            r"(\d+) timed out, (\d+) failed", rows["resilience"]
        ).groups())
        shed = int(rows["degradation"].split()[0])
        assert requests == reads + writes + shed + timed_out + failed
        assert rows["recovery"].endswith(", 0 corrupted")


class TestServeTopologyCommand:
    """`repro serve --topology` — the sharded channel/rank/bank hierarchy."""

    SERVE = ["serve", "--requests", "200", "--seed", "7",
             "--addressing", "zipfian"]

    def test_topology_summary_and_check(self, capsys):
        command = self.SERVE + ["--topology", "2x2x2", "--rows", "64",
                                "--interleave", "bank-xor", "--check"]
        assert main(command) == 0
        out = capsys.readouterr().out
        assert "topology service simulation" in out
        assert "2x2x2 topology (8 banks)" in out
        assert "bank-xor interleave" in out
        assert "channel loads" in out
        assert "rank loads" in out
        assert "PASS" in out

    def test_topology_multiprocess_check(self, capsys):
        command = self.SERVE + ["--topology", "2x1x2", "--rows", "64",
                                "--shards", "2", "--check"]
        assert main(command) == 0
        out = capsys.readouterr().out
        assert "2 shard process(es)" in out
        assert "PASS" in out

    def test_topology_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        command = self.SERVE + ["--topology", "2x1x2", "--rows", "64",
                                "--metrics-out", str(metrics)]
        assert main(command) == 0
        gauges = json.loads(metrics.read_text())["gauges"]
        assert gauges["service.topology.channels"] == 2
        assert "service.topology.channel_served{channel=0}" in gauges

    def test_bad_topology_spec_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.SERVE + ["--topology", "abc"])
        assert excinfo.value.code == 2
        assert "invalid topology" in capsys.readouterr().out

    def test_adaptive_and_drift_compose_with_topology(self, capsys):
        command = self.SERVE + ["--topology", "2x1x2", "--rows", "64",
                                "--rate", "1.6e8", "--adaptive",
                                "--drift", "field-window",
                                "--drift-flip-fraction", "0.002",
                                "--slo-p99-ns", "100", "--check"]
        assert main(command) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        rows = TestServeCommand._rows(out)
        assert rows["drift scenario"].startswith("field-window")
        assert int(rows["adaptation"].split()[0]) > 0
        assert "channel loads" in rows

    @pytest.mark.parametrize("flags, counter", [
        (["--failures", "sense-lockup", "--request-retries", "2"],
         "retries"),
        (["--failures", "sense-lockup", "--request-retries", "2",
          "--retry-backoff-ns", "5"], "retries"),
        (["--failures", "bank-offline", "--hedge-after-ns", "20"],
         "hedged"),
    ], ids=["retries", "retry-backoff", "hedging"])
    def test_resilience_composes_with_topology(self, capsys, flags, counter):
        # The budgets reach every channel controller and the flat failure
        # kinds strike a bank of the sharded part.
        command = self.SERVE + ["--topology", "2x1x2", "--rows", "64",
                                "--rate", "2e8", "--check"] + flags
        assert main(command) == 0
        out = capsys.readouterr().out
        assert "PASS" in out
        rows = TestServeCommand._rows(out)
        assert rows["failure scenario"] == flags[1]
        hedged, wins, retries = map(int, re.match(
            r"(\d+) hedged \((\d+) wins\), (\d+) retries",
            rows["hedging/retries"],
        ).groups())
        assert {"hedged": hedged, "retries": retries}[counter] > 0

    def test_stall_composes_with_topology(self, capsys):
        command = self.SERVE + ["--topology", "2x1x2", "--rows", "64",
                                "--failures", "controller-stall", "--check"]
        assert main(command) == 0
        assert "PASS" in capsys.readouterr().out

    def test_channel_outage_needs_topology(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(self.SERVE + ["--failures", "channel-outage"])
        assert excinfo.value.code == 2
        assert "needs --topology" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["serve", "--requests", "0"],
    ["serve", "--rate", "0"],
    ["serve", "--write-fraction", "1.5"],
    ["serve", "--addresses", "0"],
    ["serve", "--low-priority-fraction", "2"],
    ["serve", "--failures", "controller-stall", "--stall-factor", "0.5"],
    ["serve", "--cache", "-1"],
    ["serve", "--fault-rate", "-0.1"],
    ["serve", "--fault-rate", "2"],
    ["serve", "--deadline-ns", "-5"],
    ["chaos", "--requests", "0"],
    ["chaos", "--bits", "0"],
    ["chaos", "--bits", "100"],
], ids=lambda argv: "_".join(arg.lstrip("-") for arg in argv))
def test_bad_input_exits_two(capsys, argv):
    """Out-of-range input is one ``error:`` line and exit 2 — never a
    traceback, and never a run that silently ignores the value."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv[:1] + ["--requests", "50"] + argv[1:])
    assert excinfo.value.code == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1


class TestProdtestCommand:
    """`repro prodtest` — the wafer-scale production test & trim flow."""

    PRODTEST = ["prodtest", "--dies", "24", "--seed", "2010"]

    def test_all_schemes_table(self, capsys):
        assert main(self.PRODTEST) == 0
        out = capsys.readouterr().out
        for scheme in ("conventional", "destructive", "nondestructive"):
            assert scheme in out
        assert "yield" in out and "$/bit" in out

    def test_single_scheme_diagnosis(self, capsys):
        assert main(self.PRODTEST + ["--scheme", "nondestructive"]) == 0
        out = capsys.readouterr().out
        assert "nondestructive" in out
        assert "coverage" in out

    def test_check_gate_passes(self, capsys):
        command = self.PRODTEST + ["--scheme", "conventional", "--check"]
        assert main(command) == 0
        assert "PASS" in capsys.readouterr().out

    def test_metrics_out(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.json"
        command = self.PRODTEST + [
            "--scheme", "destructive", "--metrics-out", str(metrics)
        ]
        assert main(command) == 0
        gauges = json.loads(metrics.read_text())["gauges"]
        assert "prodtest.yield{scheme=destructive}" in gauges
        assert "prodtest.coverage{kind=overall}" in gauges

    def test_bad_march_rejected(self):
        with pytest.raises(SystemExit):
            main(["prodtest", "--march", "march-z"])
