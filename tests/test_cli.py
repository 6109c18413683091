"""Tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_accepts_every_experiment(self):
        parser = build_parser()
        for name in ("table1", "table2", "table3", "fig5", "fig6", "fig7",
                     "fig8", "fig9", "fig10", "fig11", "overhead", "all"):
            args = parser.parse_args([name])
            assert args.experiment == name

    def test_rejects_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_scale_flags(self):
        args = build_parser().parse_args(["fig5", "--sequences", "2",
                                          "--events", "6"])
        assert args.sequences == 2
        assert args.events == 6


class TestMain:
    def test_table2_prints_and_exits_zero(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "all match paper: True" in out

    def test_table1_prints(self, capsys):
        assert main(["table1"]) == 0
        assert "Static" in capsys.readouterr().out

    def test_fig5_small_run(self, capsys):
        assert main(["fig5", "--sequences", "1", "--events", "5"]) == 0
        out = capsys.readouterr().out
        assert "nimblock" in out
        assert "stress" in out

    def test_mode_reaches_every_cached_simulation(self, capsys, monkeypatch):
        """``--mode`` selects the run mode of every cached figure run,
        and the figure reads the same in either mode."""
        from repro.hypervisor.hypervisor import Hypervisor

        built = []
        init = Hypervisor.__init__

        def recording_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.mode)

        monkeypatch.setattr(Hypervisor, "__init__", recording_init)
        outputs = {}
        for mode in ("full", "metrics"):
            built.clear()
            assert main(["fig5", "--sequences", "1", "--events", "4",
                         "--jobs", "1", "--mode", mode]) == 0
            outputs[mode] = capsys.readouterr().out
            assert built and set(built) == {mode}
        assert outputs["full"] == outputs["metrics"]

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "table2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "Table 2" in proc.stdout


class TestVersionAndExitCodes:
    def test_version_flag_prints_and_exits_zero(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as exit_info:
            main(["--version"])
        assert exit_info.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["fig99"])
        assert exit_info.value.code == 2

    def test_experiment_error_exits_one(self, capsys):
        # A negative fault rate is rejected inside the experiment layer,
        # before the drill prints anything.
        assert main(["chaos", "--fault-rate", "-1", "--events", "4"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "chaos:" in captured.err


class TestOptionalDependencies:
    def test_runs_without_numpy_or_networkx(self):
        """The package declares no dependencies: importing the CLI and the
        experiments, and running one, must not need numpy or networkx."""
        import os
        from pathlib import Path

        import repro

        script = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "sys.modules['networkx'] = None\n"
            "import repro, repro.cli, repro.experiments.report\n"
            "import repro.experiments.fig5_response\n"
            "sys.exit(repro.cli.main("
            "['fig5', '--sequences', '1', '--events', '3']))\n"
        )
        env = dict(os.environ)
        src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "nimblock" in result.stdout


class TestObserveActions:
    def test_trace_chrome_is_valid_trace_event_json(self, capsys):
        import json

        assert main(["trace", "--sequences", "1", "--events", "5"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert isinstance(payload["traceEvents"], list)
        span_events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert len(span_events) == payload["otherData"]["spans"] > 0

    def test_trace_jsonl_to_file(self, tmp_path, capsys):
        import json

        output = tmp_path / "trace.jsonl"
        assert main(["trace", "--format", "jsonl", "--events", "4",
                     "--output", str(output)]) == 0
        lines = output.read_text().strip().splitlines()
        assert lines
        for line in lines[:5]:
            assert "kind" in json.loads(line)

    def test_stats_emits_prometheus_text(self, capsys):
        assert main(["stats", "--sequences", "1", "--events", "4"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE nimblock_apps_retired_total counter" in out
        assert "nimblock_scheduler_passes_total" in out

    def test_stats_identical_across_jobs(self, capsys):
        args = ["stats", "--sequences", "2", "--events", "4"]
        assert main(args + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--jobs", "2"]) == 0
        fanned = capsys.readouterr().out
        assert serial == fanned

    def test_trace_with_faults_counts_match(self, capsys):
        import json

        assert main(["trace", "--events", "6", "--fault-rate", "0.05",
                     "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        fault_spans = [e for e in payload["traceEvents"]
                       if e["ph"] == "X" and e.get("cat") == "fault"]
        assert fault_spans


class TestSettings:
    def test_base_seed_survives_scale_flags(self, capsys, monkeypatch):
        """``REPRO_BASE_SEED`` moves the stimuli whether the scale comes
        from flags or from the environment."""

        def fig8(env, flags):
            for name in ("REPRO_BASE_SEED", "REPRO_SEQUENCES",
                         "REPRO_EVENTS"):
                monkeypatch.delenv(name, raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            assert main(["fig8"] + flags) == 0
            return capsys.readouterr().out

        flags = ["--sequences", "1", "--events", "6"]
        seeded = fig8({"REPRO_BASE_SEED": "7"}, flags)
        assert seeded != fig8({}, flags)
        assert seeded == fig8(
            {"REPRO_BASE_SEED": "7", "REPRO_SEQUENCES": "1",
             "REPRO_EVENTS": "6"},
            [],
        )


class TestDrills:
    """``chaos`` and ``overload`` run the ext-faults and ext-overload
    studies on the one ``--seed`` stimulus."""

    def test_chaos_drill_lists_every_scheduler(self, capsys):
        assert main(["chaos", "--scenario", "transient", "--fault-rate",
                     "0.1", "--seed", "1", "--events", "3"]) == 0
        out = capsys.readouterr().out
        for scheduler in ("baseline", "fcfs", "prema", "rr", "nimblock"):
            assert scheduler in out
        assert "scenario=transient" in out
        assert "goodput" in out

    def test_chaos_drill_rejects_unknown_workload(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["chaos", "--workload", "bogus", "--events", "2"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err

    def test_chaos_drill_accepts_the_overload_workload(self, capsys):
        assert main(["chaos", "--workload", "overload", "--events", "4"]) == 0
        assert "workload=overload" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["chaos", "--scenario", "transient", "--events", "4"],
        ["overload", "--events", "12"],
    ])
    def test_drills_identical_across_jobs(self, capsys, argv):
        assert main(argv + ["--jobs", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_overload_drill_scales_with_repro_events(self, capsys,
                                                     monkeypatch):
        monkeypatch.setenv("REPRO_EVENTS", "2")
        assert main(["overload"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.endswith(" events=16")


class TestResultDrills:
    """``cluster``, ``tune`` and ``serve`` print the text of the one
    result their library call returns."""

    def test_cluster_prints_the_fleet_report(self, capsys):
        from repro.facade import fleet

        report = fleet(2, num_events=6, rate_multiplier=8.0, jobs=1)
        argv = ["cluster", "--boards", "2", "--events", "6"]
        assert main(argv) == 0
        assert capsys.readouterr().out == report.format() + "\n"
        assert main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out) == report.to_dict()

    def test_tune_prints_the_formatted_payload(self, capsys):
        from repro.facade import format_tune, tune

        assert main(["tune", "--fast", "--submissions", "120"]) == 0
        payload = tune(rate=2.0, submissions=120, seed=1, jobs=1)
        assert capsys.readouterr().out == format_tune(payload) + "\n"

    @pytest.mark.parametrize("argv, code, err", [
        (["serve", "--fast", "--schedulers", ","], 1,
         "serve: --schedulers must name at least one scheduler"),
        (["serve", "--fast", "--schedulers", ""], 1,
         "serve: --schedulers must name at least one scheduler"),
        (["serve", "--fast", "--schedulers", "nimblock,",
          "--submissions", "50"], 0, "serve: 1 run(s) x 50 submissions"),
        (["cluster", "--events", "4", "--mix", ","], 1,
         "cluster: fleet mix must be non-empty"),
        (["cluster", "--boards", "0"], 1,
         "cluster: num_boards must be >= 1, got 0"),
    ], ids=["serve-no-schedulers", "serve-empty-schedulers",
            "serve-trailing-comma", "cluster-empty-mix",
            "cluster-no-boards"])
    def test_malformed_drill_input(self, capsys, argv, code, err):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.err.startswith(err)
        assert (captured.out == "") == (code == 1)
