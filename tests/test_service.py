"""Tests for the online service tier (repro.service + repro.workload.arrivals).

Pins the subsystem's four load-bearing guarantees:

* **determinism** — same seed, same knobs give byte-identical report
  payloads, serially and across ``--jobs N`` worker fan-out;
* **O(1) memory** — after a run the hypervisor's books are empty, the
  trace stores no rows, and only windowed aggregates remain;
* **accuracy** — the streaming sketch p99 tracks the exact percentile of
  the same responses within the documented relative error;
* **checkpoint/resume** — a snapshot-plus-resume run reproduces an
  uninterrupted run's windows and lifetime counters exactly.
"""

from __future__ import annotations

import itertools
import json
import math

import pytest

from repro.errors import ServiceError, WorkloadError
from repro.metrics.response import percentile
from repro.metrics.slo import DEFAULT_SERVICE_SLO, SloTarget
from repro.service.loop import ServiceLoop, format_report
from repro.service.snapshot import (
    SNAPSHOT_FORMAT,
    load_snapshot,
    save_snapshot,
    validate_snapshot,
)
from repro.service.windows import DEFAULT_WINDOW_MS, WindowedMetrics
from repro.sim.trace import MetricsTrace, TraceKind
from repro.workload.arrivals import (
    ARRIVAL_KINDS,
    DiurnalArrivals,
    MMPPArrivals,
    PoissonArrivals,
    make_arrivals,
    service_rate_process,
)


def payload(report) -> str:
    """The canonical byte-identity form of a report."""
    return json.dumps(report.to_dict(), sort_keys=True)


class TestArrivalProcesses:
    def test_events_replays_identically(self):
        process = PoissonArrivals(seed=7, rate_per_s=3.0)
        first = list(itertools.islice(process.events(), 50))
        second = list(itertools.islice(process.events(), 50))
        assert first == second

    def test_skip_matches_uninterrupted_tail(self):
        process = MMPPArrivals(seed=5, calm_rate_per_s=1.0,
                               burst_rate_per_s=8.0)
        full = list(itertools.islice(process.events(), 40))
        tail = list(itertools.islice(process.events(skip=25), 15))
        assert tail == full[25:]

    @pytest.mark.parametrize("kind,knobs", [
        ("poisson", {"rate_per_s": 2.0}),
        ("mmpp", {"calm_rate_per_s": 1.0, "burst_rate_per_s": 6.0}),
        ("diurnal", {"trough_rate_per_s": 0.5, "peak_rate_per_s": 4.0,
                     "period_s": 120.0}),
    ])
    def test_arrivals_are_nondecreasing_and_well_formed(self, kind, knobs):
        process = make_arrivals(kind, seed=3, **knobs)
        events = list(itertools.islice(process.events(), 200))
        times = [e.arrival_ms for e in events]
        assert times == sorted(times)
        assert all(e.arrival_ms > 0 for e in events)
        assert all(e.batch_size >= 1 for e in events)

    def test_mean_rate_roughly_holds(self):
        process = PoissonArrivals(seed=11, rate_per_s=5.0)
        events = list(itertools.islice(process.events(), 2000))
        span_s = events[-1].arrival_ms / 1000.0
        rate = len(events) / span_s
        assert 4.0 < rate < 6.0

    def test_mmpp_long_run_mean_matches_formula(self):
        process = MMPPArrivals(seed=2, calm_rate_per_s=1.0,
                               burst_rate_per_s=10.0)
        events = list(itertools.islice(process.events(), 6000))
        span_s = events[-1].arrival_ms / 1000.0
        empirical = len(events) / span_s
        expected = process.mean_rate_per_s()
        assert abs(empirical - expected) / expected < 0.25

    def test_diurnal_rate_curve_bounds(self):
        process = DiurnalArrivals(seed=1, trough_rate_per_s=0.5,
                                  peak_rate_per_s=4.0, period_s=100.0)
        assert process.rate_at(0.0) == pytest.approx(0.5)
        assert process.rate_at(50_000.0) == pytest.approx(4.0)
        for t_ms in (10_000.0, 33_000.0, 80_000.0):
            assert 0.5 <= process.rate_at(t_ms) <= 4.0

    def test_registry_rejects_unknown_kind_and_bad_knobs(self):
        with pytest.raises(WorkloadError, match="poisson"):
            make_arrivals("nope", rate_per_s=1.0)
        with pytest.raises(WorkloadError, match="knobs"):
            make_arrivals("poisson", seed=1, not_a_knob=2.0)
        assert set(ARRIVAL_KINDS) == {
            "poisson", "mmpp", "diurnal", "replay", "episode",
        }

    def test_service_rate_process_burstiness(self):
        plain = service_rate_process(2.0, seed=1)
        assert isinstance(plain, PoissonArrivals)
        bursty = service_rate_process(2.0, seed=1, burstiness=0.5)
        assert isinstance(bursty, MMPPArrivals)
        assert bursty.mean_rate_per_s() == pytest.approx(2.0)
        with pytest.raises(WorkloadError, match="burstiness"):
            service_rate_process(2.0, burstiness=-1.0)

    def test_replay_loops_with_open_loop_offsets(self, tmp_path):
        from repro.workload.scenarios import STRESS, scenario_sequence
        from repro.workload.trace_io import save_sequence

        path = tmp_path / "recorded.json"
        save_sequence(scenario_sequence(STRESS, seed=4, num_events=6), path)
        process = make_arrivals("replay", path=path, loop=True)
        events = list(itertools.islice(process.events(), 15))
        times = [e.arrival_ms for e in events]
        assert times == sorted(times)
        # The second cycle replays the same apps, shifted forward.
        assert events[6].benchmark == events[0].benchmark
        assert events[6].arrival_ms > events[5].arrival_ms


class TestSloTarget:
    def test_both_dimensions_must_hold(self):
        target = SloTarget(p99_ms=1000.0, max_loss_frac=0.1)
        assert target.met(900.0, 0.05)
        assert not target.met(1100.0, 0.0)
        assert not target.met(500.0, 0.2)
        assert not target.met(float("nan"), 0.0)

    def test_validation(self):
        from repro.errors import AdmissionError

        with pytest.raises(AdmissionError, match="p99_ms"):
            SloTarget(p99_ms=0.0)
        with pytest.raises(AdmissionError, match="max_loss_frac"):
            SloTarget(max_loss_frac=1.5)

    def test_default_target_describes_itself(self):
        assert "p99" in DEFAULT_SERVICE_SLO.describe()


def run_loop(**overrides):
    knobs = dict(
        scheduler="nimblock",
        admission="shed",
        seed=3,
        max_submissions=60,
        window_ms=15_000.0,
    )
    knobs.update(overrides)
    arrivals = service_rate_process(2.0, seed=knobs.pop("seed"))
    return ServiceLoop(arrivals, knobs.pop("scheduler"), **knobs)


class TestServiceLoop:
    def test_conservation_and_report_shape(self):
        report = run_loop().run()
        assert report.submitted == 60
        assert report.arrived == 60
        assert report.completed + report.shed + report.dropped \
            == report.arrived
        assert report.windows_closed >= 1
        total = report.totals()
        assert total.completed == report.completed
        assert total.arrived == report.arrived
        assert 0.0 <= report.loss_frac <= 1.0
        assert report.span_ms > 0
        assert 0.0 <= report.slo_attainment(DEFAULT_SERVICE_SLO) <= 1.0
        text = report.format()
        assert "service run:" in text
        assert format_report(report.to_dict()) == text

    def test_same_seed_reports_are_byte_identical(self):
        assert payload(run_loop().run()) == payload(run_loop().run())

    def test_stateful_scheduler_survives_shedding(self):
        # Regression: rr keeps per-slot task queues across passes; a shed
        # pending app used to leave stale entries behind, and the next
        # free slot raised "configure for unknown/retired app". The exact
        # ext-service cell that first exposed it:
        arrivals = service_rate_process(2.0, seed=20230620)
        report = ServiceLoop(
            arrivals, "rr", admission="shed", max_submissions=100,
            window_ms=20_000.0,
        ).run()
        assert report.shed > 0
        assert report.completed + report.shed + report.dropped \
            == report.arrived

    def test_different_seeds_differ(self):
        assert payload(run_loop(seed=3).run()) \
            != payload(run_loop(seed=4).run())

    def test_o1_state_after_run(self):
        loop = run_loop(max_submissions=120)
        report = loop.run()
        assert report.completed > 0
        # Every per-app book is empty: state was discarded as it retired.
        assert loop.hv.apps == {}
        assert loop.hv.retired == []
        assert loop.hv.shed == []
        assert len(loop.hv.pending) == 0
        # The trace stored no rows while lifetime counters kept up.
        trace = loop.hv.trace
        assert isinstance(trace, MetricsTrace)
        assert trace._rows == []
        assert trace.count(TraceKind.APP_RETIRED) == report.completed

    def test_snapshot_run_is_mode_invariant(self):
        # Past the point where the old 4,096-row full-mode ring trimmed
        # (this run records 8,862 events), the observe snapshot must
        # still cover the whole run in both modes.
        from repro.observe import snapshot_run

        loops = {}
        for mode in ("full", "metrics"):
            loops[mode] = run_loop(max_submissions=300, mode=mode)
            loops[mode].run()
        full = snapshot_run(loops["full"].hv)
        assert full == snapshot_run(loops["metrics"].hv)
        assert len(loops["full"].hv.trace) == 8_862
        histograms = full["histograms"]
        assert histograms["nimblock_dpr_duration_ms"]["count"] == 1_006
        assert histograms["nimblock_item_duration_ms"]["sum"] == 583_224.0

    def test_streaming_p99_tracks_exact_percentile(self):
        loop = run_loop(max_submissions=150)
        exact = []
        loop.hv.add_retire_listener(
            lambda app, now: exact.append(now - app.arrival_ms)
        )
        report = loop.run()
        assert len(exact) == report.completed > 0
        for pct in (50.0, 95.0, 99.0):
            reference = percentile(exact, pct)
            assert abs(report.p(pct) - reference) \
                <= report.alpha * reference + 1e-9

    def test_windows_partition_the_lifetime_counters(self):
        report = run_loop(max_submissions=80).run()
        windows = report.windows.windows
        assert sum(w.arrived for w in windows) == report.arrived
        assert sum(w.completed for w in windows) == report.completed
        assert sum(w.shed for w in windows) == report.shed
        indexes = [w.index for w in windows]
        assert indexes == sorted(indexes)
        # Half-open windows: every response lands in its completion window.
        for window in windows:
            assert window.sketch.count == window.completed

    def test_horizon_bounds_the_stream(self):
        report = run_loop(max_submissions=10_000,
                          horizon_ms=30_000.0).run()
        assert report.submitted < 10_000
        assert report.arrived == report.submitted

    def test_loop_runs_once(self):
        loop = run_loop(max_submissions=5)
        loop.run()
        with pytest.raises(ServiceError, match="once"):
            loop.run()

    def test_constructor_validation(self):
        arrivals = service_rate_process(1.0, seed=1)
        with pytest.raises(ServiceError, match="max_submissions"):
            ServiceLoop(arrivals, max_submissions=-1)
        with pytest.raises(ServiceError, match="snapshot_every_windows"):
            ServiceLoop(arrivals, snapshot_every_windows=0)

    def test_unbounded_policy_completes_everything(self):
        report = run_loop(admission="unbounded", max_submissions=40).run()
        assert report.completed == report.arrived == 40
        assert report.shed == report.dropped == 0


def slow_loop(**overrides):
    """A lightly loaded loop: quiescent boundaries, hence snapshots."""
    knobs = dict(
        scheduler="nimblock",
        admission="unbounded",
        max_submissions=24,
        window_ms=20_000.0,
        snapshot_every_windows=2,
    )
    knobs.update(overrides)
    arrivals = service_rate_process(0.12, seed=9)
    return ServiceLoop(arrivals, knobs.pop("scheduler"), **knobs)


def resume_comparable(report) -> dict:
    """The payload minus the fields that legitimately differ on resume."""
    data = report.to_dict()
    data.pop("snapshot_count")
    data.pop("resumed_from_ms")
    return data


class TestSnapshotResume:
    def test_quiescent_boundaries_produce_snapshots(self):
        report = slow_loop().run()
        assert report.snapshots
        for snapshot in report.snapshots:
            validate_snapshot(snapshot)
            assert snapshot["format"] == SNAPSHOT_FORMAT
            assert snapshot["cursor"] <= report.arrived

    def test_resumed_run_matches_uninterrupted_run(self):
        straight = slow_loop().run()
        assert len(straight.snapshots) >= 2
        # Resume from a mid-run checkpoint and from the earliest one.
        for snapshot in (straight.snapshots[0],
                         straight.snapshots[len(straight.snapshots) // 2]):
            resumed = ServiceLoop.resume(
                snapshot, service_rate_process(0.12, seed=9)
            ).run()
            assert resumed.resumed_from_ms == snapshot["clock_ms"]
            assert resume_comparable(resumed) == resume_comparable(straight)

    def test_snapshot_round_trips_through_json(self, tmp_path):
        straight = slow_loop().run()
        path = tmp_path / "service.snapshot.json"
        save_snapshot(straight.snapshots[0], path)
        loaded = load_snapshot(path)
        assert loaded == straight.snapshots[0]
        resumed = ServiceLoop.resume(
            loaded, service_rate_process(0.12, seed=9)
        ).run()
        assert resume_comparable(resumed) == resume_comparable(straight)

    def test_resume_rejects_mismatched_stream(self):
        straight = slow_loop().run()
        with pytest.raises(ServiceError, match="different arrival"):
            ServiceLoop.resume(
                straight.snapshots[0], service_rate_process(0.5, seed=9)
            )

    def test_validate_rejects_malformed_payloads(self):
        with pytest.raises(ServiceError, match="dict"):
            validate_snapshot([1, 2])
        with pytest.raises(ServiceError, match="format"):
            validate_snapshot({"format": 99})
        with pytest.raises(ServiceError, match="missing"):
            validate_snapshot({"format": SNAPSHOT_FORMAT})

    def test_load_rejects_non_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("not json {", encoding="utf-8")
        with pytest.raises(ServiceError, match="JSON"):
            load_snapshot(path)


class TestParallelAndFacade:
    def test_service_cells_jobs_equivalence(self):
        from repro.experiments.parallel import ServiceCell, run_cells

        cells = [
            ServiceCell("nimblock", "shed", 1, 40, 15_000.0, rate=2.0),
            ServiceCell("prema", "unbounded", 1, 40, 15_000.0, rate=2.0),
        ]
        serial = run_cells(cells, jobs=1)
        fanned = run_cells(cells, jobs=2)
        assert json.dumps(serial, sort_keys=True) \
            == json.dumps(fanned, sort_keys=True)

    def test_serve_facade_round_trip(self):
        import repro

        report = repro.serve("nimblock", rate=2.0, submissions=30,
                             window_ms=15_000.0)
        assert report.completed + report.shed + report.dropped \
            == report.arrived == 30
        assert isinstance(report.windows, WindowedMetrics)

    def test_top_level_exports(self):
        import repro

        assert repro.ServiceLoop is ServiceLoop
        assert callable(repro.serve)
        assert repro.SloTarget is SloTarget
        assert repro.WindowedMetrics is WindowedMetrics

    def test_cli_serve_smoke(self, capsys):
        from repro.cli import main

        code = main([
            "serve", "--rate", "2", "--submissions", "30",
            "--window-s", "15", "--schedulers", "nimblock",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "service run: scheduler=nimblock" in out


class TestExtServiceExperiment:
    def test_tiny_capacity_sweep_shape(self):
        from repro.experiments import ext_service
        from repro.experiments.runner import ExperimentSettings

        result = ext_service.run(
            ExperimentSettings(num_sequences=1, num_events=4),
            schedulers=("fcfs", "nimblock"),
            policies=("unbounded",),
            rates=(0.5, 2.0),
            submissions=8,
            jobs=1,
        )
        assert set(result["capacity"]) == {"fcfs", "nimblock"}
        for scheduler in ("fcfs", "nimblock"):
            assert result["capacity"][scheduler]["unbounded"] \
                in (0.0, 0.5, 2.0)
            for rate in ("0.5", "2"):
                cell = result["cells"][f"{scheduler}|unbounded|{rate}"]
                assert cell["arrived"] == 8
                assert isinstance(cell["ok"], bool)
        text = ext_service.format_result(result)
        assert "Service capacity" in text
        assert "nimblock" in text

    def test_rates_must_be_ascending(self):
        from repro.errors import ExperimentError
        from repro.experiments import ext_service

        with pytest.raises(ExperimentError, match="ascending"):
            ext_service.run(rates=(2.0, 1.0))

    def test_registry_runs_the_experiment(self):
        from repro.experiments.registry import run_experiment
        from repro.experiments.runner import ExperimentSettings

        result = run_experiment(
            "ext-service",
            ExperimentSettings(num_sequences=1, num_events=4),
        )
        assert "capacity" in result.value
        assert result.text


class TestWindowedMetricsUnit:
    def test_default_window_and_totals(self):
        metrics = WindowedMetrics()
        assert metrics.window_ms == DEFAULT_WINDOW_MS
        metrics.observe_arrival(1_000.0)
        metrics.observe_arrival(11_000.0)
        metrics.observe_completion(11_500.0, 450.0)
        total = metrics.total()
        assert total.arrived == 2
        assert total.completed == 1
        assert total.sketch.count == 1

    def test_serialization_round_trip(self):
        metrics = WindowedMetrics(window_ms=5_000.0)
        for t_ms in (100.0, 4_900.0, 5_100.0, 12_000.0):
            metrics.observe_arrival(t_ms)
            metrics.observe_completion(t_ms + 50.0, 50.0)
        clone = WindowedMetrics.from_dict(metrics.to_dict())
        assert clone.to_dict() == metrics.to_dict()
        assert len(clone) == len(metrics)

    def test_format_table_elides_long_runs(self):
        metrics = WindowedMetrics(window_ms=1_000.0)
        for index in range(40):
            metrics.observe_arrival(index * 1_000.0 + 10.0)
        table = metrics.format_table(limit=6)
        assert "elided" in table
        assert len(table.splitlines()) < 40

    def test_empty_total_is_nan_percentile(self):
        assert math.isnan(WindowedMetrics().total().p(99.0))
