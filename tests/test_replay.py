"""Equivalence tests for the steady-state macro-event replay cache.

The replay cache (:mod:`repro.sim.replay`) is a pure execution
strategy: a run with replay enabled must be **byte-identical** — trace
rows, report payloads, per-app results, window aggregates, lifetime
counters — to the same run with replay disabled. These tests pin that
contract everywhere the cache attaches:

* the service loop, across every scheduler of the capacity study (the
  paper's five plus the ablations and extension policies), with replay
  actually *engaging* (hits > 0) at low arrival rates;
* the saturated and fault-injected regimes, where the gate must force
  100% fallback to live simulation without perturbing a single byte;
* the bare hypervisor and the cluster tier, where
  :meth:`~repro.hypervisor.hypervisor.Hypervisor.results` reads the
  backfilled per-app/per-task final state;
* the quiescent-gap window-close coalescing the service loop performs,
  which replay must keep exact (same windows closed, same totals).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cluster import Cluster, fleet_profiles, simulate_board
from repro.config import SystemConfig
from repro.experiments.ext_overload import OVERLOAD_WORKLOAD, study_sequence
from repro.experiments.ext_service import CAPACITY_SCHEDULERS
from repro.hypervisor.hypervisor import Hypervisor
from repro.observe import snapshot_run
from repro.schedulers.registry import make_scheduler
from repro.service.loop import ServiceLoop
from repro.sim.replay import ReplayCache
from repro.sim.trace import MetricsTrace
from repro.workload.arrivals import service_rate_process
from repro.workload.events import EventSpec

#: Benchmarks cycled by the bare-hypervisor sparse stream.
_BENCHMARKS = ("lenet", "imgc", "3dr", "of")


def _run_loop(
    scheduler: str,
    *,
    replay: bool,
    rate: float = 0.05,
    submissions: int = 250,
    seed: int = 3,
    mode: str = "full",
    window_ms: float = 60_000.0,
) -> ServiceLoop:
    loop = ServiceLoop(
        service_rate_process(rate, seed=seed),
        scheduler,
        admission="shed",
        seed=seed,
        max_submissions=submissions,
        window_ms=window_ms,
        mode=mode,
        replay=replay,
    )
    loop.report = loop.run()
    return loop


def _payload(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


def _row_digest(trace) -> str:
    digest = hashlib.sha256()
    for row in trace._rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()


def replay_blind_snapshot(hv) -> dict:
    """``snapshot_run`` without the two replay hit/miss counters."""
    snapshot = snapshot_run(hv)
    for name in ("nimblock_replay_hits_total",
                 "nimblock_replay_misses_total"):
        del snapshot["counters"][name]
    return snapshot


def _sparse_specs(count: int = 24, gap_ms: float = 500_000.0):
    return [
        EventSpec(
            benchmark=_BENCHMARKS[index % len(_BENCHMARKS)],
            batch_size=4 + index % 3,
            priority=1 + index % 3,
            arrival_ms=index * gap_ms,
        )
        for index in range(count)
    ]


def _bare_run(replay: bool, specs=None) -> Hypervisor:
    hv = Hypervisor(make_scheduler("nimblock"))
    if replay:
        hv._replay = ReplayCache(
            hv, scheduler_factory=lambda: make_scheduler("nimblock")
        )
    for spec in specs or _sparse_specs():
        hv.submit(spec.to_request())
    hv.run()
    return hv


class TestServiceLoopEquivalence:
    @pytest.mark.parametrize("scheduler", CAPACITY_SCHEDULERS)
    def test_low_rate_byte_identical_and_engaged(self, scheduler):
        """Replay on == replay off for every capacity-study scheduler,
        with the cache actually serving hits at low rate."""
        on = _run_loop(scheduler, replay=True)
        off = _run_loop(scheduler, replay=False)
        assert on.replay_hits > 0, "cache never engaged at low rate"
        assert off.replay_hits == 0 and off.replay_misses == 0
        assert _payload(on.report) == _payload(off.report)
        assert replay_blind_snapshot(on.hv) == replay_blind_snapshot(off.hv)
        assert on.hv.trace._total == off.hv.trace._total
        assert on.hv.trace._total_by_kind == off.hv.trace._total_by_kind

    def test_saturated_run_falls_back_byte_identical(self):
        """At full rate the board never drains, so nearly every arrival
        misses — and the bytes still match exactly."""
        on = _run_loop("nimblock", replay=True, rate=4.0,
                       submissions=1_200, seed=1)
        off = _run_loop("nimblock", replay=False, rate=4.0,
                        submissions=1_200, seed=1)
        assert on.replay_misses > on.replay_hits
        assert _payload(on.report) == _payload(off.report)
        assert replay_blind_snapshot(on.hv) == replay_blind_snapshot(off.hv)

    def test_mode_equivalence_with_replay(self):
        """Metrics-mode replay-on matches full-mode replay-off."""
        metrics_on = _run_loop("nimblock", replay=True, mode="metrics")
        full_off = _run_loop("nimblock", replay=False, mode="full")
        assert metrics_on.replay_hits > 0
        assert _payload(metrics_on.report) == _payload(full_off.report)

    def test_report_payload_is_replay_blind(self):
        """The deterministic payload must not leak replay counters."""
        loop = _run_loop("nimblock", replay=True)
        payload = loop.report.to_dict()
        assert "replay_hits" not in payload
        assert "replay_misses" not in payload
        # ...but the report object carries them for benchmarks/observe.
        assert loop.report.replay_hits == loop.replay_hits > 0

    def test_window_close_coalescing_preserved(self):
        """Quiescent gaps batch-advance the close chain identically with
        replay on: same windows closed, far fewer than the boundary
        count the span covers, and identical engine event totals."""
        on = _run_loop("nimblock", replay=True, rate=0.002,
                       submissions=40, seed=7)
        off = _run_loop("nimblock", replay=False, rate=0.002,
                        submissions=40, seed=7)
        assert on.report.windows_closed == off.report.windows_closed
        assert on.report.engine_events == off.report.engine_events
        boundaries = int(on.report.span_ms // on.report.window_ms)
        assert boundaries > 4 * on.report.windows_closed, (
            "quiescent gaps were not coalesced: "
            f"{on.report.windows_closed} closes over "
            f"{boundaries} boundaries"
        )
        assert _payload(on.report) == _payload(off.report)


class TestBareHypervisorEquivalence:
    def test_results_and_trace_identical(self):
        """Per-app results (timing, per-task counters, busy sums) match
        the live run exactly on replay-applied apps."""
        on = _bare_run(True)
        off = _bare_run(False)
        assert on._replay.hits > 0
        assert on.engine.now == off.engine.now
        assert on.engine.processed == off.engine.processed
        assert on.scheduler_passes == off.scheduler_passes
        assert on._port.busy_ms == off._port.busy_ms
        assert on._port.total_reconfigs == off._port.total_reconfigs
        assert _row_digest(on.trace) == _row_digest(off.trace)
        for mine, live in zip(on.results(), off.results()):
            assert mine == live
        for app_on, app_off in zip(on.retired, off.retired):
            assert app_on.first_item_start_ms == app_off.first_item_start_ms
            assert app_on.last_item_done_ms == app_off.last_item_done_ms
            assert app_on.reconfig_busy_ms == app_off.reconfig_busy_ms
            for task_id in app_on.tasks:
                assert (
                    app_on.tasks[task_id].__dict__
                    == app_off.tasks[task_id].__dict__
                )

    def test_fault_injection_forces_total_fallback(self):
        """A fault injector makes the context non-reproducible: the gate
        must refuse every arrival (no hits, no recordings) and the run
        stays digest-identical."""
        from repro.faults.injector import FaultInjector
        from repro.workload.scenarios import chaos_scenario

        fault_config = chaos_scenario("mixed").fault_config(0.2, seed=11)

        def run(replay: bool) -> Hypervisor:
            hv = Hypervisor(
                make_scheduler("nimblock"),
                faults=FaultInjector(fault_config),
            )
            if replay:
                hv._replay = ReplayCache(
                    hv,
                    scheduler_factory=lambda: make_scheduler("nimblock"),
                )
            for spec in _sparse_specs():
                hv.submit(spec.to_request())
            hv.run()
            return hv

        on = run(True)
        off = run(False)
        assert on._replay.hits == 0
        assert on._replay.recordings == 0
        assert on._replay.misses > 0
        assert _row_digest(on.trace) == _row_digest(off.trace)

    def test_observe_counters_exported(self):
        """observe_run exposes the replay hit/miss counters."""
        from repro.observe.instrument import observe_run

        hv = _bare_run(True)
        snapshot = observe_run(hv).snapshot()
        counters = {
            name: sample["value"]
            for name, sample in snapshot["counters"].items()
        }
        assert counters["nimblock_replay_hits_total"] > 0
        assert (
            counters["nimblock_replay_hits_total"]
            + counters["nimblock_replay_misses_total"]
            == len(hv.apps)
        )


class TestClusterEquivalence:
    def test_cluster_report_identical_with_and_without_replay(self):
        from repro.facade import fleet

        on = fleet(2, num_events=16, jobs=1, seed=5, replay=True)
        off = fleet(2, num_events=16, jobs=1, seed=5, replay=False)
        assert json.dumps(on.to_dict(), sort_keys=True) == json.dumps(
            off.to_dict(), sort_keys=True
        )

    def test_chaos_cluster_identical(self):
        from repro.facade import fleet

        on = fleet(2, num_events=16, jobs=1, seed=5, fault_rate=0.1,
                   replay=True)
        off = fleet(2, num_events=16, jobs=1, seed=5, fault_rate=0.1,
                    replay=False)
        assert json.dumps(on.to_dict(), sort_keys=True) == json.dumps(
            off.to_dict(), sort_keys=True
        )


class TestFoldPlan:
    """A metrics-mode hit folds the segment's compiled plan; the result
    must equal feeding the segment's rows through ``record`` one by one."""

    #: No dispatch overhead puts a DPR's nominal length on the 80 ms
    #: bucket bound, so float rounding at some starts crosses it.
    _CONFIG = SystemConfig(dispatch_overhead_ms=0.0)
    _SHAPES = (("lenet", 3, 1), ("imgc", 2, 3), ("3dr", 4, 9), ("of", 1, 3))
    #: Starts just under powers of two, where a fire time's rounding
    #: changes with its exponent.
    _STARTS = tuple(
        2.0 ** power - delta
        for power in range(1, 40, 2) for delta in (0.1, 1e-3)
    )

    @staticmethod
    def _fold_state(trace: MetricsTrace, horizon: float) -> tuple:
        aggregates = trace.fold.aggregates(horizon)
        hists = tuple(
            (hist.bucket_counts, hist.count, hist.sum)
            for hist in (aggregates.dpr, aggregates.item, aggregates.wait,
                         aggregates.recovery)
        )
        return (
            hists, aggregates.dpr_busy_ms, aggregates.compute_busy_ms,
            aggregates.peak_compute, trace.fold.item_busy_done_ms,
            trace.fold.config_busy_done_ms, dict(trace._total_by_kind),
            list(trace._total_by_kind), len(trace), trace.start_ms,
            trace.end_ms,
        )

    @pytest.mark.parametrize("scheduler", CAPACITY_SCHEDULERS)
    def test_plan_matches_row_path(self, scheduler):
        hv = Hypervisor(
            make_scheduler(scheduler), config=self._CONFIG, mode="metrics"
        )
        cache = ReplayCache(
            hv, scheduler_factory=lambda: make_scheduler(scheduler)
        )
        segments = [
            cache._record(EventSpec(
                benchmark=benchmark, batch_size=batch, priority=priority,
                arrival_ms=0.0,
            ).to_request())
            for benchmark, batch, priority in self._SHAPES
        ]
        assert all(segment is not None for segment in segments)
        planned, rowed = MetricsTrace(), MetricsTrace()
        dpr_durations = set()
        app_id = 0
        for segment in segments:
            for start in self._STARTS:
                times = segment.absolute_times(start)
                planned.record_segment(segment, times, app_id)
                for row in segment.rows(times, app_id):
                    rowed.record(*row)
                dpr_durations.update(
                    times[end] - times[begin]
                    for begin, end in segment.plan.dprs
                )
                app_id += 1
                horizon = times[segment.end_ordinal]
                assert (self._fold_state(planned, horizon)
                        == self._fold_state(rowed, horizon))
        # Durations vary with the start and straddle the bucket bound, so
        # a plan that cached durations or bucket indexes would fail.
        assert 80.0 in dpr_durations
        assert any(duration > 80.0 for duration in dpr_durations)


class TestSharedSegments:
    """Boards of one world record each request shape once per run."""

    @staticmethod
    def _cluster(admission=None) -> Cluster:
        cluster = Cluster(
            fleet_profiles(6), placement="least_loaded", admission=admission,
        )
        cluster.submit_sequence(
            study_sequence(OVERLOAD_WORKLOAD, 1, 300, 1.0)
        )
        return cluster

    @staticmethod
    def _recorded(monkeypatch) -> list:
        """Patch ``_record`` to log (world, shape) per scratch recording."""
        log = []
        record = ReplayCache._record

        def logged(self, request):
            log.append((
                self._hv.config, request.name, request.batch_size,
                request.priority,
            ))
            return record(self, request)

        monkeypatch.setattr(ReplayCache, "_record", logged)
        return log

    def _per_board(self, admission, monkeypatch) -> list:
        """Recordings with one private map per board."""
        log = self._recorded(monkeypatch)
        for task in self._cluster(admission).board_tasks(mode="metrics"):
            simulate_board(task)
        monkeypatch.undo()
        return log

    def test_one_recording_per_world_and_shape(self, monkeypatch):
        per_board = self._per_board(None, monkeypatch)
        shared = self._recorded(monkeypatch)
        report = self._cluster().run(jobs=1, mode="metrics")
        monkeypatch.undo()
        assert sorted(shared, key=repr) == sorted(set(per_board), key=repr)
        assert len(shared) < len(per_board)
        digest = report.snapshot_digest()
        assert digest == self._cluster().run(
            jobs=1, mode="metrics", replay=False
        ).snapshot_digest()
        assert digest == self._cluster().run(
            jobs=2, mode="metrics"
        ).snapshot_digest()

    def test_boards_with_admission_record_alone(self, monkeypatch):
        # Only "degrade" reaches the boards; "reject" and "shed" gate at
        # the fleet boundary and leave the boards without admission.
        per_board = self._per_board("degrade", monkeypatch)
        shared = self._recorded(monkeypatch)
        self._cluster("degrade").run(jobs=1, mode="metrics")
        assert len(per_board) > len(set(per_board))
        assert shared == per_board
