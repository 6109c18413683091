"""Tests for the fault-injection & recovery subsystem (repro.faults).

Covers the fault models, the deterministic injector, the hypervisor's
recovery machinery (eviction, rollback, relocation, retry-with-backoff,
blacklisting, stall breaking), the reliability metrics, the chaos
scenarios, and the two cross-cutting guarantees:

* **determinism** — the same chaos scenario and seed twice yields
  byte-identical traces;
* **zero overhead when disabled** — a disabled config injects nothing and
  the run is identical to one with no injector at all.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.errors import (
    ExperimentError,
    FaultInjectionError,
    RecoveryError,
    ReproError,
    SlotStateError,
    WorkloadError,
)
from repro.experiments import ext_faults
from repro.experiments.runner import ExperimentSettings, run_closed
from repro.faults import (
    FaultConfig,
    FaultInjector,
    FaultStats,
    RecoveryPolicy,
)
from repro.hypervisor.application import TaskRunState
from repro.hypervisor.hypervisor import Hypervisor
from repro.metrics.reliability import (
    degradation_factor,
    goodput_items_per_s,
    mean_time_to_recovery_ms,
    recovery_times_ms,
    reliability_report,
    work_lost_ms,
)
from repro.overlay.device import Slot, SlotHealth, SlotPhase
from repro.schedulers.registry import ALL_SCHEDULERS, make_scheduler
from repro.sim.trace import Trace, TraceKind
from repro.sim.trace_export import load_trace, save_trace, trace_to_dict
from repro.workload.scenarios import (
    CHAOS_SCENARIOS,
    MIXED_FAULTS,
    PERMANENT_FAULTS,
    RECONFIG_FAULTS,
    STRESS,
    TRANSIENT_FAULTS,
    chaos_scenario,
    scenario_sequence,
)
from tests.conftest import request, small_config
from repro.taskgraph.builders import chain_graph


# ---------------------------------------------------------------------------
# Models
# ---------------------------------------------------------------------------
class TestFaultConfig:
    def test_default_is_disabled(self):
        assert not FaultConfig().enabled

    @pytest.mark.parametrize("kwargs", [
        {"transient_mtbf_ms": 1000.0},
        {"permanent_mtbf_ms": 1000.0},
        {"config_failure_prob": 0.1},
        {"config_jitter_frac": 0.1},
    ])
    def test_any_knob_enables(self, kwargs):
        assert FaultConfig(**kwargs).enabled

    @pytest.mark.parametrize("kwargs", [
        {"transient_mtbf_ms": -1.0},
        {"permanent_mtbf_ms": -0.5},
        {"transient_repair_ms": 0.0},
        {"transient_repair_ms": -10.0},
        {"config_failure_prob": 1.0},
        {"config_failure_prob": -0.1},
        {"config_jitter_frac": 1.5},
        {"config_jitter_frac": -0.2},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(FaultInjectionError):
            FaultConfig(**kwargs)

    def test_error_hierarchy(self):
        assert issubclass(FaultInjectionError, ReproError)
        assert issubclass(RecoveryError, ReproError)


class TestFaultStats:
    def test_total_faults(self):
        stats = FaultStats(
            transient_faults=3, permanent_faults=1, config_failures=2,
        )
        assert stats.total_faults == 6

    def test_fresh_stats_are_zero(self):
        assert FaultStats().total_faults == 0


class TestRecoveryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RecoveryPolicy(
            backoff_base_ms=5.0, backoff_factor=2.0, backoff_cap_ms=18.0,
        )
        assert policy.backoff_ms(1) == 5.0
        assert policy.backoff_ms(2) == 10.0
        assert policy.backoff_ms(3) == 18.0  # capped (would be 20)
        assert policy.backoff_ms(10) == 18.0

    @pytest.mark.parametrize("kwargs", [
        {"backoff_base_ms": 0.0},
        {"backoff_factor": 0.5},
        {"backoff_cap_ms": 0.0},
        {"min_healthy_slots": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(RecoveryError):
            RecoveryPolicy(**kwargs)


# ---------------------------------------------------------------------------
# Slot health state machine
# ---------------------------------------------------------------------------
class TestSlotHealth:
    def test_fault_and_repair_cycle(self):
        slot = Slot(0)
        assert slot.is_healthy and slot.is_free
        slot.mark_faulty()
        assert slot.health is SlotHealth.FAULTY
        assert not slot.is_free  # EMPTY but unhealthy
        slot.repair()
        assert slot.is_healthy and slot.is_free

    def test_dead_is_terminal(self):
        slot = Slot(0)
        slot.mark_dead()
        assert slot.health is SlotHealth.DEAD
        with pytest.raises(SlotStateError):
            slot.repair()
        with pytest.raises(SlotStateError):
            slot.mark_faulty()

    def test_occupied_slot_must_be_evicted_first(self):
        slot = Slot(0)
        slot.begin_reconfig()
        slot.host("t")
        with pytest.raises(SlotStateError, match="evicted"):
            slot.mark_faulty()
        with pytest.raises(SlotStateError, match="evicted"):
            slot.mark_dead()

    def test_interrupt_item(self):
        slot = Slot(0)
        slot.begin_reconfig()
        slot.host("t")
        slot.start_item()
        slot.interrupt_item()
        assert not slot.busy
        with pytest.raises(SlotStateError, match="no in-flight item"):
            slot.interrupt_item()

    def test_abort_reconfig(self):
        slot = Slot(0)
        slot.begin_reconfig()
        slot.abort_reconfig()
        assert slot.phase is SlotPhase.EMPTY
        with pytest.raises(SlotStateError):
            slot.abort_reconfig()

    def test_repair_requires_faulty(self):
        with pytest.raises(SlotStateError, match="cannot repair"):
            Slot(0).repair()


# ---------------------------------------------------------------------------
# Injector wiring
# ---------------------------------------------------------------------------
class TestInjectorWiring:
    def test_single_attachment(self):
        injector = FaultInjector(FaultConfig(transient_mtbf_ms=1000.0))
        hv = Hypervisor(make_scheduler("fcfs"), faults=injector)
        assert injector.attached
        assert hv.faults is injector
        with pytest.raises(FaultInjectionError, match="exactly one"):
            Hypervisor(make_scheduler("fcfs"), faults=injector)

    def test_unattached_draw_still_works(self):
        # draw_config_outcome needs no hypervisor: it only consumes RNG.
        injector = FaultInjector(FaultConfig(config_failure_prob=0.5))
        outcomes = {injector.draw_config_outcome(80.0)[0] for _ in range(64)}
        assert outcomes == {True, False}

    def test_disabled_modes_draw_nothing(self):
        injector = FaultInjector(FaultConfig())
        assert injector.draw_config_outcome(80.0) == (False, 0.0)

    def test_jitter_bounded(self):
        injector = FaultInjector(FaultConfig(config_jitter_frac=0.25))
        for _ in range(128):
            will_fail, jitter = injector.draw_config_outcome(80.0)
            assert not will_fail
            assert -20.0 <= jitter <= 20.0


# ---------------------------------------------------------------------------
# Hypervisor fault handling (scripted, hand-checkable)
# ---------------------------------------------------------------------------
def _two_slot_hv(scheduler="fcfs", **extra):
    return Hypervisor(
        make_scheduler(scheduler), config=small_config(num_slots=2), **extra
    )


class TestScriptedFaults:
    def test_fault_on_busy_slot_evicts_and_relocates(self):
        hv = _two_slot_hv()
        hv.submit(request(chain_graph("app", [100.0]), batch_size=4))
        # Let the task configure (80ms) and start its first item.
        hv.run(until=100.0)
        slot = hv.device.slot(0)
        assert slot.phase is SlotPhase.OCCUPIED and slot.busy
        app = hv.apps[0]
        task = next(iter(app.tasks.values()))
        assert hv.inject_slot_fault(100.0, 0, permanent=False)
        assert task.state is TaskRunState.PENDING
        assert task.relocated_from == 0
        assert hv.fault_stats.transient_faults == 1
        assert hv.fault_stats.evictions == 1
        assert hv.fault_stats.items_lost == 1
        # 20ms of the in-flight item (started at 80ms) was destroyed.
        assert hv.fault_stats.work_lost_ms == pytest.approx(20.0)
        # The run still completes: the task relocates to healthy slot 1.
        hv.run()
        assert hv.all_retired
        assert task.items_done == 4
        relocated = hv.trace.of_kind(TraceKind.TASK_RELOCATED)
        assert len(relocated) == 1
        assert relocated[0].slot == 1 and relocated[0].detail == 0.0

    def test_batch_progress_survives_eviction(self):
        hv = _two_slot_hv()
        hv.submit(request(chain_graph("app", [50.0]), batch_size=6))
        # 80ms config + 2 full items = 180ms; fault at a batch boundary.
        hv.run(until=180.0)
        app = hv.apps[0]
        task = next(iter(app.tasks.values()))
        done_before = task.items_done
        assert done_before >= 2
        assert hv.inject_slot_fault(hv.engine.now, 0)
        assert task.items_done == done_before  # checkpoint retained
        hv.run()
        assert hv.all_retired

    def test_dead_slot_refuses_further_faults(self):
        hv = Hypervisor(
            make_scheduler("fcfs"), config=small_config(num_slots=3)
        )
        hv.submit(request(chain_graph("app", [50.0]), batch_size=1))
        assert hv.inject_slot_fault(0.0, 2, permanent=True)
        assert not hv.inject_slot_fault(0.0, 2, permanent=True)
        assert not hv.inject_slot_fault(0.0, 2, permanent=False)
        assert hv.fault_stats.permanent_faults == 1

    def test_min_healthy_guard_refuses_last_slot(self):
        hv = _two_slot_hv()
        hv.submit(request(chain_graph("app", [50.0]), batch_size=1))
        assert hv.inject_slot_fault(0.0, 0, permanent=True)
        # Killing slot 1 would leave zero healthy slots: refused.
        assert not hv.inject_slot_fault(0.0, 1, permanent=True)
        assert len(hv.device.healthy_slots()) == 1
        # Transient faults are still allowed (they repair).
        assert hv.inject_slot_fault(0.0, 1, permanent=False)
        assert hv.repair_slot(5.0, 1)
        hv.run()
        assert hv.all_retired

    def test_fault_during_reconfiguration_fails_the_config(self):
        hv = _two_slot_hv()
        hv.submit(request(chain_graph("app", [50.0]), batch_size=1))
        hv.run(until=40.0)  # mid-reconfiguration (config takes 80ms)
        assert hv.device.slot(0).phase is SlotPhase.RECONFIGURING
        assert hv.inject_slot_fault(40.0, 0)
        hv.repair_slot(45.0, 0)
        hv.run()
        assert hv.all_retired
        failed = hv.trace.of_kind(TraceKind.CONFIG_FAILED)
        assert len(failed) == 1
        assert hv.fault_stats.config_failures == 1
        # The retried configuration eventually lands.
        assert len(hv.trace.of_kind(TraceKind.TASK_CONFIG_DONE)) == 1

    def test_repair_is_idempotent_and_guarded(self):
        hv = _two_slot_hv()
        assert not hv.repair_slot(0.0, 0)  # healthy: nothing to repair
        hv.device.slot(0).mark_dead()
        assert not hv.repair_slot(0.0, 0)  # dead: never repairs

    def test_faults_traced_with_detail(self):
        hv = _two_slot_hv()
        hv.submit(request(chain_graph("app", [100.0]), batch_size=2))
        hv.run(until=120.0)
        hv.inject_slot_fault(120.0, 0)
        hv.repair_slot(280.0, 0)
        hv.run()
        fault = hv.trace.of_kind(TraceKind.SLOT_FAULT)[0]
        assert fault.slot == 0
        assert fault.app_id == 0
        assert fault.detail == pytest.approx(40.0)  # item started at 80ms
        assert recovery_times_ms(hv.trace) == pytest.approx([160.0])


class TestRetryWithBackoff:
    def test_failed_config_retries_until_success(self):
        # Fail every reconfiguration until we stop corrupting the slot.
        hv = _two_slot_hv()
        hv.submit(request(chain_graph("app", [50.0]), batch_size=1))
        hv.run(until=40.0)
        hv.inject_slot_fault(40.0, 0)
        hv.repair_slot(41.0, 0)
        hv.run()
        assert hv.all_retired
        # One failure, one successful retry; backoff delayed the retry.
        done = hv.trace.of_kind(TraceKind.TASK_CONFIG_DONE)
        starts = hv.trace.of_kind(TraceKind.TASK_CONFIG_START)
        assert len(done) == 1 and len(starts) == 2

    def test_custom_recovery_policy_is_used(self):
        policy = RecoveryPolicy(backoff_base_ms=50.0, backoff_cap_ms=50.0)
        hv = _two_slot_hv(recovery=policy)
        assert hv.recovery is policy


# ---------------------------------------------------------------------------
# End-to-end chaos runs
# ---------------------------------------------------------------------------
def _tiny_sequence(seed=1, events=4):
    return scenario_sequence(STRESS, seed, events)


class TestChaosRuns:
    def test_determinism_byte_identical_traces(self):
        """Same chaos scenario + same seed twice => byte-identical traces."""
        sequence = _tiny_sequence()
        fault_config = MIXED_FAULTS.fault_config(0.1, seed=7)
        first = run_closed(
            "nimblock", sequence.to_requests(), faults=fault_config
        ).trace
        second = run_closed(
            "nimblock", sequence.to_requests(), faults=fault_config
        ).trace
        assert first.events == second.events
        assert (
            json.dumps(trace_to_dict(first)).encode()
            == json.dumps(trace_to_dict(second)).encode()
        )

    def test_different_fault_seeds_diverge(self):
        sequence = _tiny_sequence()
        a = run_closed(
            "nimblock", sequence.to_requests(),
            faults=TRANSIENT_FAULTS.fault_config(0.2, seed=1),
        ).trace
        b = run_closed(
            "nimblock", sequence.to_requests(),
            faults=TRANSIENT_FAULTS.fault_config(0.2, seed=2),
        ).trace
        assert a.events != b.events

    def test_zero_rate_identical_to_fault_free(self):
        """A disabled config is byte-identical to running no injector."""
        sequence = _tiny_sequence()
        clean = run_closed("fcfs", sequence.to_requests())
        zero = MIXED_FAULTS.fault_config(0.0, seed=9)
        assert not zero.enabled
        hv = run_closed("fcfs", sequence.to_requests(), faults=zero)
        assert hv.faults is None
        assert hv.trace.events == clean.trace.events
        assert hv.fault_stats.total_faults == 0
        assert degradation_factor(
            clean.results(), hv.results()
        ) == pytest.approx(1.0)

    @pytest.mark.parametrize("scheduler", ALL_SCHEDULERS)
    def test_every_scheduler_survives_mixed_chaos(self, scheduler):
        sequence = _tiny_sequence(seed=3)
        fault_config = MIXED_FAULTS.fault_config(0.1, seed=3)
        results = run_closed(
            scheduler, sequence.to_requests(), faults=fault_config
        ).results()
        assert len(results) == len(sequence.events)
        assert all(r.response_ms > 0 for r in results)

    def test_survives_permanent_slot_blacklisting(self):
        """Aggressive permanent faults blacklist slots; the run still ends."""
        sequence = _tiny_sequence(seed=3, events=6)
        fault_config = PERMANENT_FAULTS.fault_config(20.0, seed=3)
        hv = run_closed("fcfs", sequence.to_requests(), faults=fault_config)
        stats = hv.fault_stats
        assert stats.permanent_faults > 0
        report = reliability_report(hv.trace)
        assert report.permanent_faults == stats.permanent_faults

    def test_reconfig_faults_produce_failures_and_recoveries(self):
        sequence = _tiny_sequence(seed=2)
        fault_config = RECONFIG_FAULTS.fault_config(0.3, seed=2)
        hv = run_closed("prema", sequence.to_requests(), faults=fault_config)
        assert hv.fault_stats.config_failures > 0
        assert hv.fault_stats.transient_faults == 0
        mttr = mean_time_to_recovery_ms(hv.trace)
        assert not math.isnan(mttr) and mttr > 0

    def test_fault_stats_match_trace(self):
        sequence = _tiny_sequence(seed=5)
        fault_config = TRANSIENT_FAULTS.fault_config(0.2, seed=5)
        hv = run_closed("rr", sequence.to_requests(), faults=fault_config)
        stats = hv.fault_stats
        report = reliability_report(hv.trace)
        assert report.slot_faults == stats.transient_faults
        assert report.repairs == stats.repairs
        assert report.relocations == stats.relocations
        assert report.work_lost_ms == pytest.approx(stats.work_lost_ms)


# ---------------------------------------------------------------------------
# Reliability metrics
# ---------------------------------------------------------------------------
def _synthetic_trace():
    trace = Trace()
    trace.record(0.0, TraceKind.APP_ARRIVED, app_id=0)
    trace.record(10.0, TraceKind.SLOT_FAULT, slot=3, detail=7.5)
    trace.record(50.0, TraceKind.SLOT_REPAIRED, slot=3)
    trace.record(60.0, TraceKind.CONFIG_FAILED, app_id=0, task_id="t",
                 detail=80.0)
    trace.record(200.0, TraceKind.TASK_CONFIG_DONE, app_id=0, task_id="t",
                 slot=1)
    trace.record(500.0, TraceKind.ITEM_DONE, app_id=0, task_id="t", slot=1)
    trace.record(1000.0, TraceKind.APP_RETIRED, app_id=0)
    return trace


class TestReliabilityMetrics:
    def test_goodput(self):
        assert goodput_items_per_s(_synthetic_trace()) == pytest.approx(1.0)
        assert goodput_items_per_s(Trace()) == 0.0

    def test_work_lost(self):
        assert work_lost_ms(_synthetic_trace()) == pytest.approx(87.5)

    def test_recovery_times(self):
        assert recovery_times_ms(_synthetic_trace()) == pytest.approx(
            [40.0, 140.0]
        )

    def test_mttr_nan_when_nothing_recovered(self):
        assert math.isnan(mean_time_to_recovery_ms(Trace()))

    def test_unrecovered_faults_contribute_nothing(self):
        trace = Trace()
        trace.record(0.0, TraceKind.SLOT_FAULT, slot=0, detail=0.0)
        assert recovery_times_ms(trace) == []

    def test_report_format(self):
        report = reliability_report(_synthetic_trace())
        assert report.slot_faults == 1
        assert report.permanent_faults == 0
        text = report.format()
        assert "faults=1" in text and "mttr=" in text

    def test_degradation_validation(self):
        with pytest.raises(ExperimentError, match="non-empty"):
            degradation_factor([], [])


# ---------------------------------------------------------------------------
# Chaos scenarios
# ---------------------------------------------------------------------------
class TestChaosScenarios:
    def test_lookup(self):
        assert chaos_scenario("mixed") is MIXED_FAULTS
        with pytest.raises(WorkloadError, match="unknown chaos scenario"):
            chaos_scenario("nope")

    def test_names_unique(self):
        names = [s.name for s in CHAOS_SCENARIOS]
        assert len(names) == len(set(names))

    def test_zero_rate_disables(self):
        for scenario in CHAOS_SCENARIOS:
            assert not scenario.fault_config(0.0).enabled

    def test_negative_rate_rejected(self):
        with pytest.raises(WorkloadError, match=">= 0"):
            TRANSIENT_FAULTS.fault_config(-0.1)

    def test_rate_scales_mtbf_inversely(self):
        mild = TRANSIENT_FAULTS.fault_config(0.05)
        wild = TRANSIENT_FAULTS.fault_config(0.1)
        assert mild.transient_mtbf_ms == 2 * wild.transient_mtbf_ms
        assert mild.permanent_mtbf_ms == 0.0

    def test_seed_threads_through(self):
        assert MIXED_FAULTS.fault_config(0.1, seed=42).seed == 42

    def test_probability_capped(self):
        config = RECONFIG_FAULTS.fault_config(5.0)
        assert config.config_failure_prob == pytest.approx(0.9)


# ---------------------------------------------------------------------------
# Trace export round-trip: every TraceKind member (incl. fault kinds)
# ---------------------------------------------------------------------------
class TestTraceKindRoundTrip:
    def test_every_kind_round_trips(self, tmp_path):
        trace = Trace()
        for offset, kind in enumerate(TraceKind):
            trace.record(
                float(offset), kind,
                app_id=offset, task_id=f"t{offset}", slot=offset % 4,
                detail=offset / 2.0,
            )
        assert {e.kind for e in trace} == set(TraceKind)
        rebuilt = load_trace(save_trace(trace, tmp_path / "all_kinds.json"))
        assert rebuilt.events == trace.events

    def test_chaos_trace_round_trips(self, tmp_path):
        trace = run_closed(
            "nimblock", _tiny_sequence().to_requests(),
            faults=MIXED_FAULTS.fault_config(0.1, seed=7),
        ).trace
        kinds = {e.kind for e in trace}
        assert TraceKind.SLOT_FAULT in kinds
        rebuilt = load_trace(save_trace(trace, tmp_path / "chaos.json"))
        assert rebuilt.events == trace.events


class TestFaultStudy:
    def test_sweep_must_start_fault_free(self):
        """Every degradation is a ratio to the first rate's run, so a
        sweep without the 0.0 reference is refused, not mislabelled."""
        with pytest.raises(ExperimentError, match="must start at 0.0"):
            ext_faults.run(
                ExperimentSettings(num_sequences=1, num_events=6),
                fault_rates=(0.05, 0.1), schedulers=("nimblock",),
            )
