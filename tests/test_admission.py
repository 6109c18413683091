"""Tests for the overload-protection layer (``repro.admission``).

Covers the policy catalogue and its validation, the byte-identity of the
default ``unbounded`` policy against the golden sha256 pins, the
behavioural contracts of reject/shed/degrade, the watchdog (including the
no-double-fire interplay with the PR-1 fault stall-breaker), serial vs
parallel determinism of the overload study, and the CLI exit-code
mapping for robustness failures.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.admission import (
    ADMISSION_POLICIES,
    AdmissionController,
    AdmissionPolicy,
    DegradePolicy,
    RejectPolicy,
    ShedPolicy,
    Watchdog,
    WatchdogConfig,
    make_admission_policy,
)
from repro.config import SystemConfig
from repro.errors import AdmissionError, InvariantViolation
from repro.experiments import ext_overload
from repro.experiments.runner import ExperimentSettings, RunCache
from repro.faults.injector import FaultInjector
from repro.hypervisor.hypervisor import Hypervisor
from repro.metrics.utilization import board_utilization
from repro.schedulers.registry import make_scheduler
from repro.sim.trace import TraceKind
from repro.sim.trace_export import trace_to_dict
from repro.workload.generator import EventGenerator
from repro.workload.scenarios import chaos_scenario

from tests.test_perf_equivalence import (
    PINNED_CHAOS_RUNS,
    PINNED_RUNS,
    pinned_sequence,
)


def overload_burst(seed=1, num_events=30, rate=4.0):
    """A deep 4x burst on the study's tuned pool (fast test scale)."""
    return ext_overload.study_sequence(
        ext_overload.OVERLOAD_WORKLOAD, seed, num_events, rate
    )


def run_with(scheduler, sequence, policy, seed=1, watchdog=None):
    controller = AdmissionController(policy, seed=seed)
    hv = Hypervisor(
        make_scheduler(scheduler), admission=controller, watchdog=watchdog
    )
    for request in sequence.to_requests():
        hv.submit(request)
    hv.run()
    return hv, controller


# ---------------------------------------------------------------------------
# Policy catalogue
# ---------------------------------------------------------------------------
class TestPolicies:
    def test_registry_names_and_order(self):
        assert ADMISSION_POLICIES == ("unbounded", "reject", "shed", "degrade")

    @pytest.mark.parametrize("name", ADMISSION_POLICIES)
    def test_make_by_name(self, name):
        policy = make_admission_policy(name)
        assert policy.kind == name
        policy.validate()

    def test_unknown_policy_rejected(self):
        with pytest.raises(AdmissionError, match="unknown admission policy"):
            make_admission_policy("yolo")

    def test_unknown_knob_rejected(self):
        with pytest.raises(AdmissionError, match="no knobs"):
            make_admission_policy("reject", queue_cap=3)

    def test_knob_overrides(self):
        policy = make_admission_policy("reject", queue_capacity=4)
        assert policy.queue_capacity == 4

    @pytest.mark.parametrize("bad", [
        dict(queue_capacity=0),
        dict(max_retries=-1),
        dict(backoff_base_ms=0.0),
        dict(backoff_factor=0.5),
        dict(jitter_frac=1.0),
    ])
    def test_reject_validation(self, bad):
        with pytest.raises(AdmissionError):
            make_admission_policy("reject", **bad)

    @pytest.mark.parametrize("bad", [
        dict(queue_capacity=0),
        dict(low_watermark=0),
        dict(queue_capacity=4, low_watermark=9),
    ])
    def test_shed_validation(self, bad):
        with pytest.raises(AdmissionError):
            make_admission_policy("shed", **bad)

    @pytest.mark.parametrize("bad", [
        dict(high_watermark=0),
        dict(low_watermark=0),
        dict(high_watermark=4, low_watermark=9),
        dict(wait_high_ms=0.0),
        dict(slot_cap=0),
    ])
    def test_degrade_validation(self, bad):
        with pytest.raises(AdmissionError):
            make_admission_policy("degrade", **bad)

    def test_backoff_is_exponential_and_capped(self):
        policy = RejectPolicy(
            backoff_base_ms=100.0, backoff_factor=2.0, backoff_cap_ms=350.0
        )
        assert policy.backoff_ms(1) == 100.0
        assert policy.backoff_ms(2) == 200.0
        assert policy.backoff_ms(3) == 350.0  # capped, not 400
        assert policy.backoff_ms(9) == 350.0

    def test_unbounded_has_no_watermarks(self):
        assert AdmissionPolicy().watermarks() == (None, None)
        assert ShedPolicy(queue_capacity=8).watermarks() == (8, 6)

    def test_controller_single_attach(self):
        controller = AdmissionController("unbounded")
        Hypervisor(make_scheduler("fcfs"), admission=controller)
        with pytest.raises(AdmissionError, match="already attached"):
            Hypervisor(make_scheduler("fcfs"), admission=controller)


# ---------------------------------------------------------------------------
# Golden-pin byte identity of the default path
# ---------------------------------------------------------------------------
def _pin_digest(name, **hypervisor_kwargs):
    """The exact digest recipe of tests/test_perf_equivalence.py."""
    hv = Hypervisor(make_scheduler(name), **hypervisor_kwargs)
    for request in pinned_sequence().to_requests():
        hv.submit(request)
    hv.run()
    util = board_utilization(hv.trace, hv.config.num_slots)
    blob = json.dumps(
        {
            "trace": trace_to_dict(hv.trace, label=name),
            "responses": [round(r.response_ms, 6) for r in hv.results()],
            "util": [
                round(util.compute_fraction, 9),
                round(util.reconfig_fraction, 9),
            ],
            "reconfig_busy": round(hv.trace.reconfig_busy_ms(), 6),
            "run_busy": round(hv.trace.run_busy_ms(), 6),
        },
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()


class TestUnboundedEquivalence:
    """unbounded + watchdog attached == no protection at all, byte for byte."""

    @pytest.mark.parametrize("name", sorted(PINNED_RUNS))
    def test_unbounded_matches_golden_pin(self, name):
        digest = _pin_digest(
            name,
            admission=AdmissionController("unbounded"),
            watchdog=Watchdog(),
        )
        assert digest == PINNED_RUNS[name], (
            f"attaching an unbounded controller changed {name!r}'s trace"
        )

    def test_unbounded_chaos_matches_golden_pin(self):
        fault_config = chaos_scenario("mixed").fault_config(
            fault_rate=1.0, seed=1234
        )
        hv = Hypervisor(
            make_scheduler("nimblock"),
            config=SystemConfig(),
            faults=FaultInjector(fault_config),
            admission=AdmissionController("unbounded"),
            watchdog=Watchdog(),
        )
        for request in pinned_sequence().to_requests():
            hv.submit(request)
        hv.run()
        blob = json.dumps(
            {
                "trace": trace_to_dict(hv.trace, label="nimblock"),
                "responses": [
                    round(r.response_ms, 6) for r in hv.results()
                ],
                "faults": hv.fault_stats.total_faults,
            },
            sort_keys=True,
        )
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == PINNED_CHAOS_RUNS["nimblock"]

    def test_unbounded_emits_no_admission_events(self):
        hv, controller = run_with("nimblock", pinned_sequence(), "unbounded")
        for kind in (
            TraceKind.APP_REJECTED, TraceKind.APP_SHED,
            TraceKind.OVERLOAD_ENTER, TraceKind.OVERLOAD_EXIT,
            TraceKind.WATCHDOG_STALL, TraceKind.WATCHDOG_KICK,
        ):
            assert hv.trace.count(kind) == 0
        assert controller.stats.admission_ratio == 1.0


# ---------------------------------------------------------------------------
# Reject policy
# ---------------------------------------------------------------------------
class TestRejectPolicy:
    def run_bounded(self, seed=1):
        policy = make_admission_policy(
            "reject", queue_capacity=3, max_retries=2,
            backoff_base_ms=50.0, backoff_cap_ms=400.0,
        )
        return run_with("fcfs", overload_burst(seed=seed), policy, seed=seed)

    def test_bounded_queue_drops_and_accounts(self):
        hv, controller = self.run_bounded()
        stats = controller.stats
        assert stats.submitted == 30
        assert stats.dropped > 0
        assert stats.admitted + stats.dropped == stats.submitted
        assert stats.rejections >= stats.dropped
        assert 0.0 < stats.admission_ratio < 1.0
        # Every admitted app retires; dropped apps never enter the system.
        assert hv.all_retired
        assert len(hv.results()) == stats.admitted
        assert sorted(stats.dropped_app_ids) == stats.dropped_app_ids

    def test_rejection_trace_detail_semantics(self):
        hv, controller = self.run_bounded()
        rejected = [
            e for e in hv.trace.events if e.kind is TraceKind.APP_REJECTED
        ]
        assert len(rejected) == controller.stats.rejections
        finals = [e for e in rejected if e.detail < 0]
        retries = [e for e in rejected if e.detail > 0]
        assert len(finals) == controller.stats.dropped
        assert len(finals) + len(retries) == len(rejected)
        # The final rejection records the exhausted attempt count.
        assert all(-e.detail > 2 for e in finals)

    def test_reject_runs_are_deterministic(self):
        first_hv, first = self.run_bounded()
        second_hv, second = self.run_bounded()
        assert first.stats == second.stats
        assert len(first_hv.trace) == len(second_hv.trace)

    def test_seed_changes_backoff_jitter(self):
        policy = make_admission_policy("reject", queue_capacity=3)
        a = AdmissionController(policy, seed=1)._jitter(app_id=7, attempt=2)
        b = AdmissionController(policy, seed=2)._jitter(app_id=7, attempt=2)
        assert a != b
        assert abs(a) <= policy.jitter_frac


# ---------------------------------------------------------------------------
# Shed policy
# ---------------------------------------------------------------------------
class TestShedPolicy:
    def test_sheds_only_zero_progress_apps(self):
        policy = make_admission_policy("shed", queue_capacity=6)
        hv, controller = run_with("fcfs", overload_burst(), policy)
        assert controller.stats.shed > 0
        assert len(hv.shed) == controller.stats.shed
        assert hv.trace.count(TraceKind.APP_SHED) == controller.stats.shed
        for app in hv.shed:
            assert app.slots_used == 0
            assert app.first_item_start_ms is None
        # Shed apps never retire but the run still drains completely.
        assert hv.all_retired
        assert len(hv.retired) + len(hv.shed) == len(hv.apps)
        assert len(hv.results()) == len(hv.retired)

    def test_shedding_evicts_lowest_priority_first(self):
        policy = make_admission_policy("shed", queue_capacity=6)
        hv, _ = run_with("fcfs", overload_burst(), policy)
        shed_events = [
            e for e in hv.trace.events if e.kind is TraceKind.APP_SHED
        ]
        assert shed_events
        # All evictions of one decision pass share a timestamp; within a
        # pass the recorded priorities (event detail) never decrease —
        # the lowest class is always sacrificed first.
        by_pass = {}
        for event in shed_events:
            by_pass.setdefault(event.time, []).append(event.detail)
        assert any(len(batch) > 1 for batch in by_pass.values())
        for batch in by_pass.values():
            assert batch == sorted(batch)
        # High-priority work still completes under sustained shedding.
        assert any(app.priority == 9 for app in hv.retired)

    def test_overload_windows_open_and_close(self):
        policy = make_admission_policy("shed", queue_capacity=6)
        hv, controller = run_with("fcfs", overload_burst(), policy)
        enters = hv.trace.count(TraceKind.OVERLOAD_ENTER)
        exits = hv.trace.count(TraceKind.OVERLOAD_EXIT)
        assert enters >= 1
        assert enters - exits in (0, 1)  # final window may stay open
        assert controller.stats.overload_windows == exits
        assert controller.overload_total_ms(hv.engine.now) > 0.0


# ---------------------------------------------------------------------------
# Degrade policy
# ---------------------------------------------------------------------------
class TestDegradePolicy:
    def test_degrade_serves_everything(self):
        hv, controller = run_with("fcfs", overload_burst(), "degrade")
        # Degradation throttles service instead of refusing it: every
        # application retires, nothing is dropped or shed.
        assert hv.all_retired
        assert len(hv.retired) == len(hv.apps)
        assert controller.stats.dropped == 0
        assert controller.stats.shed == 0
        assert hv.trace.count(TraceKind.OVERLOAD_ENTER) >= 1

    def test_levers_only_active_during_overload(self):
        controller = AdmissionController("degrade")
        assert controller.slot_cap() is None
        assert controller.pipelining_allowed()
        controller._overload_since = 100.0
        assert controller.slot_cap() == DegradePolicy().slot_cap
        assert not controller.pipelining_allowed()

    def test_filter_candidates_brownout_reorders_without_hiding(self):
        class App:
            def __init__(self, app_id, priority):
                self.app_id = app_id
                self.priority = priority
                self.age_key = (float(app_id), app_id)

        apps = [App(0, 1), App(1, 9), App(2, 3), App(3, 9), App(4, 1)]
        controller = AdmissionController("degrade")
        # Outside overload: the exact input object, zero copies.
        assert controller.filter_candidates(apps) is apps
        controller._overload_since = 0.0
        view = controller.filter_candidates(apps)
        assert [a.app_id for a in view] == [1, 3, 2, 0, 4]
        assert set(view) == set(apps)  # nothing hidden, nothing added
        # Non-degrade policies never reorder, even inside overload.
        shed = AdmissionController("shed")
        shed._overload_since = 0.0
        assert shed.filter_candidates(apps) is apps


# ---------------------------------------------------------------------------
# Watchdog
# ---------------------------------------------------------------------------
class TestWatchdog:
    @pytest.mark.parametrize("bad", [
        dict(stall_passes=0),
        dict(starvation_passes=0),
        dict(cooldown_passes=-1),
    ])
    def test_config_validation(self, bad):
        with pytest.raises(AdmissionError):
            Watchdog(WatchdogConfig(**bad))

    def test_watchdog_single_attach(self):
        watchdog = Watchdog()
        Hypervisor(make_scheduler("fcfs"), watchdog=watchdog)
        with pytest.raises(AdmissionError, match="already attached"):
            Hypervisor(make_scheduler("fcfs"), watchdog=watchdog)

    def test_healthy_run_never_fires(self):
        watchdog = Watchdog()
        hv, _ = run_with(
            "nimblock", pinned_sequence(), "unbounded", watchdog=watchdog
        )
        assert watchdog.stalls_detected == 0
        assert watchdog.starvation_boosts == 0
        assert hv.trace.count(TraceKind.WATCHDOG_STALL) == 0
        assert hv.trace.count(TraceKind.WATCHDOG_KICK) == 0


class TestWatchdogFaultInterplay:
    """The watchdog and the PR-1 fault stall-breaker never double-fire."""

    def _wedgeable(self, monkeypatch):
        watchdog = Watchdog(WatchdogConfig(stall_passes=5, cooldown_passes=3))
        hv = Hypervisor(make_scheduler("nimblock"), watchdog=watchdog)
        monkeypatch.setattr(Watchdog, "_wedged", staticmethod(lambda hv: True))
        detaches = []
        monkeypatch.setattr(
            hv, "_detach_idle_residents",
            lambda now: detaches.append(now) or 1,
        )
        hv.scheduler_passes = 100
        return hv, watchdog, detaches

    def test_watchdog_stands_down_when_breaker_owned_the_pass(
        self, monkeypatch
    ):
        hv, watchdog, detaches = self._wedgeable(monkeypatch)
        watchdog._stalled_passes = 5
        hv._last_stall_break_pass = hv.scheduler_passes
        watchdog._check_stall(hv, now=1000.0)
        assert watchdog.stalls_detected == 0
        assert detaches == []
        assert hv.trace.count(TraceKind.WATCHDOG_STALL) == 0
        # The stand-down still resets the stall counter: the breaker's
        # recovery counts as progress.
        assert watchdog._stalled_passes == 0

    def test_watchdog_fires_when_breaker_is_idle(self, monkeypatch):
        hv, watchdog, detaches = self._wedgeable(monkeypatch)
        watchdog._stalled_passes = 5
        hv._last_stall_break_pass = hv.scheduler_passes - 1
        watchdog._check_stall(hv, now=1000.0)
        assert watchdog.stalls_detected == 1
        assert watchdog.stall_kicks == 1
        assert len(detaches) == 1
        assert hv.trace.count(TraceKind.WATCHDOG_STALL) == 1
        assert hv.trace.count(TraceKind.WATCHDOG_KICK) == 1
        # Cooldown: an immediately re-primed stall must not re-kick.
        watchdog._stalled_passes = 5
        watchdog._check_stall(hv, now=1001.0)
        assert watchdog.stall_kicks == 1

    def test_full_rate_chaos_with_watchdog_stays_pinned(self):
        # Integration form of the same claim: under full-rate mixed chaos
        # the breaker handles every wedge in-pass, the watchdog sees its
        # preemptions as progress, and the trace digest is byte-identical
        # to the watchdog-less chaos pin.
        fault_config = chaos_scenario("mixed").fault_config(
            fault_rate=1.0, seed=1234
        )
        hv = Hypervisor(
            make_scheduler("rr"),
            config=SystemConfig(),
            faults=FaultInjector(fault_config),
            watchdog=Watchdog(),
        )
        for request in pinned_sequence().to_requests():
            hv.submit(request)
        hv.run()
        blob = json.dumps(
            {
                "trace": trace_to_dict(hv.trace, label="rr"),
                "responses": [
                    round(r.response_ms, 6) for r in hv.results()
                ],
                "faults": hv.fault_stats.total_faults,
            },
            sort_keys=True,
        )
        digest = hashlib.sha256(blob.encode()).hexdigest()
        assert digest == PINNED_CHAOS_RUNS["rr"]


# ---------------------------------------------------------------------------
# Overload study: serial vs parallel determinism
# ---------------------------------------------------------------------------
class TestOverloadStudyDeterminism:
    def test_serial_and_parallel_results_are_identical(self):
        settings = ExperimentSettings(num_sequences=2, num_events=3)
        kwargs = dict(rate_multipliers=(1.0, 4.0))
        serial = ext_overload.run(settings, RunCache(jobs=1), **kwargs)
        parallel = ext_overload.run(settings, RunCache(jobs=2), **kwargs)
        # repr-compare: dataclass dicts are built in identical order and
        # NaN cells (repr 'nan') compare equal textually where == cannot.
        assert repr(serial) == repr(parallel)

    def test_protection_curve_shape(self):
        # The burst must be deep enough for queueing (not service time)
        # to dominate the unbounded tail: 64 events per sequence.
        settings = ExperimentSettings(num_sequences=1, num_events=8)
        result = ext_overload.run(
            settings, RunCache(jobs=2), rate_multipliers=(1.0, 4.0),
            policies=("unbounded", "shed"),
        )
        assert result.scheduler == "fcfs"
        assert result.high_priority == 9
        for policy in ("unbounded", "shed"):
            curve = result.protection_curve(policy)
            assert curve[0] == pytest.approx(1.0)
        # The bounded policy holds the high-priority tail closer to its
        # uncongested value than the unbounded queue does.
        assert (
            result.protection[("shed", 4.0)]
            < result.protection[("unbounded", 4.0)]
        )
        assert result.shed[("shed", 4.0)] > 0
        assert result.shed[("unbounded", 4.0)] == 0

    def test_format_result_mentions_every_policy(self):
        settings = ExperimentSettings(num_sequences=1, num_events=3)
        result = ext_overload.run(settings, rate_multipliers=(1.0, 2.0))
        text = ext_overload.format_result(result)
        for policy in ADMISSION_POLICIES:
            assert policy in text
        assert "protection ratio" in text


# ---------------------------------------------------------------------------
# CLI exit-code mapping
# ---------------------------------------------------------------------------
class TestCliExitCodes:
    def test_admission_error_exits_usage(self, monkeypatch, capsys):
        from repro import cli
        from repro.experiments import ext_overload as mod

        def boom(*args, **kwargs):
            raise AdmissionError("queue_capacity must be >= 1, got 0")

        monkeypatch.setattr(mod, "run", boom)
        assert cli.main(["overload"]) == cli.EXIT_USAGE
        assert "queue_capacity" in capsys.readouterr().err

    def test_invariant_violation_exits_usage(self, monkeypatch, capsys):
        from repro import cli
        from repro.experiments import ext_overload as mod

        def boom(*args, **kwargs):
            raise InvariantViolation("slot-mutual-exclusion", "boom")

        monkeypatch.setattr(mod, "run", boom)
        assert cli.main(["overload"]) == cli.EXIT_USAGE
        assert "slot-mutual-exclusion" in capsys.readouterr().err
