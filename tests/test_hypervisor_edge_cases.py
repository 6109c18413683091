"""Edge-case and error-path tests for the hypervisor runtime."""

from __future__ import annotations

from typing import Optional

import pytest

from repro.admission import AdmissionController
from repro.errors import SchedulerError
from repro.hypervisor.hypervisor import Hypervisor
from repro.schedulers.base import (
    Action,
    ConfigureAction,
    PreemptAction,
    SchedulerPolicy,
)
from repro.schedulers.registry import make_scheduler
from repro.sim.trace_export import trace_to_dict
from repro.taskgraph.builders import chain_graph
from repro.workload.scenarios import SCENARIOS, scenario_sequence
from tests.conftest import request, run_named, small_config


class ScriptedPolicy(SchedulerPolicy):
    """Returns a fixed list of actions, one per decide() call."""

    name = "scripted"
    pipelined = False
    prefetch = True

    def __init__(self, actions):
        self._actions = list(actions)

    def decide(self, ctx) -> Optional[Action]:
        if self._actions:
            return self._actions.pop(0)
        return None


def _single_app_hypervisor(actions, batch=1):
    graph = chain_graph("c", [50.0])
    hv = Hypervisor(ScriptedPolicy(actions), config=small_config())
    hv.submit(request(graph, batch_size=batch))
    return hv


class TestInvalidActions:
    def test_configure_unknown_app_rejected(self):
        hv = _single_app_hypervisor(
            [ConfigureAction(99, "c_t0", 0)]
        )
        with pytest.raises(SchedulerError, match="unknown/retired app"):
            hv.run()

    def test_configure_unknown_task_rejected(self):
        hv = _single_app_hypervisor([ConfigureAction(0, "nope", 0)])
        with pytest.raises(SchedulerError, match="unknown task"):
            hv.run()

    def test_double_configure_rejected(self):
        hv = _single_app_hypervisor(
            [ConfigureAction(0, "c_t0", 0), ConfigureAction(0, "c_t0", 1)]
        )
        with pytest.raises(SchedulerError, match="cannot be configured"):
            hv.run()

    def test_configure_into_occupied_slot_rejected(self):
        graph2 = chain_graph("d", [50.0])
        hv = Hypervisor(
            ScriptedPolicy(
                [ConfigureAction(0, "c_t0", 0), ConfigureAction(1, "d_t0", 0)]
            ),
            config=small_config(),
        )
        hv.submit(request(chain_graph("c", [50.0])))
        hv.submit(request(graph2))
        with pytest.raises(SchedulerError, match="not free"):
            hv.run()

    def test_preempt_empty_slot_rejected(self):
        hv = _single_app_hypervisor([PreemptAction(1)])
        with pytest.raises(SchedulerError, match="cannot preempt slot"):
            hv.run()

    @pytest.mark.parametrize("action", [
        ("configure", 0, "c_t0", 0),
        type("RelabelledConfigure", (ConfigureAction,), {})(0, "c_t0", 0),
    ], ids=["foreign-object", "action-subclass"])
    def test_unknown_action_rejected(self, action):
        # Passes dispatch on the exact action type.
        hv = _single_app_hypervisor([action])
        with pytest.raises(SchedulerError, match="unknown action"):
            hv.run()

    def test_policy_livelock_detected(self):
        class Livelock(SchedulerPolicy):
            name = "livelock"

            def decide(self, ctx):
                # Preempt and re-offer the same slot forever.
                if ctx.slot_waiting(0):
                    return PreemptAction(0)
                return None

        graph = chain_graph("c", [50.0, 50.0])
        hv = Hypervisor(make_scheduler("baseline"), config=small_config())
        # Run a legitimate policy first so slot 0 hosts a waiting task...
        hv.submit(request(graph, batch_size=1))
        hv.run()
        # ...then drive a livelocking policy against a fresh workload.
        hv2 = Hypervisor(Livelock(), config=small_config())
        hv2.submit(request(graph, batch_size=1))
        # Never configures anything: the workload cannot finish, so run to
        # a horizon. The pass-level livelock guard is exercised elsewhere;
        # here we check an idle policy cannot wedge a pass.
        hv2.run(until=5_000.0)
        assert not hv2.all_retired


class TestBitstreamLoadModeling:
    def test_first_config_pays_load_cost(self):
        graph = chain_graph("c", [100.0])
        base_hv, base = run_named(
            "baseline", [request(graph)], small_config()
        )
        loaded_hv = Hypervisor(
            make_scheduler("baseline"),
            config=small_config(),
            model_bitstream_loads=True,
        )
        loaded_hv.submit(request(graph))
        loaded_hv.run()
        loaded = loaded_hv.results()
        assert loaded[0].response_ms > base[0].response_ms
        assert loaded_hv.store.loads == 1


class TestTickLifecycle:
    def test_ticks_stop_when_idle_and_resume(self):
        # Nimblock implements notify_tick, so its interval chain runs.
        graph = chain_graph("c", [1_000.0])
        hv = Hypervisor(make_scheduler("nimblock"), config=small_config())
        hv.submit(request(graph, arrival_ms=0.0))
        # A second burst long after the first workload drained.
        hv.submit(request(graph, arrival_ms=10_000.0))
        hv.run()
        assert hv.all_retired
        # Each app runs alone, so only ticks raise its token: the chain
        # ran for the first burst and restarted for the second...
        for app in hv.apps.values():
            assert app.token > app.priority
        # ...but no tick fired during the idle gap: the engine's
        # processed-event count stays far below gap/interval.
        idle_ticks = 10_000.0 / hv.config.scheduling_interval_ms
        assert hv.engine.processed < idle_ticks

    @pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda s: s.name)
    def test_interval_runs_only_for_clock_readers(self, scenario):
        requests = scenario_sequence(scenario, 7, 10).to_requests()

        def run(name, admission):
            hv = Hypervisor(make_scheduler(name), admission=admission)
            for req in requests:
                hv.submit(req)
            hv.run()
            dump = (
                trace_to_dict(hv.trace, label=name),
                [r.response_ms for r in hv.results()],
            )
            return dump, hv.engine.processed, hv.scheduler_passes

        for name in ("baseline", "fcfs", "rr", "edf", "dml_static",
                     "prema", "nimblock"):
            bare, bare_events, bare_passes = run(name, None)
            # Unbounded admission is inert but keeps the interval running.
            ticked, ticked_events, ticked_passes = run(
                name, AdmissionController("unbounded")
            )
            assert bare == ticked, name
            if name in ("prema", "nimblock"):  # notify_tick: always ticks
                assert bare_events == ticked_events, name
                assert bare_passes == ticked_passes, name
            else:
                assert bare_events < ticked_events, name
                assert bare_passes < ticked_passes, name

    def test_interval_tick_drives_token_accumulation(self):
        graph = chain_graph("c", [1000.0])
        policy = make_scheduler("nimblock")
        hv = Hypervisor(policy, config=small_config())
        hv.submit(request(graph, batch_size=2, priority=3))
        hv.run()
        app = hv.apps[0]
        assert app.token > 3.0  # accumulated beyond its initial priority


class TestSimultaneousArrivals:
    def test_same_instant_arrivals_ordered_by_submission(self):
        g = chain_graph("g", [100.0])
        config = small_config(num_slots=1)
        _, results = run_named(
            "fcfs",
            [request(g, arrival_ms=0.0), request(g, arrival_ms=0.0)],
            config,
        )
        assert results[0].retire_ms < results[1].retire_ms


class TestContextHelpers:
    def test_free_slot_accounting(self):
        hv = Hypervisor(make_scheduler("fcfs"), config=small_config())
        ctx = hv._ctx
        assert ctx.free_slot_index() == 0
        assert ctx.free_slot_count() == 2
        assert ctx.slot_occupant(0) is None
        assert not ctx.slot_waiting(0)

    def test_occupant_visible_after_config(self):
        graph = chain_graph("c", [1000.0, 1000.0])
        hv = Hypervisor(make_scheduler("baseline"), config=small_config())
        hv.submit(request(graph, batch_size=1))
        hv.run(until=200.0)
        ctx = hv._ctx
        occupant = ctx.slot_occupant(0)
        assert occupant is not None
        app, task = occupant
        assert app.app_id == 0
        assert not ctx.slot_waiting(0)  # the task is mid-item at t=200
