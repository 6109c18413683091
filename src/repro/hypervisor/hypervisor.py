"""The hypervisor main loop binding scheduler policy to the simulated board.

Responsibilities mirror the paper's §2.2 description: accept application
requests, load partial bitstreams and drive reconfiguration through the
CAP, allocate and release data buffers, launch batch items on configured
tasks, retire finished applications and record response times.

Execution model
---------------
Every state change (arrival, reconfiguration completion, item completion,
slot fault or repair) requests a *scheduler pass*. Passes at the same
simulated instant coalesce. A pass first lets the policy act while the
configuration port is idle — preempting slots and/or starting at most one
reconfiguration, because the device can only reconfigure one slot at a
time — and then mechanically launches the next batch item on every
configured task whose dependencies (bulk or pipelined, per the policy's
flags) are satisfied.

The periodic scheduling interval also requests a pass, but only when
something reads the clock: a policy that implements
:meth:`~repro.schedulers.base.SchedulerPolicy.notify_tick` (token
accumulation), or an attached fault injector (recovery backoff),
admission controller (pressure and shedding) or watchdog (starvation).
A policy whose ``decide`` depends only on queue, board and policy state
would re-examine an unchanged state on a tick, so without those readers
the interval is never scheduled.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.admission.controller import AdmissionController
    from repro.admission.watchdog import Watchdog
    from repro.faults.injector import FaultInjector

from repro.apps.hls import application_latency_estimate_ms, reports_for_benchmark
from repro.config import SystemConfig
from repro.errors import SchedulerError
from repro.faults.models import FaultStats
from repro.faults.recovery import RecoveryPolicy
from repro.hypervisor.application import (
    AppRequest,
    AppRun,
    TaskRun,
    TaskRunState,
)
from repro.hypervisor.queues import PendingQueue
from repro.hypervisor.results import AppResult
from repro.overlay.bitstream import BitstreamHeader, BitstreamStore
from repro.overlay.device import FPGADevice, Slot, SlotHealth, SlotPhase
from repro.overlay.interconnect import InterconnectModel, ZeroCost
from repro.overlay.memory import BufferManager
from repro.schedulers.base import (
    Action,
    ConfigureAction,
    PreemptAction,
    SchedulerPolicy,
)
from repro.modes import normalize_mode
from repro.sim.engine import SimulationEngine
from repro.sim.trace import MetricsTrace, Trace, TraceKind

#: Nominal size of one task-output buffer (per batch item).
ITEM_BUFFER_BYTES = 256 * 1024


class SchedulerContext:
    """Read-mostly view of hypervisor state handed to policies."""

    def __init__(self, hypervisor: "Hypervisor") -> None:
        self._hv = hypervisor

    @property
    def now(self) -> float:
        """Current simulated time (ms)."""
        return self._hv.engine.now

    @property
    def config(self) -> SystemConfig:
        """Platform configuration."""
        return self._hv.config

    @property
    def device(self) -> FPGADevice:
        """The simulated board."""
        return self._hv.device

    @property
    def pending(self) -> PendingQueue:
        """Queue of unretired applications."""
        return self._hv.pending

    def pending_apps(self) -> List[AppRun]:
        """Unretired applications, oldest first.

        Under an overloaded degrade admission policy this view is browned
        out (re-ordered priority-major); without an admission controller
        it is exactly the pending queue's cached arrival-order snapshot.
        """
        hv = self._hv
        apps = hv.pending.in_arrival_order()
        admission = hv.admission
        if admission is not None and admission._is_degrade:
            apps = admission.filter_candidates(apps)
        return apps

    def pending_version(self) -> int:
        """Mutation version of the pending queue (cache key component)."""
        return self._hv.pending.version

    def token_boosts(self) -> int:
        """Lifetime watchdog token boosts (cache key component).

        Together with :attr:`TokenAccounting.gen` and
        :meth:`pending_version` this covers every site that can change a
        pending application's scheduling token.
        """
        watchdog = self._hv.watchdog
        return watchdog.starvation_boosts if watchdog is not None else 0

    def app(self, app_id: int) -> AppRun:
        """Look up any submitted application by id."""
        return self._hv.apps[app_id]

    def free_slot_index(self) -> Optional[int]:
        """Index of the lowest-numbered free slot, or None (cached)."""
        return self._hv.device.lowest_free_slot_index()

    def free_slot_count(self) -> int:
        """Number of slots ready for reconfiguration."""
        return len(self._hv.device.free_slots())

    def slot_occupant(self, slot_index: int) -> Optional[Tuple[AppRun, TaskRun]]:
        """(app, task) pair hosted by a slot, or None."""
        slot = self._hv.device.slot(slot_index)
        if slot.phase != SlotPhase.OCCUPIED:
            return None
        return slot.occupant  # type: ignore[return-value]

    def slot_waiting(self, slot_index: int) -> bool:
        """True if a slot hosts a task idling at a batch boundary."""
        slot = self._hv.device.slot(slot_index)
        return slot.phase == SlotPhase.OCCUPIED and not slot.busy

    def healthy_slot_count(self) -> int:
        """Slots not currently faulted or blacklisted."""
        return len(self._hv.device.healthy_slots())

    def admission_slot_cap(self) -> Optional[int]:
        """Per-app slot cap while the degrade policy is overloaded.

        None — the near-universal case — means no cap: no admission
        controller is attached, its policy does not degrade, or pressure
        is below the overload watermarks.
        """
        admission = self._hv.admission
        if admission is None:
            return None
        return admission.slot_cap()


class Hypervisor:
    """System manager running one scheduling policy over one workload."""

    def __init__(
        self,
        scheduler: SchedulerPolicy,
        config: Optional[SystemConfig] = None,
        engine: Optional[SimulationEngine] = None,
        buffer_capacity_bytes: int = 16 * 1024**3,
        model_bitstream_loads: bool = False,
        interconnect: Optional["InterconnectModel"] = None,
        item_buffer_bytes: int = ITEM_BUFFER_BYTES,
        faults: Optional["FaultInjector"] = None,
        recovery: Optional[RecoveryPolicy] = None,
        observer: Optional[object] = None,
        admission: Optional["AdmissionController"] = None,
        watchdog: Optional["Watchdog"] = None,
        mode: str = "full",
    ) -> None:
        self.config = config or SystemConfig()
        #: Run mode ("full" records trace rows; "metrics" folds straight
        #: into counters).
        self.mode = normalize_mode(mode)
        self.engine = engine or SimulationEngine()
        self.scheduler = scheduler
        self.device = FPGADevice(self.engine, self.config.num_slots)
        self.store = BitstreamStore(self.config.num_slots)
        self.buffers = BufferManager(buffer_capacity_bytes)
        self.trace = Trace() if self.mode == "full" else MetricsTrace()
        self.pending = PendingQueue()
        self.apps: Dict[int, AppRun] = {}
        self.retired: List[AppRun] = []
        self._ctx = SchedulerContext(self)
        self._next_app_id = 0
        self._pass_pending = False
        self._tick_scheduled = False
        self._arrivals_outstanding = 0
        self._registered_apps: set = set()
        self._model_bitstream_loads = model_bitstream_loads
        self.interconnect = interconnect or ZeroCost()
        if item_buffer_bytes <= 0:
            raise SchedulerError(
                f"item_buffer_bytes must be > 0, got {item_buffer_bytes}"
            )
        self.item_buffer_bytes = item_buffer_bytes
        self._retire_listeners: List = []
        self.scheduler_passes = 0
        # Hoisted interconnect test: with the default ZeroCost model the
        # per-item transfer charge is always 0, so the launch loop skips
        # the per-predecessor transfer walk entirely.
        self._zero_cost_interconnect = isinstance(self.interconnect, ZeroCost)
        # Fault injection & recovery (repro.faults). With no injector the
        # hook sites below are no-ops and the run is byte-identical to the
        # pre-fault-subsystem simulator.
        self.recovery = recovery or RecoveryPolicy()
        self.fault_stats = FaultStats()
        #: In-flight item completions per slot: (engine seq, start ms).
        self._item_events: Dict[int, Tuple[int, float]] = {}
        self._corrupted_configs: set = set()
        self._config_failures: Dict[Tuple[int, str], int] = {}
        self.faults = faults
        if faults is not None:
            faults.attach(self)
        # Observability hook (repro.observe.Instrumentation, or anything
        # with the same three methods). None — the default — leaves every
        # hook site as a single predicate; no observe code is imported or
        # executed, keeping the unobserved path at seed speed.
        self.observer = observer
        if observer is not None:
            self.engine.set_observer(observer)
        # Overload protection (repro.admission). Both default to None and
        # every hook site below is a single ``is not None`` predicate, so
        # the unprotected path is byte-identical to the pre-admission
        # simulator (pinned by tests/test_perf_equivalence.py).
        self.admission = admission
        if admission is not None:
            admission.attach(self)
        self.watchdog = watchdog
        if watchdog is not None:
            watchdog.attach(self)
        #: True when something reads elapsed time between state changes
        #: (see the module docstring); otherwise the interval never ticks.
        self._ticks = (
            type(scheduler).notify_tick is not SchedulerPolicy.notify_tick
            or faults is not None
            or admission is not None
            or watchdog is not None
        )
        #: Applications evicted by load shedding (never retired).
        self.shed: List[AppRun] = []
        #: Pass number at which the fault stall-breaker last detached
        #: residents; the watchdog stands down for that pass.
        self._last_stall_break_pass = -1
        # Per-pass hot-path constants (config and device are fixed for
        # the hypervisor's lifetime).
        self._guard_limit = 4 * self.config.num_slots + 4
        self._port = self.device.port
        self._slots = self.device.slots
        # Arrival-latency-estimate memo. Service workloads draw requests
        # from a tiny benchmark pool, so the same (graph, batch) pair
        # recurs thousands of times; the estimate is a pure function of
        # both when no estimation error is configured. Keyed by object
        # identity with a strong graph reference so ids cannot be reused.
        self._estimate_cache: Dict[tuple, tuple] = {}
        #: Macro-event replay cache (repro.sim.replay), installed by the
        #: service loop / cluster shards. None — the default — keeps the
        #: arrival path byte-identical to the pre-replay simulator.
        self._replay = None

    def add_retire_listener(self, callback) -> None:
        """Register ``callback(app_run, now)`` to fire on each retirement.

        Listeners run after the policy's completion notification; they may
        submit new applications (the FaaS gateway's admission control uses
        this to release queued invocations).
        """
        self._retire_listeners.append(callback)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: AppRequest) -> int:
        """Queue an application arrival; returns its assigned app id."""
        app_id = self._next_app_id
        self._next_app_id += 1
        self._arrivals_outstanding += 1
        self.engine.schedule(
            request.arrival_ms,
            lambda now, r=request, a=app_id: self._on_arrival(now, a, r),
            -5,
        )
        return app_id

    def _register_bitstreams(self, request: AppRequest) -> None:
        if request.name in self._registered_apps:
            return
        self._registered_apps.add(request.name)
        for task_id in request.graph.topological_order:
            spec = request.graph.task(task_id)
            header = BitstreamHeader(
                application=request.name,
                task_id=task_id,
                latency_estimate_ms=spec.latency_ms,
                batch_size=request.batch_size,
                priority=request.priority,
            )
            self.store.register_task(header)

    def _on_arrival(self, now: float, app_id: int, request: AppRequest) -> None:
        self._arrivals_outstanding -= 1
        if self.admission is not None and not self.admission.admit(
            now, app_id, request
        ):
            # Rejected: the controller has either re-scheduled this
            # arrival with backoff or dropped the application for good.
            return
        replay = self._replay
        if replay is not None and replay.try_replay(now, app_id, request):
            # The memoized segment was applied in bulk (trace rows,
            # counters, credited engine events, deferred retirement);
            # the live cascade below would duplicate it.
            return
        self._arrive(now, app_id, request)
        self._ensure_tick()
        self._request_pass()

    def _arrive(self, now: float, app_id: int, request: AppRequest) -> AppRun:
        """The arrival prelude: register, estimate, queue and announce.

        Shared by the live path and a replayed segment, which then
        supplies everything after the announcement.
        """
        self._register_bitstreams(request)
        error = self.config.hls_estimation_error
        graph = request.graph
        if error == 0:
            # Pure function of (graph, batch) when estimates are exact;
            # the memo holds the graph strongly so the id stays valid.
            key = (id(graph), request.batch_size)
            hit = self._estimate_cache.get(key)
            if hit is not None and hit[0] is graph:
                estimate = hit[1]
            else:
                estimate = application_latency_estimate_ms(
                    graph, request.batch_size, self.config.reconfig_ms,
                    estimation_error=0.0,
                )
                self._estimate_cache[key] = (graph, estimate)
        else:
            estimate = application_latency_estimate_ms(
                graph, request.batch_size, self.config.reconfig_ms,
                estimation_error=error,
            )
        task_estimates = None
        if error > 0:
            task_estimates = {
                task_id: report.latency_estimate_ms
                for task_id, report in reports_for_benchmark(
                    request.graph, error
                ).items()
            }
        app = AppRun(app_id, request, estimate, task_estimates)
        self.apps[app_id] = app
        self.pending.add(app)
        self.trace.record(now, TraceKind.APP_ARRIVED, app_id=app_id)
        self.scheduler.notify_arrival(self._ctx, app)
        return app

    # ------------------------------------------------------------------
    # Periodic scheduling interval
    # ------------------------------------------------------------------
    def _ensure_tick(self) -> None:
        # Ticks only run while applications are pending; arrival handling
        # restarts the chain, so a long idle gap before a future arrival
        # costs no tick events.
        if self._tick_scheduled or not self._ticks or not len(self.pending):
            return
        self._tick_scheduled = True
        self.engine.schedule_delay(
            self.config.scheduling_interval_ms, self._on_tick, 5
        )

    def _on_tick(self, now: float) -> None:
        self._tick_scheduled = False
        if not len(self.pending):
            return
        self.scheduler.notify_tick(self._ctx)
        self._request_pass()
        self._ensure_tick()

    # ------------------------------------------------------------------
    # Scheduler pass
    # ------------------------------------------------------------------
    def _request_pass(self) -> None:
        if self._pass_pending:
            return
        self._pass_pending = True
        self.engine.schedule_delay(0.0, self._run_pass, 10)

    def _run_pass(self, now: float) -> None:
        self._pass_pending = False
        self.scheduler_passes += 1
        observer = self.observer
        pass_token = (
            observer.pass_started() if observer is not None else None
        )
        if self.admission is not None:
            # Pressure refresh + load shedding. Pass start is a batch
            # boundary for every shed victim (it has nothing in flight).
            self.admission.on_pass(now)
        guard = 0
        guard_limit = self._guard_limit
        port = self._port
        decide = self.scheduler.decide
        ctx = self._ctx
        configured = False
        # ``port._active is None`` inlines ``port.is_busy`` and the exact
        # ``type`` checks inline the common ``_apply`` dispatch; action
        # subclasses still reach ``_apply`` through the fallback.
        while port._active is None:
            guard += 1
            if guard > guard_limit:
                raise SchedulerError(
                    f"policy {self.scheduler.name!r} looped without progress"
                )
            action = decide(ctx)
            if action is None:
                break
            action_type = type(action)
            if action_type is ConfigureAction:
                self._apply_configure(action, now)
                configured = True
                break
            if action_type is PreemptAction:
                self._apply_preempt(action, now)
            else:
                self._apply(action, now)
                if isinstance(action, ConfigureAction):
                    configured = True
                    break
        self._launch_ready_items(now)
        # The stall breaker only ever acts under fault injection; gate
        # on that here so fault-free passes skip the call entirely.
        if not configured and self.faults is not None:
            self._break_fault_stall(now)
        if self.watchdog is not None:
            self.watchdog.on_pass(self, now)
        if observer is not None:
            observer.pass_finished(self, now, pass_token)

    def _break_fault_stall(self, now: float) -> None:
        """Un-wedge the board when faults strand runnable work.

        A fault can evict a task whose prefetch-configured successors
        occupy every remaining healthy slot: the successors idle-wait for
        the evicted predecessor, which has no free healthy slot to return
        to. Fault-free runs cannot reach this state (the slot complement
        never shrinks), so the breaker only engages while some slot is
        unhealthy. It detaches every idle resident at the batch boundary —
        the paper's preemption primitive, so batch progress is retained —
        and books a pass for the policy to re-place tasks in dependency
        order on the freed slots.
        """
        if self.faults is None or not self.pending:
            return
        if self.device.port.is_busy:
            return
        slots = self.device.slots
        if all(slot.health is SlotHealth.HEALTHY for slot in slots):
            return
        if any(slot.busy for slot in slots) or any(s.is_free for s in slots):
            return
        if self._detach_idle_residents(now):
            self._last_stall_break_pass = self.scheduler_passes
            self._request_pass()

    def _detach_idle_residents(self, now: float) -> int:
        """Batch-boundary detach of every occupied, non-busy slot.

        The recovery primitive shared by the fault stall-breaker and the
        watchdog's stall kick; returns the number of slots freed.
        """
        detached = 0
        slots = self.device.slots
        for index in sorted(self.device.idle_residents):
            slot = slots[index]
            app, task = slot.occupant  # type: ignore[misc]
            task.detach()
            app._slots_used -= 1
            slot.clear()
            detached += 1
            self.trace.record(
                now, TraceKind.TASK_PREEMPTED,
                app_id=app.app_id, task_id=task.task_id, slot=slot.index,
                detail=float(task.items_done),
            )
        return detached

    def _apply(self, action: Action, now: float) -> None:
        if isinstance(action, ConfigureAction):
            self._apply_configure(action, now)
        elif isinstance(action, PreemptAction):
            self._apply_preempt(action, now)
        else:  # pragma: no cover - type guard
            raise SchedulerError(f"unknown action {action!r}")

    def _apply_configure(self, action: ConfigureAction, now: float) -> None:
        app = self.apps.get(action.app_id)
        if app is None or action.app_id not in self.pending:
            raise SchedulerError(
                f"configure for unknown/retired app {action.app_id}"
            )
        task = app.tasks.get(action.task_id)
        if task is None:
            raise SchedulerError(
                f"configure for unknown task {action.task_id!r}"
            )
        if task.state != TaskRunState.PENDING:
            raise SchedulerError(
                f"task {action.task_id!r} cannot be configured from {task.state}"
            )
        if task.items_done >= app.batch_size:
            raise SchedulerError(
                f"task {action.task_id!r} already finished its batch"
            )
        slot = self.device.slot(action.slot_index)
        if not slot.is_free:
            raise SchedulerError(
                f"slot {action.slot_index} is not free for {action.task_id!r}"
            )

        duration = self.config.reconfig_ms + self.config.dispatch_overhead_ms
        if self._model_bitstream_loads:
            _, load_ms = self.store.load(app.name, task.task_id, slot.index)
            duration += load_ms
        will_fail = False
        if self.faults is not None:
            will_fail, jitter_ms = self.faults.draw_config_outcome(
                self.config.reconfig_ms
            )
            duration += jitter_ms
        task.state = TaskRunState.CONFIGURING
        app._slots_used += 1
        task.slot_index = slot.index
        task.configure_count += 1
        app.reconfig_busy_ms += duration
        self.trace.record(
            now, TraceKind.TASK_CONFIG_START,
            app_id=app.app_id, task_id=task.task_id, slot=slot.index,
        )

        def on_done(
            done_now: float, app=app, task=task, slot=slot,
            will_fail=will_fail, duration=duration,
        ) -> None:
            corrupted = slot.index in self._corrupted_configs
            self._corrupted_configs.discard(slot.index)
            if will_fail or corrupted or not slot.is_healthy:
                self._on_config_failed(done_now, app, task, slot, duration)
                return
            slot.host((app, task))
            task.state = TaskRunState.CONFIGURED
            self._config_failures.pop((app.app_id, task.task_id), None)
            if task.relocated_from is not None:
                if task.relocated_from != slot.index:
                    self.fault_stats.relocations += 1
                    self.trace.record(
                        done_now, TraceKind.TASK_RELOCATED,
                        app_id=app.app_id, task_id=task.task_id,
                        slot=slot.index, detail=float(task.relocated_from),
                    )
                task.relocated_from = None
            self.trace.record(
                done_now, TraceKind.TASK_CONFIG_DONE,
                app_id=app.app_id, task_id=task.task_id, slot=slot.index,
            )
            if task.was_detached:
                # Pairs the earlier TASK_PREEMPTED / fault eviction: the
                # task is back on the board with its batch progress intact.
                task.was_detached = False
                self.trace.record(
                    done_now, TraceKind.TASK_RESUMED,
                    app_id=app.app_id, task_id=task.task_id,
                    slot=slot.index, detail=float(task.items_done),
                )
            self._request_pass()

        self.device.port.request(slot, duration, on_done)

    def _on_config_failed(
        self, now: float, app: AppRun, task: TaskRun, slot: Slot,
        duration: float,
    ) -> None:
        """A partial reconfiguration failed: roll back and retry with backoff.

        The task returns to PENDING (its batch progress is untouched), the
        slot returns to EMPTY, and a scheduler pass is booked after an
        exponentially growing backoff so the policy re-issues the
        configuration — on whichever healthy slot is free by then.
        """
        slot.abort_reconfig()
        task.state = TaskRunState.PENDING
        app._slots_used -= 1
        task.slot_index = None
        self.fault_stats.config_failures += 1
        self.fault_stats.work_lost_ms += duration
        self.trace.record(
            now, TraceKind.CONFIG_FAILED,
            app_id=app.app_id, task_id=task.task_id, slot=slot.index,
            detail=duration,
        )
        key = (app.app_id, task.task_id)
        attempt = self._config_failures.get(key, 0) + 1
        self._config_failures[key] = attempt
        self.engine.schedule_delay(
            self.recovery.backoff_ms(attempt),
            lambda _now: self._request_pass(),
            8,
        )

    def _apply_preempt(self, action: PreemptAction, now: float) -> None:
        slot = self.device.slot(action.slot_index)
        if slot.phase != SlotPhase.OCCUPIED:
            raise SchedulerError(
                f"cannot preempt slot {action.slot_index} in phase {slot.phase}"
            )
        if slot.busy:
            raise SchedulerError(
                f"cannot preempt slot {action.slot_index} mid-item; "
                "batch-preemption only fires at batch boundaries"
            )
        app, task = slot.occupant  # type: ignore[misc]
        task.detach()
        app._slots_used -= 1
        slot.clear()
        self.trace.record(
            now, TraceKind.TASK_PREEMPTED,
            app_id=app.app_id, task_id=task.task_id, slot=slot.index,
            detail=float(task.items_done),
        )

    # ------------------------------------------------------------------
    # Item execution
    # ------------------------------------------------------------------
    def _launch_ready_items(self, now: float) -> None:
        # The device maintains the idle-resident index set inline with
        # slot transitions; sorting the handful of candidates preserves
        # the old whole-board scan's ascending-index launch order.
        idle = self.device.idle_residents
        if not idle:
            return
        pipelined = self.scheduler.pipelined
        if pipelined and self.admission is not None:
            # The degrade policy throttles pipelining depth to bulk mode
            # while the overload pressure signal is high.
            pipelined = self.admission.pipelining_allowed()
        record = self.trace.record
        schedule_delay = self.engine.schedule_delay
        slots = self._slots
        # One idle resident is by far the common case under load; skip
        # the sort (launch order is trivially ascending either way).
        indices = tuple(idle) if len(idle) == 1 else sorted(idle)
        for index in indices:
            slot = slots[index]
            app, task = slot.occupant  # type: ignore[misc]
            if not app._run_item_ready(task, pipelined):
                continue
            item = task.items_done
            slot.start_item()
            if app.first_item_start_ms is None:
                app.first_item_start_ms = now
                self.pending.mark_started(app.app_id)
                record(now, TraceKind.APP_STARTED, app_id=app.app_id)
            record(
                now, TraceKind.ITEM_START,
                app_id=app.app_id, task_id=task.task_id, slot=slot.index,
                detail=float(item),
            )
            duration = task.latency_ms
            if not self._zero_cost_interconnect:
                duration += self._transfer_in_ms(app, task, item, slot.index)
            seq = schedule_delay(
                duration,
                lambda done_now, a=app, t=task, s=slot: self._on_item_done(
                    done_now, a, t, s
                ),
                -2,
            )
            # Remember the in-flight completion so a slot fault can cancel
            # it and account the partial item as lost work. The seq is
            # popped here before any cancel can target it once the item
            # completes, so the raw no-handle cancel path is safe.
            self._item_events[slot.index] = (seq, now)

    def _transfer_in_ms(
        self, app: AppRun, task: TaskRun, item: int, slot_index: int
    ) -> float:
        """Cost of fetching the item's inputs over the interconnect.

        With the default :class:`ZeroCost` model this is always 0 (the
        calibrated task latencies already include PS-routed movement) and
        the launch loop never calls here; the explicit models charge per
        producing slot.
        """
        if self._zero_cost_interconnect:
            return 0.0
        worst = 0.0
        for pred in app.graph.predecessors(task.task_id):
            producer_slot = app.tasks[pred].producer_slots[item]
            worst = max(
                worst,
                self.interconnect.transfer_ms(
                    self.item_buffer_bytes,
                    same_slot=producer_slot == slot_index,
                ),
            )
        return worst

    def _on_item_done(
        self, now: float, app: AppRun, task: TaskRun, slot: Slot
    ) -> None:
        self._item_events.pop(slot.index, None)
        slot.finish_item()
        item = task.items_done
        task.items_done += 1
        task.producer_slots.append(slot.index)
        app.last_item_done_ms = now
        self.trace.record(
            now, TraceKind.ITEM_DONE,
            app_id=app.app_id, task_id=task.task_id, slot=slot.index,
            detail=float(item),
        )

        # Direct edge-table reads (the methods only add a lookup guard,
        # and task ids of a live TaskRun are always in the graph).
        graph = app.graph
        task_id = task.task_id
        buffers = self.buffers
        buffers.publish_output(
            app.app_id, task_id, item, self.item_buffer_bytes,
            len(graph._succ_tuples[task_id]),
        )
        for pred in graph._pred_tuples[task_id]:
            buffers.consume(app.app_id, pred, item)

        if task.items_done >= app.batch_size:
            task.state = TaskRunState.DONE
            app._slots_used -= 1
            task.slot_index = None
            slot.clear()
            self.trace.record(
                now, TraceKind.TASK_DONE,
                app_id=app.app_id, task_id=task.task_id, slot=slot.index,
            )
            if app.is_complete:
                self._retire(app, now)
        self._request_pass()

    def _retire(self, app: AppRun, now: float) -> None:
        app.retire_ms = now
        self.pending.remove(app.app_id)
        self.retired.append(app)
        self.buffers.release_app(app.app_id)
        self.trace.record(now, TraceKind.APP_RETIRED, app_id=app.app_id)
        self.scheduler.notify_completion(self._ctx, app)
        for listener in self._retire_listeners:
            listener(app, now)

    def _shed_app(self, app: AppRun, now: float) -> None:
        """Evict one zero-progress pending application (load shedding).

        The victim leaves the pending queue for good: it never retires
        and produces no :class:`AppResult`. The policy is notified as for
        a completion so its per-app bookkeeping (goal numbers, token
        accounting) is cleaned up. Retire listeners do *not* fire — the
        application did not finish.
        """
        self.pending.remove(app.app_id)
        self.shed.append(app)
        self.buffers.release_app(app.app_id)
        self.trace.record(
            now, TraceKind.APP_SHED, app_id=app.app_id,
            detail=float(app.priority),
        )
        self.scheduler.notify_completion(self._ctx, app)

    # ------------------------------------------------------------------
    # Fault injection & recovery (repro.faults)
    # ------------------------------------------------------------------
    def inject_slot_fault(
        self, now: float, slot_index: int, permanent: bool = False
    ) -> bool:
        """Apply a slot fault: evict, roll back, mark unhealthy, trace.

        Returns False when the fault is refused (the slot is already dead,
        or killing it permanently would drop the board below
        ``recovery.min_healthy_slots``). An occupied slot's task is
        detached with the batch-boundary rollback machinery — completed
        items are its checkpoint, only the in-flight item (if any) is
        lost — and the scheduler relocates it to a healthy slot on a
        later pass.

        Called by :class:`repro.faults.FaultInjector`; also usable
        directly for scripted fault drills.
        """
        slot = self.device.slot(slot_index)
        if slot.health is SlotHealth.DEAD:
            return False
        if permanent and (
            len(self.device.healthy_slots())
            <= self.recovery.min_healthy_slots
        ):
            return False
        work_lost = 0.0
        evicted: Optional[Tuple[AppRun, TaskRun]] = None
        if slot.phase == SlotPhase.RECONFIGURING:
            # The CAP is (or will be) writing this region; the write is
            # doomed. The in-flight request fails when it completes.
            self._corrupted_configs.add(slot.index)
        elif slot.phase == SlotPhase.OCCUPIED:
            app, task = slot.occupant  # type: ignore[misc]
            evicted = (app, task)
            if slot.busy:
                pending = self._item_events.pop(slot.index, None)
                if pending is not None:
                    seq, started = pending
                    self.engine.cancel(seq)
                    work_lost = now - started
                self.fault_stats.items_lost += 1
                slot.interrupt_item()
            task.detach()  # batch-boundary rollback (core/preemption)
            app._slots_used -= 1
            task.relocated_from = slot.index
            slot.clear()
            self.fault_stats.evictions += 1
        if permanent:
            slot.mark_dead()
            self.fault_stats.permanent_faults += 1
        else:
            slot.mark_faulty()
            self.fault_stats.transient_faults += 1
        self.fault_stats.work_lost_ms += work_lost
        self.trace.record(
            now, TraceKind.SLOT_FAULT,
            app_id=evicted[0].app_id if evicted else None,
            task_id=evicted[1].task_id if evicted else None,
            slot=slot_index, detail=work_lost,
        )
        self._request_pass()
        return True

    def repair_slot(self, now: float, slot_index: int) -> bool:
        """Complete the scrub of a transiently faulted slot."""
        slot = self.device.slot(slot_index)
        if slot.health is not SlotHealth.FAULTY:
            return False  # dead slots never repair; healthy need nothing
        slot.repair()
        self.fault_stats.repairs += 1
        self.trace.record(now, TraceKind.SLOT_REPAIRED, slot=slot_index)
        self._request_pass()
        return True

    # ------------------------------------------------------------------
    # Running and results
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Run the simulation to completion (or to the ``until`` horizon)."""
        self.engine.run(until=until)

    @property
    def all_retired(self) -> bool:
        """True once every admitted application has retired or been shed.

        Applications dropped by a rejecting admission policy never enter
        ``apps`` and therefore do not count; shed applications left the
        system deliberately and do.
        """
        return (
            self._arrivals_outstanding == 0
            and len(self.pending) == 0
            and len(self.retired) + len(self.shed) == len(self.apps)
        )

    def results(self) -> List[AppResult]:
        """Per-application results for every retired application."""
        ordered = sorted(self.retired, key=lambda app: app.app_id)
        return [
            AppResult.from_app(app, self.config.reconfig_ms)
            for app in ordered
        ]
