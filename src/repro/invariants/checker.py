"""Runtime invariant checker for the hypervisor/board state machine.

The checker implements the same observer protocol as
:class:`repro.observe.Instrumentation` and attaches through the existing
``Hypervisor(observer=...)`` hook — so it inherits the zero-cost-when-off
contract: without a checker no invariant code is imported or executed.

After every scheduler pass (`pass_finished`) it verifies:

* **slot mutual exclusion** — each occupied slot hosts exactly one
  CONFIGURED task whose ``slot_index`` points back at it, and no task is
  resident in two slots;
* **config-port serialization** — at most one partial reconfiguration is
  active (the device can only drive one DPR at a time), and the number
  of RECONFIGURING slots equals the port's active+queued requests;
* **allocation discipline** — ``slots_used <= slots_allocated`` outside
  preemption windows: an application may *shrink* into over-consumption
  when reallocation takes slots away (that is what batch-preemption then
  claws back), but may never *grow* its slot usage while already at or
  above its allocation. Checked only when the policy maintains
  allocations at all (FCFS-style policies leave them at zero);
* **token conservation** — scheduling tokens never decrease while an
  application is pending (Algorithm 1 only ever accumulates; the
  watchdog's starvation boost only raises);
* **pending-queue/index consistency** — the tombstoned backing list, the
  position map and the id index of :class:`PendingQueue` agree.

A violation raises :class:`repro.errors.InvariantViolation` carrying the
last ``window`` trace events, so the failing transition is diagnosable
from the exception alone. A rowless trace (``mode="metrics"`` and every
service-tier run) has no events to attach; the violation still names
the invariant, with ``events == ()``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.errors import InvariantViolation, SchedulerError
from repro.hypervisor.application import TaskRunState
from repro.overlay.device import SlotPhase
from repro.sim.trace import MetricsTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hypervisor.hypervisor import Hypervisor


class InvariantChecker:
    """Observer verifying hypervisor invariants on every transition.

    Example
    -------
    >>> from repro import Hypervisor, make_scheduler
    >>> from repro.invariants import InvariantChecker
    >>> checker = InvariantChecker()
    >>> hv = Hypervisor(make_scheduler("nimblock"), observer=checker)
    >>> # ... submit + run: raises InvariantViolation on the first breach
    """

    def __init__(self, window: int = 24, check_every: int = 1) -> None:
        if window < 1:
            raise SchedulerError(f"window must be >= 1, got {window}")
        if check_every < 1:
            raise SchedulerError(
                f"check_every must be >= 1, got {check_every}"
            )
        self.window = window
        self.check_every = check_every
        #: Scheduler passes inspected (diagnostics; also the bench knob).
        self.passes_checked = 0
        self._pass_count = 0
        #: Previous per-app (slots_used, slots_allocated) snapshots.
        self._usage: Dict[int, Tuple[int, int]] = {}
        #: Previous per-app token readings.
        self._tokens: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # Observer protocol (same shape as repro.observe.Instrumentation)
    # ------------------------------------------------------------------
    def pass_started(self) -> None:
        """Hook: a scheduler pass begins (no state needed)."""
        return None

    def pass_finished(
        self, hypervisor: "Hypervisor", now: float, token: object
    ) -> None:
        """Hook: verify every invariant over the post-pass state."""
        self._pass_count += 1
        if self._pass_count % self.check_every:
            return
        self.check_now(hypervisor, now)

    # ------------------------------------------------------------------
    def check_now(self, hv: "Hypervisor", now: float) -> None:
        """Run the full invariant suite against the current state."""
        self.passes_checked += 1
        self._check_slot_exclusion(hv, now)
        self._check_port_serialization(hv, now)
        self._check_allocation_discipline(hv, now)
        self._check_token_conservation(hv, now)
        self._check_queue_consistency(hv, now)

    def _fail(self, hv: "Hypervisor", invariant: str, message: str) -> None:
        trace = hv.trace
        events = (
            () if isinstance(trace, MetricsTrace)
            else trace.events[-self.window:]
        )
        raise InvariantViolation(invariant, f"at t={hv.engine.now:.3f}ms: {message}", events)

    # ------------------------------------------------------------------
    def _check_slot_exclusion(self, hv: "Hypervisor", now: float) -> None:
        seen: Dict[Tuple[int, str], int] = {}
        for slot in hv.device.slots:
            if slot.phase is not SlotPhase.OCCUPIED:
                continue
            occupant = slot.occupant
            if occupant is None:
                self._fail(
                    hv, "slot-mutual-exclusion",
                    f"slot {slot.index} is OCCUPIED with no occupant",
                )
            app, task = occupant
            key = (app.app_id, task.task_id)
            if key in seen:
                self._fail(
                    hv, "slot-mutual-exclusion",
                    f"task {task.task_id!r} of app {app.app_id} is resident "
                    f"in slots {seen[key]} and {slot.index} simultaneously",
                )
            seen[key] = slot.index
            if task.state is not TaskRunState.CONFIGURED:
                self._fail(
                    hv, "slot-mutual-exclusion",
                    f"slot {slot.index} hosts task {task.task_id!r} in "
                    f"state {task.state.value!r} (expected configured)",
                )
            if task.slot_index != slot.index:
                self._fail(
                    hv, "slot-mutual-exclusion",
                    f"task {task.task_id!r} thinks it is in slot "
                    f"{task.slot_index}, but slot {slot.index} hosts it",
                )

    def _check_port_serialization(self, hv: "Hypervisor", now: float) -> None:
        port = hv.device.port
        reconfiguring = sum(
            1 for slot in hv.device.slots
            if slot.phase is SlotPhase.RECONFIGURING
        )
        active = 1 if port.is_busy else 0
        if reconfiguring > active + port.queue_depth:
            self._fail(
                hv, "config-port-serialization",
                f"{reconfiguring} slots are RECONFIGURING but the port "
                f"accounts for {active} active + {port.queue_depth} queued",
            )
        if not port.is_busy and port.queue_depth:
            self._fail(
                hv, "config-port-serialization",
                f"port is idle with {port.queue_depth} queued requests",
            )

    def _check_allocation_discipline(
        self, hv: "Hypervisor", now: float
    ) -> None:
        pending = hv.pending.in_arrival_order()
        # FCFS/RR-style policies never write slots_allocated: every app
        # sits at 0 allocated and the discipline is vacuous. Only check
        # once some live application actually carries an allocation.
        if not any(app.slots_allocated > 0 for app in pending):
            self._usage = {
                app.app_id: (app.slots_used, app.slots_allocated)
                for app in pending
            }
            return
        usage: Dict[int, Tuple[int, int]] = {}
        for app in pending:
            used = app.slots_used
            if used != app._slots_used:
                self._fail(
                    hv, "allocation-discipline",
                    f"app {app.app_id} slot-occupancy mirror drifted: "
                    f"counter {app._slots_used}, recount {used}",
                )
            allocated = app.slots_allocated
            usage[app.app_id] = (used, allocated)
            if used <= allocated:
                continue
            if self.check_every != 1:
                # Growth attribution needs adjacent-pass snapshots; with
                # sampled checking a legal configure-then-shrink between
                # two checks is indistinguishable from a breach.
                continue
            previous = self._usage.get(app.app_id)
            previous_used = previous[0] if previous else 0
            if used > previous_used:
                # Over-allocated AND grew since the last pass: the pass
                # configured a slot for an app already at/over its
                # allocation — a genuine discipline breach. (Shrinking
                # into over-consumption via reallocation is legal; the
                # preemption machinery reclaims it.)
                self._fail(
                    hv, "allocation-discipline",
                    f"app {app.app_id} grew to {used} slots used with "
                    f"only {allocated} allocated "
                    f"(was {previous_used} used)",
                )
        self._usage = usage

    def _check_token_conservation(self, hv: "Hypervisor", now: float) -> None:
        tokens: Dict[int, float] = {}
        for app in hv.pending.in_arrival_order():
            token = app.token
            tokens[app.app_id] = token
            if token < app.priority - 1e-9:
                self._fail(
                    hv, "token-conservation",
                    f"app {app.app_id} token {token:.6f} fell below its "
                    f"arrival value {app.priority}",
                )
            previous = self._tokens.get(app.app_id)
            if previous is not None and token < previous - 1e-9:
                self._fail(
                    hv, "token-conservation",
                    f"app {app.app_id} token decreased "
                    f"{previous:.6f} -> {token:.6f}",
                )
        self._tokens = tokens

    def _check_queue_consistency(self, hv: "Hypervisor", now: float) -> None:
        try:
            hv.pending.self_check()
        except SchedulerError as error:
            self._fail(hv, "pending-queue-consistency", str(error))
        ordered = hv.pending.in_arrival_order()
        for first, second in zip(ordered, ordered[1:]):
            if first.age_key > second.age_key:
                self._fail(
                    hv, "pending-queue-consistency",
                    f"arrival order broken: app {first.app_id} "
                    f"{first.age_key} precedes app {second.app_id} "
                    f"{second.age_key}",
                )
        for app in ordered:
            if app.retire_ms is not None:
                self._fail(
                    hv, "pending-queue-consistency",
                    f"retired app {app.app_id} is still pending",
                )


def checked_run(
    scheduler_name: str,
    sequence,
    fault_config=None,
    config=None,
    admission=None,
    seed: int = 0,
    watchdog=None,
    window: int = 24,
):
    """Convenience: run one sequence with the invariant checker attached.

    Other arguments are :func:`~repro.experiments.runner.run_closed`'s.
    Returns ``(hypervisor, checker)``; raises
    :class:`~repro.errors.InvariantViolation` on the first breach and
    :class:`~repro.errors.ExperimentError` on a run that fails to drain.
    Used by ``bench_invariants.py --paranoid`` and the chaos drills.
    """
    from repro.experiments.runner import run_closed

    checker = InvariantChecker(window=window)
    hypervisor = run_closed(
        scheduler_name, sequence.to_requests(), label=sequence.label,
        config=config, faults=fault_config, admission=admission, seed=seed,
        watchdog=watchdog, observer=checker,
    )
    checker.check_now(hypervisor, hypervisor.engine.now)
    return hypervisor, checker
