"""Runtime state of applications and their tasks inside the hypervisor.

An :class:`AppRequest` is what arrives at the hypervisor (application name,
task graph, batch size, priority — the bitstream-header fields of §2.2).
The hypervisor wraps it in an :class:`AppRun` that tracks scheduling tokens,
slot allocations and per-task batch progress.

Batch progress is the preemption checkpoint: because tasks are only ever
detached at batch-item boundaries, ``TaskRun.items_done`` *is* the saved
state that batch-preemption needs (paper §3.2/§4.4) — no FPGA state
capture is required.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from repro.errors import SchedulerError, WorkloadError
from repro.taskgraph.graph import TaskGraph


@dataclass(frozen=True)
class AppRequest:
    """An application arriving at the hypervisor."""

    name: str
    graph: TaskGraph
    batch_size: int
    priority: int
    arrival_ms: float

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise WorkloadError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.priority < 1:
            raise WorkloadError(f"priority must be >= 1, got {self.priority}")
        if self.arrival_ms < 0:
            raise WorkloadError(f"arrival_ms must be >= 0, got {self.arrival_ms}")


class TaskRunState(str, Enum):
    """Lifecycle of one task inside the hypervisor."""

    PENDING = "pending"          # not configured anywhere
    CONFIGURING = "configuring"  # partial reconfiguration in flight
    CONFIGURED = "configured"    # resident in a slot, running or waiting
    DONE = "done"                # all batch items complete


@dataclass
class TaskRun:
    """Runtime state of one task of one application."""

    task_id: str
    latency_ms: float
    #: HLS-estimated per-item latency (decision input; may deviate from
    #: ``latency_ms`` under the estimate-sensitivity study).
    estimate_ms: Optional[float] = None
    state: TaskRunState = TaskRunState.PENDING
    slot_index: Optional[int] = None
    items_done: int = 0
    configure_count: int = 0
    preemption_count: int = 0
    #: Slot a fault evicted this task from; cleared when the task is next
    #: configured (a different slot then counts as a relocation).
    relocated_from: Optional[int] = None
    #: True between a detach (preemption or fault eviction) and the next
    #: successful reconfiguration; the hypervisor emits ``TASK_RESUMED``
    #: when it clears, pairing the preemption edge for the span builder.
    was_detached: bool = False
    #: Slot that produced each completed item (consumed by the optional
    #: inter-slot transfer model; index = batch item).
    producer_slots: List[int] = field(default_factory=list)

    def detach(self) -> None:
        """Return to PENDING after preemption; batch progress is retained."""
        if self.state != TaskRunState.CONFIGURED:
            raise SchedulerError(
                f"task {self.task_id!r} cannot be preempted from {self.state}"
            )
        self.state = TaskRunState.PENDING
        self.slot_index = None
        self.preemption_count += 1
        self.was_detached = True


class AppRun:
    """One application's full runtime state inside the hypervisor."""

    def __init__(
        self,
        app_id: int,
        request: AppRequest,
        latency_estimate_ms: float,
        task_estimates_ms: Optional[Dict[str, float]] = None,
    ) -> None:
        if latency_estimate_ms <= 0:
            raise WorkloadError(
                f"latency estimate must be > 0, got {latency_estimate_ms}"
            )
        self.app_id = app_id
        self.request = request
        self.latency_estimate_ms = latency_estimate_ms
        # Immutable request fields mirrored as plain attributes: readiness
        # checks read batch_size hundreds of thousands of times per run,
        # and a property descriptor + request indirection is measurable.
        self.name: str = request.name
        self.graph: TaskGraph = request.graph
        self.batch_size: int = request.batch_size
        self.priority: int = request.priority
        self.arrival_ms: float = request.arrival_ms
        self.age_key: Tuple[float, int] = (request.arrival_ms, app_id)
        self.token: float = float(request.priority)
        self.slots_allocated: int = 0
        #: Slot-occupancy counter maintained by the hypervisor at every
        #: TaskRun state transition; mirrors :attr:`slots_used` (which
        #: recounts) on the hot scheduling paths. The runtime invariant
        #: checker cross-validates the two.
        self._slots_used: int = 0
        self.first_item_start_ms: Optional[float] = None
        self.last_item_done_ms: Optional[float] = None
        self.retire_ms: Optional[float] = None
        self.reconfig_busy_ms: float = 0.0
        estimates = task_estimates_ms or {}
        self.tasks: Dict[str, TaskRun] = {
            task_id: TaskRun(
                task_id,
                request.graph.task(task_id).latency_ms,
                estimate_ms=estimates.get(task_id),
            )
            for task_id in request.graph.topological_order
        }
        # Hot-path structure: readiness checks run once per scheduler-pass
        # iteration, so resolve each task's predecessor TaskRuns (and the
        # topological ordering of TaskRuns) to object tuples up front
        # instead of chasing graph + dict lookups per query.
        graph = request.graph
        self._topo_runs: Tuple[TaskRun, ...] = tuple(
            self.tasks[task_id] for task_id in graph.topological_order
        )
        self._pred_runs: Dict[str, Tuple[TaskRun, ...]] = {
            task_id: tuple(
                self.tasks[pred] for pred in graph.predecessors(task_id)
            )
            for task_id in graph.topological_order
        }
        #: Achievable-concurrency bound for :meth:`max_useful_slots`;
        #: batch size and graph shape never change after construction.
        self._concurrency_cap: int = (
            request.batch_size * graph.max_width()
        )

    # ------------------------------------------------------------------
    # Progress
    # ------------------------------------------------------------------
    @property
    def is_complete(self) -> bool:
        """True once every task has processed every batch item."""
        return all(
            run.items_done >= self.batch_size for run in self.tasks.values()
        )

    @property
    def slots_used(self) -> int:
        """Slots currently consumed (configured or being configured).

        This is ``a.slots_used`` in Algorithm 2 line 4. Recounted from
        task states so direct state manipulation (tests, drills) always
        reads true; the hypervisor-maintained :attr:`_slots_used` mirror
        serves the per-pass hot paths.
        """
        used = 0
        configuring = TaskRunState.CONFIGURING
        configured = TaskRunState.CONFIGURED
        for run in self._topo_runs:
            state = run.state
            if state is configuring or state is configured:
                used += 1
        return used

    @property
    def over_consumption(self) -> int:
        """How far beyond its allocation the application has grown."""
        return self.slots_used - self.slots_allocated

    def items_remaining(self) -> int:
        """Total batch items still to process across all tasks."""
        return sum(
            max(0, self.batch_size - run.items_done)
            for run in self.tasks.values()
        )

    def remaining_work_ms(self) -> float:
        """Estimated remaining compute (drives PREMA's shortest-first pick).

        Uses the HLS *estimates*, not true latencies — the scheduler only
        ever sees estimates, which is what the estimate-sensitivity study
        perturbs.
        """
        return sum(
            (self.batch_size - run.items_done)
            * (run.estimate_ms if run.estimate_ms is not None
               else run.latency_ms)
            for run in self.tasks.values()
            if run.items_done < self.batch_size
        )

    # ------------------------------------------------------------------
    # Readiness rules
    # ------------------------------------------------------------------
    def item_ready(self, task_id: str, pipelined: bool) -> bool:
        """Can the configured task ``task_id`` start its next batch item?

        In pipelined mode, item ``b`` needs every predecessor to have
        produced item ``b`` (inter-batch pipelining, Figure 2(c)). In bulk
        mode, the task may only run once every predecessor finished the
        whole batch (Figure 2(a)/(b)).
        """
        return self._run_item_ready(self.tasks[task_id], pipelined)

    def _run_item_ready(self, run: "TaskRun", pipelined: bool) -> bool:
        """:meth:`item_ready` for callers already holding the TaskRun."""
        if run.state is not TaskRunState.CONFIGURED:
            return False
        item = run.items_done
        batch = self.batch_size
        if item >= batch:
            return False
        if pipelined:
            for pred in self._pred_runs[run.task_id]:
                if pred.items_done <= item:
                    return False
            return True
        for pred in self._pred_runs[run.task_id]:
            if pred.items_done < batch:
                return False
        return True

    def configurable_tasks(self, prefetch: bool) -> List[str]:
        """Tasks eligible to be placed into a slot, in topological order.

        With ``prefetch`` the hypervisor may configure a task whose
        predecessors are still executing (or themselves configuring), hiding
        reconfiguration latency behind computation; without it, only tasks
        whose predecessors completed the whole batch are eligible.
        """
        eligible = []
        batch = self.batch_size
        pending = TaskRunState.PENDING
        pred_runs = self._pred_runs
        for run in self._topo_runs:
            if run.state is not pending or run.items_done >= batch:
                continue
            if prefetch:
                ok = True
                for pred in pred_runs[run.task_id]:
                    if pred.state is pending and pred.items_done < batch:
                        ok = False
                        break
            else:
                ok = True
                for pred in pred_runs[run.task_id]:
                    if pred.items_done < batch:
                        ok = False
                        break
            if ok:
                eligible.append(run.task_id)
        return eligible

    def first_configurable_task(self, prefetch: bool) -> Optional[str]:
        """First task of :meth:`configurable_tasks`, without building the list.

        Most policies configure exactly one task per decision, so this
        early-exit variant is the hot-path entry point; it returns exactly
        ``configurable_tasks(prefetch)[0]`` (or None when none is eligible).
        """
        batch = self.batch_size
        pending = TaskRunState.PENDING
        pred_runs = self._pred_runs
        for run in self._topo_runs:
            if run.state is not pending or run.items_done >= batch:
                continue
            ok = True
            if prefetch:
                for pred in pred_runs[run.task_id]:
                    if pred.state is pending and pred.items_done < batch:
                        ok = False
                        break
            else:
                for pred in pred_runs[run.task_id]:
                    if pred.items_done < batch:
                        ok = False
                        break
            if ok:
                return run.task_id
        return None

    def max_useful_slots(self) -> int:
        """Upper bound on slots this application can exploit right now.

        Bounded by the number of unfinished tasks and by the application's
        achievable concurrency: at most ``batch_size`` items are in flight
        through the pipeline and each item can occupy at most ``max_width``
        parallel tasks, so a batch-1 chain can never keep more than one
        slot busy — granting it more would only create idle prefetched
        tasks that preemption has to claw back.
        """
        batch = self.batch_size
        incomplete = 0
        for run in self._topo_runs:
            if run.items_done < batch:
                incomplete += 1
        cap = self._concurrency_cap
        return incomplete if incomplete < cap else cap

    def __repr__(self) -> str:
        return (
            f"AppRun(id={self.app_id}, name={self.name!r}, "
            f"batch={self.batch_size}, prio={self.priority}, "
            f"token={self.token:.2f})"
        )
