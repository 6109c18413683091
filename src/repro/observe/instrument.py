"""Run instrumentation: live hooks plus post-run trace folding.

Two complementary pieces:

* :class:`Instrumentation` — the observer object a
  :class:`~repro.hypervisor.hypervisor.Hypervisor` calls into while the
  run is live: two pass hooks, ``pass_started`` and ``pass_finished``,
  which take a token reading per scheduler pass. The engine has no hook;
  its event count comes from ``engine.processed``. The hypervisor guards
  every call site with ``if observer is not None``, so a run without an
  observer executes **zero** observability code (the overhead-guard bench
  and the lazy-import test pin this down).
* :func:`observe_run` — folds a *finished* run's trace, fault counters and
  engine diagnostics into a :class:`~repro.observe.metrics.MetricsRegistry`.
  Everything it records derives from the deterministic trace stream, so
  snapshots are reproducible and merge byte-identically across parallel
  workers.

Wall-clock scheduler-pass latency (the one genuinely non-deterministic
signal) is only collected when ``profile=True`` and lives in a separate
``profile`` section so it can never contaminate determinism-checked
output.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional

from repro.observe.metrics import (
    LATENCY_BUCKETS_S,
    MS_BUCKETS,
    MetricsRegistry,
    TOKEN_BUCKETS,
)
from repro.sim.fold import fold_rows
from repro.sim.trace import TraceKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hypervisor.hypervisor import Hypervisor


class Instrumentation:
    """Observer installed into a hypervisor via ``Hypervisor(observer=...)``.

    Example
    -------
    >>> from repro import Hypervisor, make_scheduler
    >>> from repro.observe import Instrumentation
    >>> obs = Instrumentation()
    >>> hv = Hypervisor(make_scheduler("nimblock"), observer=obs)
    >>> # ... submit + run ...
    >>> snapshot = obs.finalize(hv)  # doctest: +SKIP
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        profile: bool = False,
    ) -> None:
        self.registry = registry or MetricsRegistry()
        self.profile = bool(profile)
        #: Wall-clock samples live apart from the deterministic registry.
        self.profile_registry = MetricsRegistry()
        self._tokens = self.registry.histogram(
            "nimblock_tokens_at_selection",
            "Sum of pending applications' scheduling tokens at each "
            "scheduler pass",
            TOKEN_BUCKETS,
        )
        self._pending_apps = self.registry.histogram(
            "nimblock_pending_apps_at_selection",
            "Pending (unretired) applications at each scheduler pass",
            TOKEN_BUCKETS,
        )
        self._pass_latency = self.profile_registry.histogram(
            "nimblock_pass_decision_seconds",
            "Wall-clock latency of one scheduler pass (non-deterministic; "
            "profiling only)",
            LATENCY_BUCKETS_S,
        )

    # -- hypervisor-facing hooks ------------------------------------------
    def pass_started(self) -> Optional[float]:
        """Called as a scheduler pass begins; returns a profiling token."""
        return time.perf_counter() if self.profile else None

    def pass_finished(
        self, hypervisor: "Hypervisor", now: float, started: Optional[float]
    ) -> None:
        """Called after a pass's decisions and item launches completed."""
        tokens = 0.0
        pending = 0
        for app in hypervisor.pending.in_arrival_order():
            tokens += app.token
            pending += 1
        self._tokens.observe(tokens)
        self._pending_apps.observe(float(pending))
        if started is not None:
            self._pass_latency.observe(time.perf_counter() - started)

    # -- results -----------------------------------------------------------
    def finalize(self, hypervisor: "Hypervisor") -> dict:
        """Fold the finished run into the registry; returns a snapshot."""
        observe_run(hypervisor, self.registry)
        return self.snapshot()

    def snapshot(self, include_profile: bool = False) -> dict:
        """Deterministic snapshot; ``include_profile`` adds wall-clock data."""
        snapshot = self.registry.snapshot()
        if include_profile:
            snapshot["profile"] = self.profile_registry.snapshot()
        return snapshot


def observe_run(
    hypervisor: "Hypervisor",
    registry: Optional[MetricsRegistry] = None,
) -> MetricsRegistry:
    """Fold one finished run into a metrics registry.

    Usable standalone on any completed hypervisor (no live observer
    needed) — every value below is a pure function of the trace stream,
    the fault counters and the engine's event count, in either run mode
    (``mode="metrics"`` snapshots equal full-mode folds exactly).
    """
    registry = registry or MetricsRegistry()
    trace = hypervisor.trace
    config = hypervisor.config
    stats = hypervisor.fault_stats
    replay = hypervisor.replay

    def count(kind: TraceKind) -> int:
        return trace.count(kind)

    counters = (
        ("nimblock_apps_arrived_total",
         "Applications submitted to the hypervisor",
         count(TraceKind.APP_ARRIVED)),
        ("nimblock_apps_started_total",
         "Applications whose first batch item began executing",
         count(TraceKind.APP_STARTED)),
        ("nimblock_apps_retired_total",
         "Applications that completed every task",
         count(TraceKind.APP_RETIRED)),
        ("nimblock_items_completed_total",
         "Batch items that ran to completion",
         count(TraceKind.ITEM_DONE)),
        ("nimblock_preemptions_total",
         "Batch-boundary preemptions",
         count(TraceKind.TASK_PREEMPTED)),
        ("nimblock_resumes_total",
         "Previously preempted/evicted tasks reconfigured back onto the "
         "board",
         count(TraceKind.TASK_RESUMED)),
        ("nimblock_dpr_total",
         "Partial reconfigurations started (config-port acquisitions)",
         count(TraceKind.TASK_CONFIG_START)),
        ("nimblock_dpr_completed_total",
         "Partial reconfigurations that completed successfully",
         count(TraceKind.TASK_CONFIG_DONE)),
        ("nimblock_dpr_failed_total",
         "Partial reconfigurations aborted by injected faults",
         count(TraceKind.CONFIG_FAILED)),
        ("nimblock_scheduler_passes_total",
         "Scheduler passes executed",
         hypervisor.scheduler_passes),
        ("nimblock_engine_events_total",
         "Discrete events executed by the simulation engine",
         hypervisor.engine.processed),
        ("nimblock_slot_faults_total",
         "Slot faults injected (transient + permanent)",
         count(TraceKind.SLOT_FAULT)),
        ("nimblock_slot_repairs_total",
         "Transiently faulted slots scrubbed back to health",
         count(TraceKind.SLOT_REPAIRED)),
        ("nimblock_faults_transient_total",
         "Transient (SEU-style) slot faults",
         stats.transient_faults),
        ("nimblock_faults_permanent_total",
         "Permanent slot failures (blacklisted regions)",
         stats.permanent_faults),
        ("nimblock_fault_evictions_total",
         "Resident tasks evicted by slot faults",
         stats.evictions),
        ("nimblock_relocations_total",
         "Evicted tasks re-placed on a different slot",
         count(TraceKind.TASK_RELOCATED)),
        ("nimblock_items_lost_total",
         "In-flight batch items killed by slot faults",
         stats.items_lost),
        ("nimblock_work_lost_ms_total",
         "Simulated work destroyed by faults (partial items + wasted CAP "
         "time)",
         stats.work_lost_ms),
        ("nimblock_apps_rejected_total",
         "Admission rejections (retried attempts and final drops)",
         count(TraceKind.APP_REJECTED)),
        ("nimblock_apps_shed_total",
         "Pending applications evicted by the shed policy",
         count(TraceKind.APP_SHED)),
        ("nimblock_overload_windows_total",
         "Overload windows entered by the admission controller",
         count(TraceKind.OVERLOAD_ENTER)),
        ("nimblock_watchdog_stalls_total",
         "Stall/starvation detections fired by the watchdog",
         count(TraceKind.WATCHDOG_STALL)),
        ("nimblock_watchdog_kicks_total",
         "Recovery actions (detach kicks, token boosts) by the watchdog",
         count(TraceKind.WATCHDOG_KICK)),
        ("nimblock_replay_hits_total",
         "Arrivals satisfied by the macro-event replay cache",
         0 if replay is None else replay.hits),
        ("nimblock_replay_misses_total",
         "Arrivals that fell through the replay cache to live simulation",
         0 if replay is None else replay.misses),
    )
    # Detector raw inputs (repro.autotune): overload edge/duration
    # counters from the admission controller and the watchdog's split
    # detection/recovery counters. All zero (but present, for a stable
    # schema) when no admission controller or watchdog is attached.
    admission = getattr(hypervisor, "admission", None)
    admission_stats = admission.stats if admission is not None else None
    watchdog = getattr(hypervisor, "watchdog", None)
    counters += (
        ("nimblock_overload_enters_total",
         "OVERLOAD_ENTER edges, including a still-open overload window",
         0 if admission_stats is None else admission_stats.overload_enters),
        ("nimblock_overload_exits_total",
         "OVERLOAD_EXIT edges (completed overload windows)",
         count(TraceKind.OVERLOAD_EXIT)),
        ("nimblock_overload_ms_total",
         "Simulated time under overload (closed windows plus the open "
         "window up to the run horizon)",
         0.0 if admission is None
         else admission.overload_total_ms(hypervisor.engine.now)),
        ("nimblock_watchdog_stalls_detected_total",
         "Global stall episodes the watchdog detected",
         getattr(watchdog, "stalls_detected", 0)),
        ("nimblock_watchdog_stall_kicks_total",
         "Detach kicks issued against detected stalls",
         getattr(watchdog, "stall_kicks", 0)),
        ("nimblock_watchdog_starvations_detected_total",
         "Per-app starvation episodes the watchdog detected",
         getattr(watchdog, "starvations_detected", 0)),
        ("nimblock_watchdog_starvation_boosts_total",
         "Token boosts issued against detected starvations",
         getattr(watchdog, "starvation_boosts", 0)),
    )
    shed_by_priority = (
        {} if admission_stats is None
        else admission_stats.shed_by_priority
    )
    counters += tuple(
        (f"nimblock_apps_shed_priority{priority}_total",
         f"Applications of priority {priority} evicted by load shedding",
         shed_by_priority.get(priority, 0))
        for priority in config.priority_levels
    )
    for name, help_text, value in counters:
        registry.counter(name, help_text).inc(float(value))

    # Interval metrics come from the streaming fold shared by both run
    # modes: a metrics-mode trace carries one fed live by ``record``; a
    # full-mode trace replays its stored rows through the identical code
    # in the identical order, so the two snapshots agree bit-for-bit
    # (including float sums). See repro.sim.fold.
    horizon = trace.end_ms if len(trace) else 0.0
    fold = getattr(trace, "fold", None)
    if fold is None:
        fold = fold_rows(trace._rows)
    folded = fold.aggregates(horizon)

    registry.histogram(
        "nimblock_dpr_duration_ms",
        "Duration of each partial reconfiguration (config-port hold time)",
        MS_BUCKETS,
    ).absorb(folded.dpr.count, folded.dpr.sum, folded.dpr.bucket_counts)
    registry.histogram(
        "nimblock_item_duration_ms",
        "Execution time of each batch item",
        MS_BUCKETS,
    ).absorb(folded.item.count, folded.item.sum, folded.item.bucket_counts)
    registry.histogram(
        "nimblock_wait_duration_ms",
        "Off-board wait of each preempted/evicted task until resumption",
        MS_BUCKETS,
    ).absorb(folded.wait.count, folded.wait.sum, folded.wait.bucket_counts)
    recovery = folded.recovery
    registry.histogram(
        "nimblock_recovery_ms",
        "Fault-to-recovery intervals (slot repairs and DPR retries)",
        MS_BUCKETS,
    ).absorb(recovery.count, recovery.sum, recovery.bucket_counts)

    registry.counter(
        "nimblock_dpr_busy_ms_total",
        "Total simulated time the configuration port was held",
    ).inc(folded.dpr_busy_ms)
    registry.counter(
        "nimblock_compute_busy_ms_total",
        "Total simulated slot-busy time across batch items",
    ).inc(folded.compute_busy_ms)

    registry.gauge(
        "nimblock_sim_time_ms", "Simulated horizon of the run",
    ).set(horizon)
    registry.gauge(
        "nimblock_slots", "Reconfigurable slots on the platform",
    ).set(config.num_slots)
    registry.gauge(
        "nimblock_slots_busy_peak",
        "Peak number of slots executing items simultaneously",
    ).set(folded.peak_compute)
    if horizon > 0 and config.num_slots > 0:
        registry.gauge(
            "nimblock_slot_utilization_ratio",
            "Slot-time fraction spent executing items (allocated vs used)",
        ).set(folded.compute_busy_ms / (config.num_slots * horizon))
    if recovery.count:
        registry.gauge(
            "nimblock_mttr_ms",
            "Mean time to recovery over every observed recovery edge",
        ).set(recovery.sum / recovery.count)
    return registry


def snapshot_run(hypervisor: "Hypervisor") -> dict:
    """One-call deterministic metrics snapshot of a finished run."""
    return observe_run(hypervisor).snapshot()
