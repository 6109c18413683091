"""Reliability metrics computed from fault-injected runs (repro.faults).

Everything derives from the trace (like every other metric in this
package), so chaos runs remain post-processable without re-simulation:

* **goodput** — completed (useful) batch items per second of trace span;
  items killed mid-flight by a slot fault never emit ``ITEM_DONE`` and so
  never count;
* **MTTR** — mean time to recovery, averaged over every recovery the
  one interval pairing (:mod:`repro.sim.fold`) closes: a slot outage
  from its first ``SLOT_FAULT`` to ``SLOT_REPAIRED``, and
  ``CONFIG_FAILED -> TASK_CONFIG_DONE`` for the same (app, task);
* **work lost** — partial item time destroyed by slot faults plus CAP
  time wasted by failed reconfigurations (both carried in the events'
  ``detail`` fields);
* **degradation** — mean per-application response-time ratio of a faulty
  run against the fault-free run of the same workload and scheduler,
  the quantity the ``ext-faults`` study sweeps into per-scheduler curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.errors import ExperimentError
from repro.hypervisor.results import AppResult
from repro.sim.fold import RECOVERIES, trace_intervals
from repro.sim.trace import Trace, TraceKind


def goodput_items_per_s(trace: Trace) -> float:
    """Useful batch items completed per second over the trace span."""
    items = trace.count(TraceKind.ITEM_DONE)
    if not len(trace):
        return 0.0
    span_ms = trace.end_ms - trace.start_ms
    if span_ms <= 0:
        return 0.0
    return items / (span_ms / 1000.0)


def work_lost_ms(trace: Trace) -> float:
    """Simulated milliseconds of work destroyed by faults.

    Batch-boundary rollback retains completed items, so the only losses
    are the in-flight item a slot fault kills (``SLOT_FAULT.detail``) and
    the CAP time a failed reconfiguration wastes (``CONFIG_FAILED.detail``).
    """
    total = 0.0
    for event in trace:
        if event.kind in (TraceKind.SLOT_FAULT, TraceKind.CONFIG_FAILED):
            total += event.detail or 0.0
    return total


def recovery_times_ms(trace: Trace) -> List[float]:
    """Every observed recovery interval, in trace order.

    The recoveries are the ones :mod:`repro.sim.fold` pairs: a slot
    outage from its first ``SLOT_FAULT`` to the next ``SLOT_REPAIRED``
    on the same slot, and a reconfiguration retry from ``CONFIG_FAILED``
    to the task's next successful ``TASK_CONFIG_DONE``. Faults still
    unrecovered when the trace ends contribute nothing.
    """
    return [
        interval.end_ms - interval.start_ms
        for interval in trace_intervals(trace)
        if interval.ok and interval.kind in RECOVERIES
    ]


def mean_time_to_recovery_ms(trace: Trace) -> float:
    """Mean recovery interval; NaN when nothing needed recovering."""
    return reliability_report(trace).mttr_ms


def degradation_factor(
    fault_free: Sequence[AppResult], faulty: Sequence[AppResult]
) -> float:
    """Mean per-application response ratio: faulty over fault-free.

    1.0 means faults cost nothing; 2.0 means responses doubled. Results
    are matched by ``app_id``, so both runs must come from the same
    stimuli (same sequences, same arrival order).
    """
    if not fault_free or not faulty:
        raise ExperimentError("degradation_factor needs non-empty results")
    base = {result.app_id: result for result in fault_free}
    ratios: List[float] = []
    for result in faulty:
        reference = base.get(result.app_id)
        if reference is None:
            raise ExperimentError(
                f"app {result.app_id} missing from the fault-free run; "
                "degradation requires matched stimuli"
            )
        if reference.response_ms <= 0:
            continue
        ratios.append(result.response_ms / reference.response_ms)
    if not ratios:
        raise ExperimentError("no matched applications with positive response")
    return sum(ratios) / len(ratios)


@dataclass(frozen=True)
class ReliabilityReport:
    """Trace-level reliability summary of one (possibly chaotic) run."""

    slot_faults: int
    repairs: int
    config_failures: int
    relocations: int
    work_lost_ms: float
    #: Every closed recovery interval, in trace order (studies pool
    #: these across sequences before averaging).
    recovery_times_ms: Tuple[float, ...]
    goodput_items_per_s: float

    @property
    def mttr_ms(self) -> float:
        """Mean recovery interval; NaN when nothing needed recovering."""
        times = self.recovery_times_ms
        if not times:
            return float("nan")
        return sum(times) / len(times)

    @property
    def permanent_faults(self) -> int:
        """Slot faults that never repaired (dead within this trace)."""
        return self.slot_faults - self.repairs

    def format(self) -> str:
        """One-line human-readable summary."""
        mttr = "n/a" if math.isnan(self.mttr_ms) else f"{self.mttr_ms:.1f}ms"
        return (
            f"faults={self.slot_faults} (perm={self.permanent_faults}) "
            f"config_failures={self.config_failures} "
            f"relocations={self.relocations} "
            f"work_lost={self.work_lost_ms:.1f}ms mttr={mttr} "
            f"goodput={self.goodput_items_per_s:.2f} items/s"
        )


def reliability_report(trace: Trace) -> ReliabilityReport:
    """Compute the full reliability summary of one trace."""
    return ReliabilityReport(
        slot_faults=trace.count(TraceKind.SLOT_FAULT),
        repairs=trace.count(TraceKind.SLOT_REPAIRED),
        config_failures=trace.count(TraceKind.CONFIG_FAILED),
        relocations=trace.count(TraceKind.TASK_RELOCATED),
        work_lost_ms=work_lost_ms(trace),
        recovery_times_ms=tuple(recovery_times_ms(trace)),
        goodput_items_per_s=goodput_items_per_s(trace),
    )
