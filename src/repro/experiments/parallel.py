"""Parallel sweep executor: fan simulation runs out over worker processes.

The simulation engine is single-threaded and fully deterministic, so a
(scheduler, sequence, config) run is a pure function of its inputs — the
ideal unit for process-level fan-out. This module provides the shared
machinery behind :meth:`RunCache.prewarm` and the jobs-aware experiment
modules:

* :func:`map_runs` — fan plain ``run_sequence`` tasks out, results in
  task order;
* :func:`chaos_cells` — the fault-injection equivalent: each worker runs
  one chaos simulation and reduces its trace to the reliability scalars
  the studies aggregate (traces themselves never cross the process
  boundary);
* :func:`fanout` — the generic deterministic scatter/gather both build on.

Determinism contract: workers are stateless, tasks are partitioned into
contiguous chunks that are a pure function of (task count, worker count),
and results are gathered in task order — so for identical inputs the
returned lists are identical whatever ``jobs`` is, including ``jobs=1``
(which short-circuits to in-process execution through the *same* worker
function, keeping one code path for serial and parallel aggregation).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from repro.config import SystemConfig
from repro.errors import ExperimentError
from repro.experiments.runner import _env_int, run_closed, run_sequence
from repro.faults.models import FaultConfig
from repro.hypervisor.results import AppResult
from repro.workload.events import EventSequence

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")

#: A plain simulation task: (scheduler name, stimulus, platform config,
#: run mode). Chaos/overload/observed tasks have no mode leg: their
#: workers reduce *trace rows* to scalars, which only mode="full"
#: records.
RunTask = Tuple[str, EventSequence, Optional[SystemConfig], str]

#: A chaos task: (scheduler, stimulus, fault config, platform config).
ChaosTask = Tuple[
    str, EventSequence, Optional[FaultConfig], Optional[SystemConfig]
]


def effective_jobs(jobs: Optional[int] = None) -> int:
    """Resolve a worker count: explicit value, else ``REPRO_JOBS``, else 1."""
    if jobs is None:
        return _env_int("REPRO_JOBS", 1)
    if jobs < 1:
        raise ExperimentError(f"jobs must be >= 1, got {jobs}")
    return jobs


def resolve_jobs(jobs: Optional[int], cache=None) -> int:
    """Like :func:`effective_jobs`, but falling back to ``cache.jobs``."""
    if jobs is not None:
        return effective_jobs(jobs)
    if cache is not None and getattr(cache, "jobs", None) is not None:
        return effective_jobs(cache.jobs)
    return effective_jobs(None)


def _simulate(task: RunTask) -> List[AppResult]:
    """Worker: one plain simulation run (top-level for pickling)."""
    scheduler_name, sequence, config, mode = task
    return run_sequence(scheduler_name, sequence, config, mode)


@dataclass(frozen=True)
class ChaosCell:
    """One chaos run reduced to what the fault studies aggregate."""

    results: Tuple[AppResult, ...]
    goodput_items_per_s: float
    recovery_times_ms: Tuple[float, ...]
    work_lost_ms: float
    total_faults: int


def _simulate_chaos(task: ChaosTask) -> ChaosCell:
    """Worker: one fault-injected run plus its trace-derived scalars.

    The seeded fault RNG streams live in the injector, which is built
    inside the worker from the (picklable) ``FaultConfig`` — identical
    reconstruction to the serial path, hence identical draws.
    """
    from repro.metrics.reliability import (
        goodput_items_per_s,
        recovery_times_ms,
        work_lost_ms,
    )

    scheduler_name, sequence, fault_config, config = task
    hypervisor = run_closed(
        scheduler_name, sequence.to_requests(), label=sequence.label,
        config=config, faults=fault_config,
    )
    trace = hypervisor.trace
    return ChaosCell(
        results=tuple(hypervisor.results()),
        goodput_items_per_s=goodput_items_per_s(trace),
        recovery_times_ms=tuple(recovery_times_ms(trace)),
        work_lost_ms=work_lost_ms(trace),
        total_faults=hypervisor.fault_stats.total_faults,
    )


def _chunksize(num_tasks: int, workers: int) -> int:
    """Contiguous, deterministic partition: ceil(n / workers) per worker."""
    return max(1, -(-num_tasks // workers))


def fanout(
    worker: Callable[[_Task], _Result],
    tasks: Sequence[_Task],
    jobs: Optional[int] = None,
) -> List[_Result]:
    """Run ``worker`` over ``tasks``, returning results in task order.

    ``jobs <= 1`` (or a single task) executes in-process; otherwise a
    :class:`ProcessPoolExecutor` scatters contiguous chunks. Exceptions
    raised in workers (e.g. :class:`ExperimentError` for a scheduler that
    fails to retire its workload) propagate to the caller.
    """
    tasks = list(tasks)
    jobs = effective_jobs(jobs)
    if jobs == 1 or len(tasks) <= 1:
        return [worker(task) for task in tasks]
    workers = min(jobs, len(tasks))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(
            pool.map(
                worker, tasks, chunksize=_chunksize(len(tasks), workers)
            )
        )


def map_runs(
    tasks: Sequence[RunTask], jobs: Optional[int] = None
) -> List[List[AppResult]]:
    """Fan plain simulation tasks out; one result list per task, in order."""
    return fanout(_simulate, tasks, jobs=jobs)


def chaos_cells(
    tasks: Sequence[ChaosTask], jobs: Optional[int] = None
) -> List[ChaosCell]:
    """Fan fault-injected simulation tasks out, in task order."""
    return fanout(_simulate_chaos, tasks, jobs=jobs)


#: An overload task: (scheduler, stimulus, admission policy name, seed,
#: fault config, platform config). The controller/watchdog pair is built
#: inside the worker from the picklable (policy name, seed) — identical
#: reconstruction to the serial path, hence identical retry jitter draws.
OverloadTask = Tuple[
    str, EventSequence, str, int, Optional[FaultConfig],
    Optional[SystemConfig],
]


@dataclass(frozen=True)
class OverloadCell:
    """One admission-controlled run reduced to its SLO scalars.

    Retired-app results cross the process boundary (they are small frozen
    records); the trace itself never does — every trace-derived quantity
    is reduced to a scalar inside the worker.
    """

    results: Tuple[AppResult, ...]
    admission_ratio: float
    drops: int
    shed: int
    overload_windows: int
    overload_ms: float
    goodput_under_overload: float
    starvation_index: float
    watchdog_stalls: int
    watchdog_kicks: int


def _simulate_overload(task: OverloadTask) -> OverloadCell:
    """Worker: one overload run plus its trace-derived SLO scalars."""
    from repro.admission.watchdog import WatchdogConfig
    from repro.metrics.slo import slo_report

    scheduler_name, sequence, policy, seed, fault_config, config = task
    hypervisor = run_closed(
        scheduler_name, sequence.to_requests(), label=sequence.label,
        config=config, faults=fault_config, admission=policy, seed=seed,
        watchdog=WatchdogConfig(),
    )
    results = hypervisor.results()
    report = slo_report(hypervisor.trace, results)
    return OverloadCell(
        results=tuple(results),
        admission_ratio=report.admission_ratio,
        drops=report.drops,
        shed=report.shed,
        overload_windows=report.overload_windows,
        overload_ms=report.overload_ms,
        goodput_under_overload=report.goodput_under_overload,
        starvation_index=report.starvation_index,
        watchdog_stalls=report.watchdog_stalls,
        watchdog_kicks=report.watchdog_kicks,
    )


def overload_cells(
    tasks: Sequence[OverloadTask], jobs: Optional[int] = None
) -> List[OverloadCell]:
    """Fan admission-controlled simulation tasks out, in task order.

    Deliberately cache-free: :class:`RunCache` keys do not include the
    admission policy, so overload cells must never be satisfied from (or
    recorded into) the plain-run cache.
    """
    return fanout(_simulate_overload, tasks, jobs=jobs)


#: An observed task: (scheduler, stimulus, fault config, platform config,
#: admission policy name or None, admission seed).
ObservedTask = Tuple[
    str, EventSequence, Optional[FaultConfig], Optional[SystemConfig],
    Optional[str], int,
]


def _simulate_observed(task: ObservedTask) -> dict:
    """Worker: one instrumented run reduced to its metrics snapshot.

    Snapshots are plain dicts of trace-derived (deterministic) metrics, so
    they cross the process boundary cheaply and merge associatively on the
    gather side — the contract behind ``stats --jobs N`` determinism.
    """
    from repro.observe.aggregate import observed_run

    scheduler_name, sequence, fault_config, config, admission, seed = task
    _, observer = observed_run(
        scheduler_name, sequence, fault_config, config=config,
        admission=admission, seed=seed,
    )
    return observer.snapshot()


def observed_snapshots(
    tasks: Sequence[ObservedTask], jobs: Optional[int] = None
) -> List[dict]:
    """Fan instrumented simulation tasks out; one snapshot each, in order."""
    return fanout(_simulate_observed, tasks, jobs=jobs)


#: A service task: (scheduler, admission policy name, arrival rate /s,
#: burstiness, seed, max submissions, window ms, run mode). The arrival
#: process, controller and watchdog are all rebuilt inside the worker
#: from these picklable scalars — identical reconstruction to the serial
#: path, so the returned report payloads are byte-identical at any jobs
#: count (and, since the payload carries no rows, at either run mode).
#: Trailing legs are optional (8-tuples from older callers still work):
#: [8] replay flag (default True — byte-identical either way); [9] an
#: :class:`~repro.autotune.engine.AutotuneConfig` (frozen, picklable) or
#: None; [10] an arrival-process override as a picklable ``(kind,
#: knob-pairs)`` tuple — e.g. ``("episode", (("phases", ((60.0, 1.0),
#: (120.0, 4.0))),))`` — replacing the default rate/burstiness process
#: (whose two scalars are then ignored).
ServiceTask = Tuple[str, str, float, float, int, int, float, str, bool]


def _simulate_service(task: ServiceTask) -> dict:
    """Worker: one open-loop service run reduced to its report payload.

    The payload is :meth:`repro.service.loop.ServiceReport.to_dict` — a
    plain dict whose windowed metrics merge associatively on the gather
    side; neither the trace nor per-app state ever crosses the process
    boundary (the loop discards both as it runs).
    """
    from repro.service.loop import ServiceLoop
    from repro.workload.arrivals import make_arrivals, service_rate_process

    (scheduler, admission, rate, burstiness, seed, submissions,
     window_ms, mode) = task[:8]
    replay = task[8] if len(task) > 8 else True
    autotune = task[9] if len(task) > 9 else None
    arrival_spec = task[10] if len(task) > 10 else None
    if arrival_spec is None:
        arrivals = service_rate_process(
            rate, seed=seed, burstiness=burstiness
        )
    else:
        kind, knob_pairs = arrival_spec
        arrivals = make_arrivals(kind, seed=seed, **dict(knob_pairs))
    loop = ServiceLoop(
        arrivals,
        scheduler=scheduler,
        admission=admission,
        seed=seed,
        max_submissions=submissions,
        window_ms=window_ms,
        mode=mode,
        replay=replay,
        autotune=autotune,
    )
    return loop.run().to_dict()


def service_cells(
    tasks: Sequence[ServiceTask], jobs: Optional[int] = None
) -> List[dict]:
    """Fan open-loop service runs out; report payloads in task order.

    Cache-free like :func:`overload_cells`: the run cache keys closed
    sequences, not open-loop streams.
    """
    return fanout(_simulate_service, tasks, jobs=jobs)
