"""Parallel sweep executor: fan simulation cells out over worker processes.

The simulation engine is single-threaded and fully deterministic, so a
run is a pure function of its inputs — the ideal unit for process-level
fan-out. A *cell* is one such run, frozen and picklable, whose
``run()`` returns what crosses the process boundary (traces never do):

* :class:`ClosedCell` — one :func:`~repro.experiments.runner.run_closed`
  board run plus a named reducer: :func:`results`, :func:`chaos`,
  :func:`overload` or :func:`snapshot`;
* :class:`ServiceCell` — one open-loop service run, reduced to its
  report payload;
* :func:`run_cells` — fan any mix of cells out, outcomes in cell order;
* :func:`fanout` — the generic deterministic scatter/gather beneath it
  (the cluster shard fans boards out through it too).

Determinism contract: workers are stateless, cells are partitioned into
contiguous chunks that are a pure function of (cell count, worker count),
and outcomes are gathered in cell order — so for identical inputs the
returned lists are identical whatever ``jobs`` is, including ``jobs=1``
(which short-circuits to in-process execution through the *same* worker
function, keeping one code path for serial and parallel aggregation).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING, Callable, List, Optional, Sequence, Tuple, TypeVar, Union,
)

from repro.config import SystemConfig
from repro.errors import ExperimentError
from repro.experiments.runner import _env_int, run_closed
from repro.faults.models import FaultConfig
from repro.hypervisor.results import AppResult
from repro.workload.events import EventSequence

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.autotune.engine import AutotuneConfig
    from repro.hypervisor.hypervisor import Hypervisor
    from repro.observe.instrument import Instrumentation

_Task = TypeVar("_Task")
_Result = TypeVar("_Result")


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


def results(hypervisor: "Hypervisor") -> List[AppResult]:
    """Reducer (top-level, so cells pickle it by name): the results."""
    return hypervisor.results()


@dataclass(frozen=True)
class ChaosCell:
    """One chaos run reduced to what the fault studies aggregate."""

    results: Tuple[AppResult, ...]
    goodput_items_per_s: float
    recovery_times_ms: Tuple[float, ...]
    work_lost_ms: float
    total_faults: int


def chaos(hypervisor: "Hypervisor") -> ChaosCell:
    """A fault-injected run plus its trace-derived reliability scalars."""
    from repro.metrics.reliability import (
        goodput_items_per_s,
        recovery_times_ms,
        work_lost_ms,
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


def overload(hypervisor: "Hypervisor") -> OverloadCell:
    """An overload run plus its trace-derived SLO scalars."""
    from repro.metrics.slo import slo_report

    run_results = hypervisor.results()
    report = slo_report(hypervisor.trace, run_results)
    return OverloadCell(
        results=tuple(run_results),
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


def snapshot(hypervisor: "Hypervisor") -> dict:
    """The observer's metrics snapshot (merges associatively)."""
    return hypervisor.observer.snapshot()


@dataclass(frozen=True)
class ClosedCell:
    """One closed board run, reduced by ``reduce`` inside the worker.

    Every field is picklable, so a worker rebuilds exactly what a serial
    run builds — fault injector, admission controller and watchdog
    included — hence identical seeded draws at any ``jobs``.
    """

    scheduler: str
    sequence: EventSequence
    reduce: Callable[["Hypervisor"], object] = results
    config: Optional[SystemConfig] = None
    faults: Optional[FaultConfig] = None
    admission: Optional[str] = None
    seed: int = 0
    mode: str = "full"

    def run(self) -> object:
        observer = None
        if self.reduce is snapshot:  # the one reducer that reads it
            from repro.observe.instrument import Instrumentation

            observer = Instrumentation()
        return self.reduce(self.hypervisor(observer))

    def hypervisor(
        self, observer: Optional["Instrumentation"] = None
    ) -> "Hypervisor":
        """The finished run, ``observer`` attached and then finalized.

        A watchdog rides along iff admission does: the overload-tier
        pairing of every study, drill and observed run.
        """
        from repro.admission.watchdog import WatchdogConfig

        hypervisor = run_closed(
            self.scheduler, self.sequence.to_requests(),
            label=self.sequence.label, config=self.config,
            faults=self.faults, admission=self.admission, seed=self.seed,
            watchdog=None if self.admission is None else WatchdogConfig(),
            observer=observer, mode=self.mode,
        )
        if observer is not None:
            observer.finalize(hypervisor)
        return hypervisor


@dataclass(frozen=True)
class ServiceCell:
    """One open-loop service run, reduced to its
    :meth:`~repro.service.loop.ServiceReport.to_dict` payload. Service
    runs store no trace rows, so a service cell has no run mode."""

    scheduler: str
    admission: str
    seed: int
    submissions: int
    window_ms: float
    rate: float = 0.0
    burstiness: float = 0.0
    #: Arrival-process override as a picklable ``(kind, knob-pairs)``
    #: tuple, e.g. ``("episode", (("phases", ((60.0, 1.0),)),))``. When
    #: set, ``rate`` and ``burstiness`` are ignored.
    arrivals: Optional[Tuple[str, tuple]] = None
    replay: bool = True
    autotune: Optional["AutotuneConfig"] = None

    def run(self) -> dict:
        from repro.service.loop import ServiceLoop
        from repro.workload.arrivals import make_arrivals, service_rate_process

        if self.arrivals is None:
            arrivals = service_rate_process(
                self.rate, seed=self.seed, burstiness=self.burstiness
            )
        else:
            kind, knob_pairs = self.arrivals
            arrivals = make_arrivals(kind, seed=self.seed, **dict(knob_pairs))
        return ServiceLoop(
            arrivals, scheduler=self.scheduler, admission=self.admission,
            seed=self.seed, max_submissions=self.submissions,
            window_ms=self.window_ms, replay=self.replay,
            autotune=self.autotune,
        ).run().to_dict()


def _run(cell: Union[ClosedCell, ServiceCell]) -> object:
    """Worker: one cell (top-level for pickling)."""
    return cell.run()


def run_cells(
    cells: Sequence[Union[ClosedCell, ServiceCell]],
    jobs: Optional[int] = None,
) -> list:
    """Fan cells out; one reduced outcome per cell, in cell order.
    Cache-free: only ``RunCache.prewarm`` stores (plain ``results``)."""
    return fanout(_run, cells, jobs=jobs)
