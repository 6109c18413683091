"""Cross-worker metrics aggregation for parallel experiment sweeps.

One observed run produces one deterministic snapshot (see
:mod:`repro.observe.instrument`); a sweep produces many. This module runs
the (scheduler x sequence) grid — serially or fanned out over the
process-pool executor in :mod:`repro.experiments.parallel` — and merges
the per-run snapshots associatively, so::

    collect_metrics(schedulers, sequences, jobs=1)
    == collect_metrics(schedulers, sequences, jobs=N)

byte-for-byte, for any ``N``. The ``repro stats`` CLI subcommand and the
``stats`` entry of the ``determinism`` CI job are built directly on this
identity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.faults.models import FaultConfig
from repro.observe.instrument import Instrumentation
from repro.observe.metrics import merge_snapshots
from repro.workload.events import EventSequence

if TYPE_CHECKING:
    from repro.hypervisor.hypervisor import Hypervisor


def observed_run(
    scheduler_name: str,
    sequence: EventSequence,
    fault_config: Optional[FaultConfig] = None,
    config: Optional[SystemConfig] = None,
    profile: bool = False,
    mode: str = "full",
    admission: Optional[str] = None,
    seed: int = 0,
) -> Tuple["Hypervisor", "Instrumentation"]:
    """Run one sequence with instrumentation attached.

    Returns the finished hypervisor (trace, results and timing intact)
    and the finalized :class:`Instrumentation` (its registry already
    includes the folded trace metrics). Attaching the observer never
    changes simulation behaviour — the trace and results are
    byte-identical to an unobserved run.

    ``admission`` attaches an admission controller (plus a watchdog, the
    overload-tier pairing every other harness uses), which populates the
    overload/shed/watchdog counters in the snapshot; shed or dropped
    applications then legally reduce the retired count.
    """
    from repro.experiments.parallel import ClosedCell

    observer = Instrumentation(profile=profile)
    hypervisor = ClosedCell(
        scheduler_name, sequence, config=config, faults=fault_config,
        admission=admission, seed=seed, mode=mode,
    ).hypervisor(observer)
    return hypervisor, observer


def collect_snapshots(
    schedulers: Sequence[str],
    sequences: Sequence[EventSequence],
    fault_config: Optional[FaultConfig] = None,
    config: Optional[SystemConfig] = None,
    jobs: Optional[int] = None,
    admission: Optional[str] = None,
    seed: int = 0,
) -> List[dict]:
    """One deterministic snapshot per (scheduler, sequence) cell.

    Cells fan out over ``jobs`` worker processes; results come back in
    grid order (schedulers outer, sequences inner) regardless of the
    worker count.
    """
    from repro.experiments import parallel

    return parallel.run_cells(
        [
            parallel.ClosedCell(
                name, sequence, reduce=parallel.snapshot, config=config,
                faults=fault_config, admission=admission, seed=seed,
            )
            for name in schedulers
            for sequence in sequences
        ],
        jobs=jobs,
    )


def collect_metrics(
    schedulers: Sequence[str],
    sequences: Sequence[EventSequence],
    fault_config: Optional[FaultConfig] = None,
    config: Optional[SystemConfig] = None,
    jobs: Optional[int] = None,
    admission: Optional[str] = None,
    seed: int = 0,
) -> dict:
    """Merged metrics snapshot over the whole (scheduler x sequence) grid.

    Independent of ``jobs`` by construction: per-cell snapshots are pure
    functions of their inputs and the merge is associative in grid order.
    """
    return merge_snapshots(collect_snapshots(
        schedulers, sequences,
        fault_config=fault_config, config=config, jobs=jobs,
        admission=admission, seed=seed,
    ))
