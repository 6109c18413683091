"""Extension study: scheduler resilience under fault injection.

Sweeps a chaos scenario's ``fault_rate`` over every scheduler and reports
per-scheduler **degradation curves** (mean response ratio vs the
fault-free run of the same stimuli) plus the reliability metrics of
:mod:`repro.metrics.reliability` (goodput, MTTR, work lost).

Expected shapes: schedulers that can relocate work (Nimblock, whose
batch-boundary rollback doubles as the recovery checkpoint) degrade more
gracefully than static designs; round-robin suffers from queue stranding
until dead-slot migration kicks in; the no-sharing baseline pays the full
serialization penalty for every retried reconfiguration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
)
from repro.hypervisor.results import AppResult
from repro.metrics.reliability import degradation_factor
from repro.schedulers.registry import ALL_SCHEDULERS
from repro.workload.scenarios import (
    ChaosScenario,
    MIXED_FAULTS,
    Scenario,
    STRESS,
)

#: Fault-rate sweep of the degradation curves (0 = fault-free reference).
DEFAULT_FAULT_RATES: Tuple[float, ...] = (0.0, 0.02, 0.05, 0.1)


@dataclass(frozen=True)
class FaultStudyResult:
    """Degradation curves and reliability metrics for one chaos scenario."""

    scenario: str
    workload: str
    fault_rates: Tuple[float, ...]
    schedulers: Tuple[str, ...]
    degradation: Dict[Tuple[str, float], float]
    goodput: Dict[Tuple[str, float], float]
    mttr: Dict[Tuple[str, float], float]
    work_lost: Dict[Tuple[str, float], float]
    fault_counts: Dict[Tuple[str, float], int]

    def curve(self, scheduler: str) -> List[float]:
        """The scheduler's degradation curve over the swept fault rates."""
        return [self.degradation[(scheduler, r)] for r in self.fault_rates]


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    scenario: ChaosScenario = MIXED_FAULTS,
    workload: Scenario = STRESS,
    fault_rates: Sequence[float] = DEFAULT_FAULT_RATES,
    schedulers: Sequence[str] = ALL_SCHEDULERS,
) -> FaultStudyResult:
    """Sweep fault rates over all schedulers under one chaos scenario.

    The (scheduler, rate, sequence) grid fans out over the cache's
    ``jobs`` worker processes (see :mod:`repro.experiments.parallel`);
    each worker rebuilds its injector from the picklable
    :class:`FaultConfig`, so the seeded fault RNG streams — and therefore
    every aggregate — are identical to a serial run. The sweep must start
    at rate 0.0: that run is the fault-free reference of every curve.
    """
    from repro.experiments import parallel

    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    rates = tuple(fault_rates)
    if not rates or rates[0] != 0.0:
        raise ExperimentError(
            "fault_rates must start at 0.0, the fault-free reference "
            f"every degradation is measured against; got {rates!r}"
        )
    degradation: Dict[Tuple[str, float], float] = {}
    goodput: Dict[Tuple[str, float], float] = {}
    mttr: Dict[Tuple[str, float], float] = {}
    work_lost: Dict[Tuple[str, float], float] = {}
    fault_counts: Dict[Tuple[str, float], int] = {}
    sequences = settings.sequences(workload)
    seeds = settings.seeds()
    # Full mode whatever cache.mode says: the chaos reducer reads rows.
    cells = iter(parallel.run_cells(
        [
            parallel.ClosedCell(
                scheduler, sequence, reduce=parallel.chaos,
                faults=scenario.fault_config(rate, seed=seeds[index]),
            )
            for scheduler in schedulers
            for rate in rates
            for index, sequence in enumerate(sequences)
        ],
        jobs=cache.jobs,
    ))
    for scheduler in schedulers:
        reference: List[List[AppResult]] = []
        for rate in rates:
            ratios: List[float] = []
            goodputs: List[float] = []
            recoveries: List[float] = []
            lost = 0.0
            faults = 0
            for index in range(len(sequences)):
                results, report = next(cells)
                if len(reference) <= index:
                    # The first rate is 0.0: this scheduler's
                    # fault-free reference for the curves.
                    reference.append(results)
                ratios.append(
                    degradation_factor(reference[index], results)
                )
                goodputs.append(report.goodput_items_per_s)
                recoveries.extend(report.recovery_times_ms)
                lost += report.work_lost_ms
                faults += report.slot_faults + report.config_failures
            key = (scheduler, rate)
            degradation[key] = sum(ratios) / len(ratios)
            goodput[key] = sum(goodputs) / len(goodputs)
            mttr[key] = (
                sum(recoveries) / len(recoveries)
                if recoveries else float("nan")
            )
            work_lost[key] = lost
            fault_counts[key] = faults
    return FaultStudyResult(
        scenario=scenario.name,
        workload=workload.name,
        fault_rates=rates,
        schedulers=tuple(schedulers),
        degradation=degradation,
        goodput=goodput,
        mttr=mttr,
        work_lost=work_lost,
        fault_counts=fault_counts,
    )


def format_result(result: FaultStudyResult) -> str:
    """Degradation-curve table plus reliability table at the top rate."""
    blocks = []
    headers = ["scheduler"] + [f"rate {r:g}" for r in result.fault_rates]
    rows: List[List[object]] = []
    for scheduler in result.schedulers:
        rows.append([scheduler] + list(result.curve(scheduler)))
    blocks.append(
        f"Extension: response degradation under '{result.scenario}' faults "
        f"({result.workload} workload; 1.00 = fault-free response)\n"
        + format_table(headers, rows)
    )

    top = result.fault_rates[-1]
    headers = ["scheduler", "goodput (items/s)", "MTTR (ms)",
               "work lost (ms)", "faults"]
    rows = []
    for scheduler in result.schedulers:
        key = (scheduler, top)
        mttr = result.mttr[key]
        rows.append([
            scheduler,
            result.goodput[key],
            "n/a" if math.isnan(mttr) else f"{mttr:.1f}",
            result.work_lost[key],
            result.fault_counts[key],
        ])
    blocks.append(
        f"Extension: reliability at fault rate {top:g}\n"
        + format_table(headers, rows)
    )
    return "\n\n".join(blocks)
