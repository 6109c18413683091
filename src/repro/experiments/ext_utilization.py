"""Extension study: board utilization per scheduler (§1's efficiency case).

The paper's introduction argues coarse-grained allocation "potentially
leads to resource under-utilization". This study measures it: the same
stress workload runs under every algorithm, and each run's slot-time is
split into compute, reconfiguration, resident-idle and empty shares.

Expected shape: the no-sharing baseline leaves the vast majority of
slot-time empty; the sharing schedulers raise the compute share by an
order of magnitude, with the pipelined Nimblock keeping the most slots
doing useful work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import (
    ExperimentSettings,
    format_table,
    run_closed,
)
from repro.metrics.utilization import UtilizationReport, board_utilization
from repro.schedulers.registry import ALL_SCHEDULERS
from repro.workload.scenarios import STRESS


@dataclass(frozen=True)
class UtilizationResult:
    """Averaged slot-time shares per scheduler."""

    schedulers: Tuple[str, ...]
    reports: Dict[str, UtilizationReport]

    def compute_share(self, scheduler: str) -> float:
        """Fraction of slot-time spent computing."""
        return self.reports[scheduler].compute_fraction


def _average(reports: List[UtilizationReport]) -> UtilizationReport:
    n = len(reports)
    return UtilizationReport(
        window_ms=sum(r.window_ms for r in reports) / n,
        num_slots=reports[0].num_slots,
        compute_fraction=sum(r.compute_fraction for r in reports) / n,
        reconfig_fraction=sum(r.reconfig_fraction for r in reports) / n,
        idle_resident_fraction=sum(
            r.idle_resident_fraction for r in reports
        ) / n,
    )


def run(
    settings: Optional[ExperimentSettings] = None,
    cache=None,  # board_utilization reads trace rows: full mode, uncached
    *,
    schedulers: Sequence[str] = ALL_SCHEDULERS,
) -> UtilizationResult:
    """Measure slot-time shares for every scheduler on the same stimuli."""
    settings = settings or ExperimentSettings.from_env()
    sequences = settings.sequences(STRESS)
    reports: Dict[str, UtilizationReport] = {}
    for name in schedulers:
        per_run: List[UtilizationReport] = []
        for sequence in sequences:
            hypervisor = run_closed(
                name, sequence.to_requests(), label=sequence.label
            )
            per_run.append(
                board_utilization(
                    hypervisor.trace, hypervisor.config.num_slots
                )
            )
        reports[name] = _average(per_run)
    return UtilizationResult(schedulers=tuple(schedulers), reports=reports)


def format_result(result: UtilizationResult) -> str:
    """Utilization table: slot-time shares per scheduler."""
    headers = ["scheduler", "compute", "reconfig", "idle-resident",
               "empty", "window (s)"]
    rows: List[List[object]] = []
    for name in result.schedulers:
        report = result.reports[name]
        rows.append(
            [
                name,
                f"{report.compute_fraction:.1%}",
                f"{report.reconfig_fraction:.2%}",
                f"{report.idle_resident_fraction:.1%}",
                f"{report.empty_fraction:.1%}",
                report.window_ms / 1000.0,
            ]
        )
    title = (
        "Extension: board utilization under the stress workload "
        "(slot-time shares)"
    )
    return f"{title}\n{format_table(headers, rows)}"
