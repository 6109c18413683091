"""Figure 8: run / partial-reconfiguration / wait time proportions.

Under the Nimblock scheduler in the standard scenario, each application's
total time is decomposed into summed task run time, total partial
reconfiguration time, and queueing wait — each expressed as a proportion
of the application's total (arrival to retirement) time and averaged per
benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
)
from repro.metrics.breakdown import TimeBreakdown, breakdown_by_benchmark
from repro.workload.scenarios import STANDARD


@dataclass(frozen=True)
class Fig8Result:
    """Per-benchmark time breakdown under Nimblock."""

    scheduler: str
    breakdowns: Dict[str, TimeBreakdown]

    def fractions(self, benchmark: str) -> Tuple[float, float, float]:
        """(run, reconfig, wait) fractions for one benchmark."""
        b = self.breakdowns[benchmark]
        return (b.run_fraction, b.reconfig_fraction, b.wait_fraction)


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    scheduler: str = "nimblock",
) -> Fig8Result:
    """Break down application time under one scheduler (standard test)."""
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    pools = cache.grid(
        (scheduler,), {STANDARD.name: settings.sequences(STANDARD)}
    )
    return Fig8Result(
        scheduler=scheduler,
        breakdowns=breakdown_by_benchmark(pools[(STANDARD.name, scheduler)]),
    )


def format_result(result: Fig8Result) -> str:
    """Figure 8 as a text table."""
    headers = ["benchmark", "samples", "run", "PR", "wait"]
    rows: List[List[object]] = []
    for name, b in result.breakdowns.items():
        rows.append(
            [name, b.samples, b.run_fraction, b.reconfig_fraction,
             b.wait_fraction]
        )
    title = (
        f"Figure 8: time proportions under {result.scheduler} "
        "(run/PR/wait as fraction of total application time)"
    )
    return f"{title}\n{format_table(headers, rows)}"
