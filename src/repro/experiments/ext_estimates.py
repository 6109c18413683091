"""Extension study: sensitivity to HLS latency-estimate error.

Nimblock's tokens, PREMA's shortest-first pick and both algorithms'
allocation logic consume HLS latency *estimates* (paper §4.1). Real HLS
reports deviate from silicon. This study perturbs every estimate by a
bounded relative error (deterministic per task, see
``repro.apps.hls.synthesize_report``) and measures how each algorithm's
response-time reduction degrades.

Expected shape: both algorithms are remarkably flat. Estimates gate
*ordering* decisions, not correctness, and the suite's benchmarks differ
in latency by orders of magnitude (18 ms image-compression tasks vs 65 s
digit-recognition tasks), so a bounded ±40% error almost never flips a
comparison. Estimate quality would only start to matter between
applications of similar scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
)
from repro.metrics.response import mean_reduction_factor
from repro.workload.scenarios import STRESS

#: Relative estimation-error bounds swept.
ERROR_LEVELS: Tuple[float, ...] = (0.0, 0.1, 0.2, 0.4)

#: Estimate-consuming algorithms studied.
STUDIED: Tuple[str, ...] = ("prema", "nimblock")


@dataclass(frozen=True)
class EstimateSensitivityResult:
    """Reduction factor per (error level, scheduler)."""

    error_levels: Tuple[float, ...]
    schedulers: Tuple[str, ...]
    reductions: Dict[Tuple[float, str], float]

    def reduction(self, error: float, scheduler: str) -> float:
        """One cell of the sensitivity table."""
        return self.reductions[(error, scheduler)]

    def degradation(self, scheduler: str) -> float:
        """Reduction at the worst error relative to perfect estimates."""
        perfect = self.reduction(self.error_levels[0], scheduler)
        worst = self.reduction(self.error_levels[-1], scheduler)
        return worst / perfect


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    error_levels: Sequence[float] = ERROR_LEVELS,
    schedulers: Sequence[str] = STUDIED,
) -> EstimateSensitivityResult:
    """Sweep estimation error for each studied scheduler."""
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    sequences = settings.sequences(STRESS)
    pools = cache.grid(
        ("baseline", *schedulers),
        {error: sequences for error in error_levels},
        configs={
            error: SystemConfig(hls_estimation_error=error)
            for error in error_levels
        },
    )
    reductions = {
        (error, scheduler): mean_reduction_factor(
            pools[(error, "baseline")], pools[(error, scheduler)]
        )
        for error in error_levels
        for scheduler in schedulers
    }
    return EstimateSensitivityResult(
        error_levels=tuple(error_levels),
        schedulers=tuple(schedulers),
        reductions=reductions,
    )


def format_result(result: EstimateSensitivityResult) -> str:
    """Sensitivity table: error levels x schedulers."""
    headers = ["estimate error"] + [f"{s} (x)" for s in result.schedulers]
    rows: List[List[object]] = []
    for error in result.error_levels:
        row: List[object] = [f"±{error:.0%}"]
        row.extend(
            result.reduction(error, scheduler)
            for scheduler in result.schedulers
        )
        rows.append(row)
    title = (
        "Extension: sensitivity to HLS latency-estimate error "
        "(stress arrivals, reduction vs baseline)"
    )
    return f"{title}\n{format_table(headers, rows)}"
