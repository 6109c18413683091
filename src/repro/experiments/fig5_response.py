"""Figure 5: relative response-time reduction under three congestion levels.

For each scenario (standard / stress / real-time) and each sharing
algorithm, we report the mean per-event response-time reduction factor
relative to the no-sharing baseline run on identical stimuli.

Paper shapes to reproduce: Nimblock wins every scenario (4.7x standard,
5.7x stress, 3.1x real-time over the baseline); PREMA is second; FCFS and
RR drop to ~1x or below in the real-time test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
)
from repro.metrics.response import mean_reduction_factor
from repro.schedulers.registry import SHARING_SCHEDULERS
from repro.workload.scenarios import SCENARIOS, Scenario


@dataclass(frozen=True)
class Fig5Result:
    """Mean reduction factor per (scenario, scheduler)."""

    scenarios: Tuple[str, ...]
    schedulers: Tuple[str, ...]
    reductions: Dict[Tuple[str, str], float]

    def reduction(self, scenario: str, scheduler: str) -> float:
        """Reduction factor for one cell of the figure."""
        return self.reductions[(scenario, scheduler)]

    def best_scheduler(self, scenario: str) -> str:
        """The winning algorithm in one scenario."""
        return max(
            self.schedulers, key=lambda s: self.reductions[(scenario, s)]
        )


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    scenarios: Sequence[Scenario] = SCENARIOS,
    schedulers: Sequence[str] = SHARING_SCHEDULERS,
) -> Fig5Result:
    """Execute (or reuse) all runs and compute the Figure 5 matrix."""
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    pools = cache.grid(
        ("baseline", *schedulers),
        {s.name: settings.sequences(s) for s in scenarios},
    )
    reductions = {
        (scenario.name, scheduler): mean_reduction_factor(
            pools[(scenario.name, "baseline")],
            pools[(scenario.name, scheduler)],
        )
        for scenario in scenarios
        for scheduler in schedulers
    }
    return Fig5Result(
        scenarios=tuple(s.name for s in scenarios),
        schedulers=tuple(schedulers),
        reductions=reductions,
    )


def format_result(result: Fig5Result, plot: bool = True) -> str:
    """Figure 5 as a text table plus per-scenario bar charts."""
    from repro.metrics.ascii_plot import render_bars

    headers = ["scenario"] + [f"{s} (x)" for s in result.schedulers]
    rows: List[List[object]] = []
    for scenario in result.scenarios:
        row: List[object] = [scenario]
        row.extend(
            result.reduction(scenario, scheduler)
            for scheduler in result.schedulers
        )
        rows.append(row)
    title = "Figure 5: mean response-time reduction vs no-sharing baseline"
    text = f"{title}\n{format_table(headers, rows)}"
    if plot:
        for scenario in result.scenarios:
            bars = render_bars(
                list(result.schedulers),
                [result.reduction(scenario, s) for s in result.schedulers],
                unit="x",
            )
            text += f"\n\n{scenario}:\n{bars}"
    return text
