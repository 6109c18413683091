"""Figure 7: deadline failure rate vs the deadline scaling factor.

Deadline = ``D_s x single-slot latency``; ``D_s`` sweeps 1..20 at 0.25
steps; the analysis focuses on high-priority (priority 9) applications.
All five algorithms (including the baseline) are swept, per scenario.

Paper shapes to reproduce: Nimblock has the lowest violation rate at the
tightest deadlines in all three scenarios and reaches the 10% error point
at a smaller ``D_s`` than PREMA in the stress and real-time tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
)
from repro.metrics.deadlines import (
    DEFAULT_DS_VALUES,
    DeadlineCurve,
    deadline_curve,
)
from repro.schedulers.registry import ALL_SCHEDULERS
from repro.workload.scenarios import SCENARIOS, Scenario

#: Priority level whose deadlines the paper analyzes (high priority).
ANALYZED_PRIORITY = 9


@dataclass(frozen=True)
class Fig7Result:
    """One deadline curve per (scenario, scheduler)."""

    scenarios: Tuple[str, ...]
    schedulers: Tuple[str, ...]
    curves: Dict[Tuple[str, str], DeadlineCurve]

    def curve(self, scenario: str, scheduler: str) -> DeadlineCurve:
        """Full sweep for one line of Figure 7."""
        return self.curves[(scenario, scheduler)]

    def tightest_rates(self, scenario: str) -> Dict[str, float]:
        """Violation rate at D_s = 1 per scheduler."""
        return {
            scheduler: self.curves[(scenario, scheduler)].tightest_rate
            for scheduler in self.schedulers
        }

    def error_points(
        self, scenario: str, target: float = 0.10
    ) -> Dict[str, Optional[float]]:
        """The 10% error point per scheduler (None = never reached)."""
        return {
            scheduler: self.curves[(scenario, scheduler)].error_point(target)
            for scheduler in self.schedulers
        }


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    scenarios: Sequence[Scenario] = SCENARIOS,
    schedulers: Sequence[str] = ALL_SCHEDULERS,
    priority: Optional[int] = ANALYZED_PRIORITY,
    ds_values: Sequence[float] = DEFAULT_DS_VALUES,
) -> Fig7Result:
    """Sweep deadline scaling factors over the scenario runs."""
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    pools = cache.grid(
        schedulers,
        {s.name: settings.sequences(s) for s in scenarios},
    )
    curves = {
        (scenario.name, scheduler): deadline_curve(
            scheduler, pools[(scenario.name, scheduler)], ds_values,
            priority=priority,
        )
        for scenario in scenarios
        for scheduler in schedulers
    }
    return Fig7Result(
        scenarios=tuple(s.name for s in scenarios),
        schedulers=tuple(schedulers),
        curves=curves,
    )


def format_result(result: Fig7Result, plot: bool = True) -> str:
    """Tightest-deadline rates, 10% error points, and ASCII curves."""
    from repro.metrics.ascii_plot import render_curves

    blocks: List[str] = []
    for scenario in result.scenarios:
        headers = ["scheduler", "rate@Ds=1", "rate@Ds=2", "rate@Ds=4",
                   "10% point"]
        rows: List[List[object]] = []
        for scheduler in result.schedulers:
            curve = result.curve(scenario, scheduler)
            point = curve.error_point(0.10)
            rows.append(
                [
                    scheduler,
                    curve.rate_at(1.0),
                    curve.rate_at(2.0),
                    curve.rate_at(4.0),
                    "never" if point is None else f"{point:.2f}",
                ]
            )
        block = (
            f"Figure 7 ({scenario}): deadline violation rate, "
            f"priority-{ANALYZED_PRIORITY} apps\n"
            + format_table(headers, rows)
        )
        if plot:
            any_curve = result.curve(scenario, result.schedulers[0])
            xs = list(any_curve.ds_values)
            series = {
                scheduler: list(result.curve(scenario, scheduler).rates)
                for scheduler in result.schedulers
            }
            block += "\n" + render_curves(
                xs, series, width=64, height=12,
                y_label="violation rate", x_label="D_s",
            )
        blocks.append(block)
    return "\n\n".join(blocks)
