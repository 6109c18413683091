"""Figure 6: tail (95th/99th percentile) response time, normalized.

The paper captures tail behaviour as the 95th and 99th percentiles of the
per-event normalized response-time distribution for each scenario. Lower
is better. Shapes to reproduce: Nimblock best at the 95th percentile
everywhere; in the real-time test Nimblock's 99th percentile beats RR and
FCFS by large factors (4.8x / 6.6x in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
)
from repro.metrics.response import tail_normalized_response
from repro.schedulers.registry import SHARING_SCHEDULERS
from repro.workload.scenarios import SCENARIOS, Scenario

#: The two tail percentiles of Figure 6.
TAIL_PERCENTILES: Tuple[float, float] = (95.0, 99.0)


@dataclass(frozen=True)
class Fig6Result:
    """Normalized tail response per (scenario, percentile, scheduler)."""

    scenarios: Tuple[str, ...]
    schedulers: Tuple[str, ...]
    tails: Dict[Tuple[str, float, str], float]

    def tail(self, scenario: str, pct: float, scheduler: str) -> float:
        """One bar of Figure 6."""
        return self.tails[(scenario, pct, scheduler)]

    def best_scheduler(self, scenario: str, pct: float) -> str:
        """Lowest-tail algorithm for one (scenario, percentile)."""
        return min(
            self.schedulers, key=lambda s: self.tails[(scenario, pct, s)]
        )


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    scenarios: Sequence[Scenario] = SCENARIOS,
    schedulers: Sequence[str] = SHARING_SCHEDULERS,
) -> Fig6Result:
    """Compute the Figure 6 tail matrix (reusing Figure 5's runs)."""
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    pools = cache.grid(
        ("baseline", *schedulers),
        {s.name: settings.sequences(s) for s in scenarios},
    )
    tails = {
        (scenario.name, pct, scheduler): tail_normalized_response(
            pools[(scenario.name, "baseline")],
            pools[(scenario.name, scheduler)],
            pct,
        )
        for scenario in scenarios
        for scheduler in schedulers
        for pct in TAIL_PERCENTILES
    }
    return Fig6Result(
        scenarios=tuple(s.name for s in scenarios),
        schedulers=tuple(schedulers),
        tails=tails,
    )


def format_result(result: Fig6Result) -> str:
    """Figure 6 as a text table (rows = scenario-percentile pairs)."""
    headers = ["case"] + list(result.schedulers)
    rows: List[List[object]] = []
    for scenario in result.scenarios:
        for pct in TAIL_PERCENTILES:
            row: List[object] = [f"{scenario}-{int(pct)}"]
            row.extend(
                result.tail(scenario, pct, scheduler)
                for scheduler in result.schedulers
            )
            rows.append(row)
    title = (
        "Figure 6: tail response time normalized to baseline "
        "(lower is better)"
    )
    return f"{title}\n{format_table(headers, rows)}"
