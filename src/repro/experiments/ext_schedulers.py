"""Extension study: Nimblock vs EDF and DML-style static allocation.

Two policies beyond the paper's comparison set:

* **EDF** — classic earliest-deadline-first over internal deadlines;
  deadline-aware but neither priority-aware nor pipelined.
* **DML static** — pipelining with *fixed* per-application slot budgets
  (the contrast the paper draws with DML in §6.2: static designation, no
  runtime reallocation, no preemption).

Expected shapes: DML-static approaches Nimblock in light load but falls
behind under contention (no reallocation or rollback); EDF meets the most
deadlines *overall* precisely because it is priority-blind — Nimblock
instead concentrates its (fewer) high-priority violations near zero while
deliberately spending low-priority slack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
)
from repro.metrics.deadlines import violation_rate
from repro.metrics.response import mean_reduction_factor
from repro.workload.scenarios import SCENARIOS, Scenario

#: Policies compared (against the shared no-sharing baseline).
COMPARED: Tuple[str, ...] = ("edf", "dml_static", "prema", "nimblock")


#: Deadline scaling factor used for the tight-deadline columns.
TIGHT_DS = 1.5


@dataclass(frozen=True)
class SchedulerStudyResult:
    """Reduction and per-priority tight-deadline rates per scenario."""

    scenarios: Tuple[str, ...]
    schedulers: Tuple[str, ...]
    priorities: Tuple[int, ...]
    reductions: Dict[Tuple[str, str], float]
    tight_violation_rates: Dict[Tuple[str, str, int], float]

    def reduction(self, scenario: str, scheduler: str) -> float:
        """Mean response-time reduction for one cell."""
        return self.reductions[(scenario, scheduler)]

    def tight_rate(
        self, scenario: str, scheduler: str, priority: int
    ) -> float:
        """Violation rate at ``TIGHT_DS`` for one priority class."""
        return self.tight_violation_rates[(scenario, scheduler, priority)]


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    scenarios: Sequence[Scenario] = SCENARIOS,
    schedulers: Sequence[str] = COMPARED,
) -> SchedulerStudyResult:
    """Run the extended scheduler set over all three scenarios."""
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    priorities = (1, 3, 9)
    pools = cache.grid(
        ("baseline", *schedulers),
        {s.name: settings.sequences(s) for s in scenarios},
    )
    reductions: Dict[Tuple[str, str], float] = {}
    tight: Dict[Tuple[str, str, int], float] = {}
    for scenario in scenarios:
        baseline = pools[(scenario.name, "baseline")]
        for scheduler in schedulers:
            results = pools[(scenario.name, scheduler)]
            reductions[(scenario.name, scheduler)] = mean_reduction_factor(
                baseline, results
            )
            for priority in priorities:
                try:
                    rate = violation_rate(
                        results, TIGHT_DS, priority=priority
                    )
                except Exception:
                    rate = float("nan")  # no apps at this priority level
                tight[(scenario.name, scheduler, priority)] = rate
    return SchedulerStudyResult(
        scenarios=tuple(s.name for s in scenarios),
        schedulers=tuple(schedulers),
        priorities=priorities,
        reductions=reductions,
        tight_violation_rates=tight,
    )


def format_result(result: SchedulerStudyResult) -> str:
    """Two tables: reductions and tight-deadline violation rates."""
    blocks = []
    headers = ["scenario"] + [f"{s} (x)" for s in result.schedulers]
    rows: List[List[object]] = []
    for scenario in result.scenarios:
        row: List[object] = [scenario]
        row.extend(
            result.reduction(scenario, s) for s in result.schedulers
        )
        rows.append(row)
    blocks.append(
        "Extension: extended scheduler comparison — response-time "
        "reduction vs baseline\n" + format_table(headers, rows)
    )

    headers = ["scenario", "prio"] + list(result.schedulers)
    rows = []
    for scenario in result.scenarios:
        for priority in result.priorities:
            row = [scenario, priority]
            for scheduler in result.schedulers:
                rate = result.tight_rate(scenario, scheduler, priority)
                row.append("n/a" if rate != rate else f"{rate:.0%}")
            rows.append(row)
    blocks.append(
        f"Extension: violation rate at D_s = {TIGHT_DS} by priority class\n"
        + format_table(headers, rows)
    )
    return "\n\n".join(blocks)
