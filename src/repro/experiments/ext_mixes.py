"""Extension study: scheduler robustness across workload mixes.

The paper evaluates a uniform draw over its six benchmarks. Here the same
algorithms face skewed tenant populations (short-task-heavy,
long-task-heavy, outlier-free) under stress arrivals.

Expected shape: Nimblock leads on every mix that contains long-running
applications able to monopolize slots (balanced, long-heavy, and the
outlier-free mix, which still carries AlexNet and optical flow). On the
short-task-dominated mix FCFS edges ahead: Nimblock's candidate gating
makes low-priority applications wait out the token threshold, a delay
that is invisible next to long benchmarks but material when most
applications finish in seconds. This is the low-priority-latency price of
priority protection, tunable through ``SystemConfig.token_alpha``.
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
from repro.workload.mixes import mix_sequence

#: Mixes reported, in table order.
MIX_NAMES: Tuple[str, ...] = ("balanced", "short_heavy", "long_heavy",
                              "no_outlier")

#: Algorithms compared against the baseline.
COMPARED: Tuple[str, ...] = ("fcfs", "prema", "rr", "nimblock")


@dataclass(frozen=True)
class MixResult:
    """Mean response-time reduction per (mix, scheduler)."""

    mixes: Tuple[str, ...]
    schedulers: Tuple[str, ...]
    reductions: Dict[Tuple[str, str], float]

    def reduction(self, mix: str, scheduler: str) -> float:
        """One cell of the robustness table."""
        return self.reductions[(mix, scheduler)]

    def best_scheduler(self, mix: str) -> str:
        """Winning algorithm on one mix."""
        return max(
            self.schedulers, key=lambda s: self.reductions[(mix, s)]
        )


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    mixes: Sequence[str] = MIX_NAMES,
    schedulers: Sequence[str] = COMPARED,
) -> MixResult:
    """Run every mix under the baseline plus each compared scheduler."""
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    pools = cache.grid(
        ("baseline", *schedulers),
        {
            mix: [
                mix_sequence(mix, seed, settings.num_events)
                for seed in settings.seeds()
            ]
            for mix in mixes
        },
    )
    reductions = {
        (mix, scheduler): mean_reduction_factor(
            pools[(mix, "baseline")], pools[(mix, scheduler)]
        )
        for mix in mixes
        for scheduler in schedulers
    }
    return MixResult(
        mixes=tuple(mixes),
        schedulers=tuple(schedulers),
        reductions=reductions,
    )


def format_result(result: MixResult) -> str:
    """Robustness table: mixes x schedulers."""
    headers = ["mix"] + [f"{s} (x)" for s in result.schedulers]
    rows: List[List[object]] = []
    for mix in result.mixes:
        row: List[object] = [mix]
        row.extend(
            result.reduction(mix, scheduler)
            for scheduler in result.schedulers
        )
        rows.append(row)
    title = (
        "Extension: response-time reduction across workload mixes "
        "(stress arrivals, vs no-sharing baseline)"
    )
    return f"{title}\n{format_table(headers, rows)}"
