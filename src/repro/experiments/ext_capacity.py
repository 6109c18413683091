"""Extension study: capacity planning — how many slots does a workload need?

The overlay's slot count is a floorplanning decision (§2.1: "Nimblock ...
is flexible across different numbers of slots"). This study sweeps the
slot count for a fixed stress workload under Nimblock, reporting mean
response and the marginal gain of each increment — the same knee-finding
logic the saturation analysis applies per application, applied to the
whole platform.

Expected shape: steep gains up to roughly the workload's aggregate
parallelism, then a plateau; the knee tells an operator how many slots
this tenant mix actually pays for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.config import SystemConfig
from repro.experiments.runner import ExperimentSettings, RunCache, format_table
from repro.workload.scenarios import STRESS

#: Slot counts swept (the paper's platform is 10).
DEFAULT_SLOT_COUNTS: Tuple[int, ...] = (2, 4, 6, 8, 10, 12, 14)


@dataclass(frozen=True)
class CapacityResult:
    """Mean response per slot count, plus the detected knee."""

    scheduler: str
    slot_counts: Tuple[int, ...]
    mean_response_ms: Dict[int, float]

    def response(self, slots: int) -> float:
        """Mean response (ms) at one slot count."""
        return self.mean_response_ms[slots]

    def marginal_gain(self, slots: int) -> float:
        """Fractional improvement over the previous swept count."""
        index = self.slot_counts.index(slots)
        if index == 0:
            return 0.0
        before = self.response(self.slot_counts[index - 1])
        return (before - self.response(slots)) / before

    def knee(self, threshold: float = 0.05) -> int:
        """Smallest slot count after which every increment gains < threshold."""
        for index, slots in enumerate(self.slot_counts):
            remaining = self.slot_counts[index + 1:]
            if all(
                self.marginal_gain(later) < threshold for later in remaining
            ):
                return slots
        return self.slot_counts[-1]


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    scheduler: str = "nimblock",
    slot_counts: Sequence[int] = DEFAULT_SLOT_COUNTS,
) -> CapacityResult:
    """Sweep the overlay slot count for one workload."""
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    sequences = settings.sequences(STRESS)
    pools = cache.grid(
        (scheduler,),
        {slots: sequences for slots in slot_counts},
        configs={n: SystemConfig(num_slots=n) for n in slot_counts},
    )
    means: Dict[int, float] = {}
    for slots in slot_counts:
        responses = [r.response_ms for r in pools[(slots, scheduler)]]
        means[slots] = sum(responses) / len(responses)
    return CapacityResult(
        scheduler=scheduler,
        slot_counts=tuple(slot_counts),
        mean_response_ms=means,
    )


def format_result(result: CapacityResult) -> str:
    """Capacity table with marginal gains and the knee."""
    headers = ["slots", "mean response (s)", "marginal gain"]
    rows: List[List[object]] = []
    for slots in result.slot_counts:
        rows.append(
            [
                slots,
                result.response(slots) / 1000.0,
                f"{result.marginal_gain(slots):+.1%}",
            ]
        )
    title = (
        f"Extension: capacity planning under {result.scheduler} "
        "(stress workload, slot-count sweep)"
    )
    return (
        f"{title}\n{format_table(headers, rows)}\n"
        f"knee (5% threshold): {result.knee()} slots"
    )
