"""Extension study: seed sensitivity of the headline result.

How stable is "Nimblock's mean response-time reduction over the baseline"
across disjoint random seed blocks? Each block is an independent
replication of the stress experiment; we report per-block reductions and
the across-block mean, standard deviation and coefficient of variation.

Expected shape: the reduction varies with workload composition (blocks
drawing more digit-recognition events have deeper baseline queues), but
Nimblock beats the baseline in every block and beats PREMA in every
block — the orderings, which are the reproduction contract, are
seed-stable even where magnitudes wobble.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
)
from repro.metrics.response import mean_reduction_factor
from repro.workload.scenarios import STRESS

#: Independent replications (disjoint seed blocks).
DEFAULT_BLOCKS = 5

#: Schedulers whose reductions are replicated.
STUDIED: Tuple[str, ...] = ("prema", "nimblock")


@dataclass(frozen=True)
class SeedStudyResult:
    """Per-block reductions plus across-block statistics."""

    blocks: int
    sequences_per_block: int
    schedulers: Tuple[str, ...]
    reductions: Dict[Tuple[int, str], float]

    def block_values(self, scheduler: str) -> List[float]:
        """Reduction factor in each block."""
        return [
            self.reductions[(block, scheduler)]
            for block in range(self.blocks)
        ]

    def mean(self, scheduler: str) -> float:
        """Across-block mean reduction."""
        values = self.block_values(scheduler)
        return sum(values) / len(values)

    def stdev(self, scheduler: str) -> float:
        """Across-block sample standard deviation."""
        values = self.block_values(scheduler)
        mean = self.mean(scheduler)
        if len(values) < 2:
            return 0.0
        return math.sqrt(
            sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        )

    def cv(self, scheduler: str) -> float:
        """Coefficient of variation (stdev / mean)."""
        return self.stdev(scheduler) / self.mean(scheduler)

    def ordering_stable(self, better: str, worse: str) -> bool:
        """True if ``better`` beats ``worse`` in every block."""
        return all(
            self.reductions[(block, better)]
            > self.reductions[(block, worse)]
            for block in range(self.blocks)
        )


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    blocks: int = DEFAULT_BLOCKS,
    schedulers: Tuple[str, ...] = STUDIED,
) -> SeedStudyResult:
    """Replicate the stress experiment over disjoint seed blocks."""
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    per_block_count = max(1, settings.num_sequences // 2)
    pools = cache.grid(
        ("baseline", *schedulers),
        {
            # Disjoint seeds: shift each block well past the settings' range.
            block: replace(
                settings,
                num_sequences=per_block_count,
                base_seed=settings.base_seed + 1000 * (block + 1),
            ).sequences(STRESS)
            for block in range(blocks)
        },
    )
    reductions = {
        (block, scheduler): mean_reduction_factor(
            pools[(block, "baseline")], pools[(block, scheduler)]
        )
        for block in range(blocks)
        for scheduler in schedulers
    }
    return SeedStudyResult(
        blocks=blocks,
        sequences_per_block=per_block_count,
        schedulers=tuple(schedulers),
        reductions=reductions,
    )


def format_result(result: SeedStudyResult) -> str:
    """Replication table plus stability statistics."""
    headers = ["block"] + [f"{s} (x)" for s in result.schedulers]
    rows: List[List[object]] = []
    for block in range(result.blocks):
        row: List[object] = [block]
        row.extend(
            result.reductions[(block, s)] for s in result.schedulers
        )
        rows.append(row)
    summary_rows: List[List[object]] = [
        ["mean"] + [result.mean(s) for s in result.schedulers],
        ["stdev"] + [result.stdev(s) for s in result.schedulers],
        ["cv"] + [f"{result.cv(s):.1%}" for s in result.schedulers],
    ]
    title = (
        f"Extension: seed sensitivity over {result.blocks} disjoint "
        f"blocks x {result.sequences_per_block} sequences (stress)"
    )
    stable = result.ordering_stable("nimblock", "prema")
    return (
        f"{title}\n{format_table(headers, rows + summary_rows)}\n"
        f"nimblock > prema in every block: {stable}"
    )
