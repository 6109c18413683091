"""Figure 9: ablation study of preemption and pipelining (paper §5.6).

Under stress-test arrival conditions with fixed batch sizes, the full
Nimblock algorithm is compared against itself with pipelining and/or
preemption removed. Responses are normalized to the full algorithm
(higher than 1.0 = worse than Nimblock).

Paper shapes: removing preemption costs 1.07-1.14x; removing pipelining
costs ~1.2x; removing both is only marginally worse than removing
pipelining alone (without pipelining nobody over-consumes, so preemption
rarely fires).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.variants import ABLATION_NAMES
from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
)
from repro.metrics.response import normalized_responses
from repro.workload.generator import EventGenerator
from repro.workload.scenarios import ABLATION_BATCH_SIZES, STRESS

#: Benchmark pool for the fixed-batch ablation runs. Digit recognition is
#: excluded: one DR event at batch 20 is ~66 minutes of slot-time, which
#: cannot fit the paper's ~30-minute test sequences (artifact appendix),
#: so the ablation mix on the testbed cannot have contained it; keeping it
#: would drown the preemption/pipelining effects in DR queueing noise.
ABLATION_BENCHMARKS = ("lenet", "alexnet", "imgc", "of", "3dr")


@dataclass(frozen=True)
class Fig9Result:
    """Mean response relative to full Nimblock per (batch, variant)."""

    batch_sizes: Tuple[int, ...]
    variants: Tuple[str, ...]
    relative: Dict[Tuple[int, str], float]

    def relative_response(self, batch_size: int, variant: str) -> float:
        """One bar of Figure 9 (1.0 = identical to full Nimblock)."""
        return self.relative[(batch_size, variant)]


def _ablation_sequences(
    settings: ExperimentSettings, batch_size: int
):
    low, high = STRESS.delay_range_ms
    delay = (low + high) / 2.0
    return [
        EventGenerator(seed, benchmarks=ABLATION_BENCHMARKS).sequence(
            num_events=settings.num_events,
            delay_range_ms=(delay, delay),
            fixed_batch=batch_size,
            label=(
                f"ablation-b{batch_size}-n{settings.num_events}-seed{seed}"
            ),
        )
        for seed in settings.seeds()
    ]


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    batch_sizes: Sequence[int] = ABLATION_BATCH_SIZES,
    variants: Sequence[str] = ABLATION_NAMES,
) -> Fig9Result:
    """Run the ablation grid: fixed batches x Nimblock variants."""
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    pools = cache.grid(
        ("nimblock", *variants),
        {b: _ablation_sequences(settings, b) for b in batch_sizes},
    )
    relative: Dict[Tuple[int, str], float] = {}
    for batch_size in batch_sizes:
        for variant in variants:
            ratios = normalized_responses(
                pools[(batch_size, "nimblock")], pools[(batch_size, variant)]
            )
            relative[(batch_size, variant)] = sum(ratios) / len(ratios)
    return Fig9Result(
        batch_sizes=tuple(batch_sizes),
        variants=tuple(variants),
        relative=relative,
    )


def format_result(result: Fig9Result) -> str:
    """Figure 9 as a text table (rows = batch sizes)."""
    headers = ["batch"] + list(result.variants)
    rows: List[List[object]] = []
    for batch_size in result.batch_sizes:
        row: List[object] = [batch_size]
        row.extend(
            result.relative_response(batch_size, variant)
            for variant in result.variants
        )
        rows.append(row)
    title = (
        "Figure 9: response time relative to full Nimblock "
        "(stress arrivals, fixed batch; higher = worse)"
    )
    return f"{title}\n{format_table(headers, rows)}"
