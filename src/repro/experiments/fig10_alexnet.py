"""Figure 10: AlexNet response time vs batch size across ablations (§5.6).

Reuses the Figure 9 ablation runs, filtered to AlexNet events. Paper
shapes: at batch size 1 the variants coincide; at larger batches removing
pipelining hurts most, with NimblockNoPipe and NimblockNoPreemptNoPipe
overlapping; response time grows sublinearly with batch size thanks to
multi-slot parallelization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.variants import ABLATION_NAMES
from repro.errors import ExperimentError
from repro.experiments.fig9_ablation import _ablation_sequences
from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
)
from repro.workload.scenarios import ABLATION_BATCH_SIZES

#: The benchmark Figure 10/11 zoom in on.
TARGET_BENCHMARK = "alexnet"


@dataclass(frozen=True)
class Fig10Result:
    """Mean AlexNet response (s) per (batch size, variant)."""

    batch_sizes: Tuple[int, ...]
    variants: Tuple[str, ...]
    response_s: Dict[Tuple[int, str], float]
    samples: Dict[int, int]

    def response(self, batch_size: int, variant: str) -> float:
        """One point of Figure 10, in seconds."""
        return self.response_s[(batch_size, variant)]


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    batch_sizes: Sequence[int] = ABLATION_BATCH_SIZES,
    variants: Sequence[str] = ABLATION_NAMES,
) -> Fig10Result:
    """Collect AlexNet responses from the ablation runs."""
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    per_batch = {
        batch_size: _ablation_sequences(settings, batch_size)
        for batch_size in batch_sizes
    }
    cache.prewarm(
        variants,
        [seq for seqs in per_batch.values() for seq in seqs],
    )
    response: Dict[Tuple[int, str], float] = {}
    samples: Dict[int, int] = {}
    for batch_size in batch_sizes:
        sequences = per_batch[batch_size]
        for variant in variants:
            results = [
                r for r in cache.combined(variant, sequences)
                if r.name == TARGET_BENCHMARK
            ]
            if not results:
                raise ExperimentError(
                    f"no {TARGET_BENCHMARK} events in the stimuli; increase "
                    "REPRO_SEQUENCES or REPRO_EVENTS"
                )
            samples[batch_size] = len(results)
            response[(batch_size, variant)] = sum(
                r.response_ms for r in results
            ) / len(results) / 1000.0
    return Fig10Result(
        batch_sizes=tuple(batch_sizes),
        variants=tuple(variants),
        response_s=response,
        samples=samples,
    )


def format_result(result: Fig10Result) -> str:
    """Figure 10 as a text table."""
    headers = ["batch", "samples"] + [f"{v} (s)" for v in result.variants]
    rows: List[List[object]] = []
    for batch_size in result.batch_sizes:
        row: List[object] = [batch_size, result.samples[batch_size]]
        row.extend(
            result.response(batch_size, variant)
            for variant in result.variants
        )
        rows.append(row)
    title = "Figure 10: AlexNet response time under ablation variants"
    return f"{title}\n{format_table(headers, rows)}"
