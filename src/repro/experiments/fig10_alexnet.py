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
from repro.hypervisor.results import AppResult
from repro.workload.scenarios import ABLATION_BATCH_SIZES

#: The benchmark Figure 10/11 zoom in on.
TARGET_BENCHMARK = "alexnet"


def target_runs(
    settings: ExperimentSettings,
    cache: RunCache,
    batch_sizes: Sequence[int],
    variants: Sequence[str],
) -> Dict[Tuple[int, str], List[AppResult]]:
    """The ablation runs' :data:`TARGET_BENCHMARK` results per (batch
    size, variant), read through one grid (Figures 10 and 11)."""
    pools = cache.grid(
        variants, {b: _ablation_sequences(settings, b) for b in batch_sizes}
    )
    runs = {
        key: [r for r in pool if r.name == TARGET_BENCHMARK]
        for key, pool in pools.items()
    }
    if not all(runs.values()):
        raise ExperimentError(
            f"no {TARGET_BENCHMARK} events in the stimuli; increase "
            "REPRO_SEQUENCES or REPRO_EVENTS"
        )
    return runs


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
    runs = target_runs(settings, cache, batch_sizes, variants)
    response: Dict[Tuple[int, str], float] = {}
    samples: Dict[int, int] = {}
    for (batch_size, variant), results in runs.items():
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
