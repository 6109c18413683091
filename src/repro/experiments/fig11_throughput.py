"""Figure 11: AlexNet throughput vs batch size across ablations (§5.6).

Throughput = completed batch items per second of response time, averaged
over AlexNet events in the ablation runs. Paper shapes: the
pipelining-enabled variants (Nimblock, NimblockNoPreempt) sustain higher
throughput; gains flatten beyond batch size ~5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.variants import ABLATION_NAMES
from repro.experiments.fig10_alexnet import target_runs
from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
)
from repro.workload.scenarios import ABLATION_BATCH_SIZES


@dataclass(frozen=True)
class Fig11Result:
    """Mean AlexNet throughput (items/s) per (batch size, variant)."""

    batch_sizes: Tuple[int, ...]
    variants: Tuple[str, ...]
    throughput: Dict[Tuple[int, str], float]

    def items_per_s(self, batch_size: int, variant: str) -> float:
        """One point of Figure 11."""
        return self.throughput[(batch_size, variant)]


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    batch_sizes: Sequence[int] = ABLATION_BATCH_SIZES,
    variants: Sequence[str] = ABLATION_NAMES,
) -> Fig11Result:
    """Compute AlexNet throughput from the ablation runs."""
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    runs = target_runs(settings, cache, batch_sizes, variants)
    throughput = {
        key: sum(r.throughput_items_per_s for r in results) / len(results)
        for key, results in runs.items()
    }
    return Fig11Result(
        batch_sizes=tuple(batch_sizes),
        variants=tuple(variants),
        throughput=throughput,
    )


def format_result(result: Fig11Result) -> str:
    """Figure 11 as a text table."""
    headers = ["batch"] + [f"{v} (items/s)" for v in result.variants]
    rows: List[List[object]] = []
    for batch_size in result.batch_sizes:
        row: List[object] = [batch_size]
        row.extend(
            round(result.items_per_s(batch_size, variant), 4)
            for variant in result.variants
        )
        rows.append(row)
    title = "Figure 11: AlexNet throughput under ablation variants"
    return f"{title}\n{format_table(headers, rows)}"
