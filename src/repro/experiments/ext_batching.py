"""Extension study: batching strategies (the §3.2 motivation, quantified).

One logical workload — an application with N total items — is presented
to the hypervisor whole, in fixed chunks, or one item per request. The
paper's claim: large batches hide reconfiguration latency and avoid
redundant scheduling decisions, so completion time degrades as the batch
is fragmented.

Measured as the time until the *last* item of the logical workload
completes, under Nimblock, with the board otherwise idle (isolating the
batching effect from contention).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.catalog import get_benchmark
from repro.experiments.runner import format_table, run_closed
from repro.workload.batching import (
    BatchingStrategy,
    chunks,
    per_item,
    requests_for,
    whole,
)

#: Strategies compared, in fragmentation order.
def default_strategies() -> List[BatchingStrategy]:
    """whole, halves-of-30, chunks of 5, one per item."""
    return [whole(), chunks(15), chunks(5), per_item()]


#: Benchmarks studied: a short chain (reconfig-dominated) and a longer one.
STUDY_BENCHMARKS: Tuple[str, ...] = ("imgc", "lenet", "of")

#: Total logical items per workload.
TOTAL_ITEMS = 30


@dataclass(frozen=True)
class BatchingResult:
    """Completion time per (benchmark, strategy)."""

    total_items: int
    benchmarks: Tuple[str, ...]
    strategies: Tuple[str, ...]
    completion_ms: Dict[Tuple[str, str], float]
    reconfigs: Dict[Tuple[str, str], int]

    def completion(self, benchmark: str, strategy: str) -> float:
        """Time until the last item finished."""
        return self.completion_ms[(benchmark, strategy)]

    def fragmentation_penalty(self, benchmark: str) -> float:
        """per_item completion relative to whole-batch completion."""
        return (
            self.completion(benchmark, "per_item")
            / self.completion(benchmark, "whole")
        )


def run(
    settings=None,
    cache=None,  # harness uniformity
    *,
    benchmarks: Sequence[str] = STUDY_BENCHMARKS,
    total_items: int = TOTAL_ITEMS,
    strategies: Optional[List[BatchingStrategy]] = None,
) -> BatchingResult:
    """Measure every (benchmark, strategy) cell on an idle board."""
    strategies = strategies or default_strategies()
    completion: Dict[Tuple[str, str], float] = {}
    reconfigs: Dict[Tuple[str, str], int] = {}
    for name in benchmarks:
        app = get_benchmark(name)
        for strategy in strategies:
            results = run_closed(
                "nimblock",
                requests_for(app.name, app.graph, total_items, strategy),
                label=f"{name} {strategy.name}",
            ).results()
            completion[(name, strategy.name)] = max(
                r.retire_ms for r in results
            )
            reconfigs[(name, strategy.name)] = sum(
                r.reconfig_count for r in results
            )
    return BatchingResult(
        total_items=total_items,
        benchmarks=tuple(benchmarks),
        strategies=tuple(s.name for s in strategies),
        completion_ms=completion,
        reconfigs=reconfigs,
    )


def format_result(result: BatchingResult) -> str:
    """Batching table: completion time and reconfiguration counts."""
    headers = ["benchmark"] + [
        f"{s} (s)" for s in result.strategies
    ] + [f"{s} cfgs" for s in result.strategies]
    rows: List[List[object]] = []
    for name in result.benchmarks:
        row: List[object] = [name]
        row.extend(
            result.completion(name, s) / 1000.0 for s in result.strategies
        )
        row.extend(result.reconfigs[(name, s)] for s in result.strategies)
        rows.append(row)
    title = (
        f"Extension: batching strategies for {result.total_items} logical "
        "items (idle board, Nimblock; §3.2 motivation)"
    )
    return f"{title}\n{format_table(headers, rows)}"
