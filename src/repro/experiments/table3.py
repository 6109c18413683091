"""Table 3: benchmark latencies and response times (paper §5.5).

A fixed-batch (5) sequence with 500 ms between events exercises all six
benchmarks. The top half reports each benchmark's execution and response
time under the no-sharing baseline; the bottom half reports response
times under the four sharing algorithms.

Paper shapes: baseline response times are dominated by head-of-line
blocking behind digit recognition (hundreds of seconds even for sub-second
benchmarks); sharing algorithms collapse short-running benchmarks to a few
seconds; Nimblock leads on the longer-running optical flow and AlexNet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.catalog import BENCHMARK_NAMES
from repro.errors import ExperimentError
from repro.experiments.runner import (
    ExperimentSettings,
    RunCache,
    format_table,
)
from repro.hypervisor.results import AppResult
from repro.schedulers.registry import ALL_SCHEDULERS
from repro.workload.scenarios import fixed_batch_sequence

#: Table 3 workload parameters.
TABLE3_BATCH = 5
TABLE3_DELAY_MS = 500.0


@dataclass(frozen=True)
class Table3Result:
    """Execution and response times per benchmark per algorithm."""

    schedulers: Tuple[str, ...]
    execution_s: Dict[str, float]             # baseline execution time
    response_s: Dict[Tuple[str, str], float]  # (scheduler, benchmark)
    samples: Dict[str, int]

    def response(self, scheduler: str, benchmark: str) -> float:
        """Mean response time (s) of one table cell."""
        return self.response_s[(scheduler, benchmark)]


def _mean_by_benchmark(results: Sequence[AppResult]) -> Dict[str, float]:
    grouped: Dict[str, List[float]] = {}
    for result in results:
        grouped.setdefault(result.name, []).append(result.response_ms)
    return {
        name: sum(values) / len(values) / 1000.0
        for name, values in grouped.items()
    }


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    schedulers: Sequence[str] = ALL_SCHEDULERS,
) -> Table3Result:
    """Run the Table 3 workload under every algorithm."""
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    sequences = [
        fixed_batch_sequence(
            TABLE3_BATCH, seed,
            delay_ms=TABLE3_DELAY_MS, num_events=settings.num_events,
        )
        for seed in settings.seeds()
    ]
    pools = cache.grid(("baseline", *schedulers), {TABLE3_BATCH: sequences})

    baseline = pools[(TABLE3_BATCH, "baseline")]
    seen = {result.name for result in baseline}
    missing = set(BENCHMARK_NAMES) - seen
    if missing:
        raise ExperimentError(
            f"stimuli never selected benchmarks {sorted(missing)}; "
            "increase REPRO_SEQUENCES or REPRO_EVENTS"
        )

    execution: Dict[str, List[float]] = {}
    samples: Dict[str, int] = {}
    for result in baseline:
        execution.setdefault(result.name, []).append(result.execution_ms)
    execution_s = {
        name: sum(values) / len(values) / 1000.0
        for name, values in execution.items()
    }
    for name, values in execution.items():
        samples[name] = len(values)

    response: Dict[Tuple[str, str], float] = {}
    for scheduler in schedulers:
        results = pools[(TABLE3_BATCH, scheduler)]
        for name, mean in _mean_by_benchmark(results).items():
            response[(scheduler, name)] = mean
    return Table3Result(
        schedulers=tuple(schedulers),
        execution_s=execution_s,
        response_s=response,
        samples=samples,
    )


def format_result(result: Table3Result) -> str:
    """Table 3 as text."""
    headers = ["benchmark", "exec base (s)"] + [
        f"{s} resp (s)" for s in result.schedulers
    ]
    rows: List[List[object]] = []
    for name in BENCHMARK_NAMES:
        row: List[object] = [name, result.execution_s[name]]
        row.extend(
            result.response(scheduler, name)
            for scheduler in result.schedulers
        )
        rows.append(row)
    title = (
        f"Table 3: benchmark latencies and response times "
        f"(batch {TABLE3_BATCH}, {TABLE3_DELAY_MS:.0f} ms delay)"
    )
    return f"{title}\n{format_table(headers, rows)}"
