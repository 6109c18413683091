"""Table 2: benchmark sizes (tasks and edges per application).

Regenerated from the application catalog; the counts must match the paper
exactly since the graphs are structural reproductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.apps.catalog import BENCHMARK_NAMES, get_benchmark
from repro.experiments.runner import format_table

#: The paper's Table 2, for verification: name -> (tasks, edges).
PAPER_TABLE2: Dict[str, Tuple[int, int]] = {
    "lenet": (3, 2),
    "alexnet": (38, 184),
    "imgc": (6, 5),
    "of": (9, 8),
    "3dr": (3, 2),
    "dr": (3, 2),
}


@dataclass(frozen=True)
class Table2Result:
    """Measured benchmark shapes alongside the paper's numbers."""

    rows: Tuple[Tuple[str, int, int, int, int], ...]

    @property
    def all_match(self) -> bool:
        """True if every benchmark matches the paper exactly."""
        return all(
            tasks == paper_tasks and edges == paper_edges
            for _, tasks, edges, paper_tasks, paper_edges in self.rows
        )


def run(settings=None, cache=None) -> Table2Result:
    """Measure every catalog benchmark's task/edge counts.

    Uniform experiment signature; a static study, so ``settings``
    and ``cache`` are ignored.
    """
    rows = []
    for name in BENCHMARK_NAMES:
        app = get_benchmark(name)
        paper_tasks, paper_edges = PAPER_TABLE2[name]
        rows.append(
            (name, app.num_tasks, app.num_edges, paper_tasks, paper_edges)
        )
    return Table2Result(rows=tuple(rows))


def format_result(result: Table2Result) -> str:
    """Table 2 as text."""
    headers = ["benchmark", "tasks", "edges", "paper tasks", "paper edges"]
    rows: List[List[object]] = [list(row) for row in result.rows]
    title = "Table 2: benchmark sizes"
    return (
        f"{title}\n{format_table(headers, rows)}\n"
        f"all match paper: {result.all_match}"
    )
