"""Figure 4: the AlexNet task graph (structure summary + DOT source).

Prints the per-stage layer table (width and per-task latency — identical
tasks per stage, matching Figure 4's coloring) and the Graphviz source
that renders the figure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.apps.catalog import get_benchmark
from repro.experiments.runner import format_table
from repro.taskgraph.dot import stage_summary, to_dot
from repro.taskgraph.graph import TaskGraph


@dataclass(frozen=True)
class Fig4Result:
    """AlexNet graph structure plus renderable DOT source."""

    graph: TaskGraph
    stages: Tuple[dict, ...]
    dot_source: str

    @property
    def num_tasks(self) -> int:
        """38 in the paper."""
        return self.graph.num_tasks

    @property
    def num_edges(self) -> int:
        """184 in the paper."""
        return self.graph.num_edges


def run(
    settings=None,
    cache=None,
    *,
    benchmark: str = "alexnet",
) -> Fig4Result:
    """Summarize one benchmark's task graph (AlexNet by default).

    Uniform experiment signature; a structural study, so ``settings``
    and ``cache`` are ignored.
    """
    graph = get_benchmark(benchmark).graph
    return Fig4Result(
        graph=graph,
        stages=tuple(stage_summary(graph)),
        dot_source=to_dot(graph),
    )


def format_result(result: Fig4Result) -> str:
    """Figure 4 as a stage table plus DOT (render with `dot -Tpng`)."""
    headers = ["stage", "width", "task latency (ms)"]
    rows: List[List[object]] = [
        [s["stage"], s["width"], s["latency_ms"]] for s in result.stages
    ]
    title = (
        f"Figure 4: {result.graph.name} task graph — "
        f"{result.num_tasks} tasks, {result.num_edges} edges"
    )
    return (
        f"{title}\n{format_table(headers, rows)}\n\n"
        "Graphviz source (pipe into `dot -Tpng -o fig4.png`):\n"
        f"{result.dot_source}"
    )
