"""Scheduler-overhead comparison (paper §1/§6 motivation).

The paper argues that low-overhead heuristic scheduling must exist
"without solving expensive ILP problems" on the critical path. This
experiment measures (a) the wall-clock cost of a single Nimblock decision
pass under a loaded pending queue and (b) the cost of an exact
branch-and-bound schedule solve for a modest instance, demonstrating the
gap that motivates the heuristic design.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from repro.apps.catalog import get_benchmark
from repro.config import SystemConfig
from repro.hypervisor.application import AppRequest
from repro.hypervisor.hypervisor import Hypervisor
from repro.ilp.model import ScheduleProblem
from repro.ilp.solver import BranchAndBoundSolver
from repro.schedulers.registry import make_scheduler


@dataclass(frozen=True)
class OverheadResult:
    """Measured decision costs (seconds per decision/solve)."""

    nimblock_decision_s: float
    exact_solve_s: float
    solver_nodes: int

    @property
    def speedup(self) -> float:
        """How much cheaper one heuristic decision is than one exact solve."""
        if self.nimblock_decision_s <= 0:
            return float("inf")
        return self.exact_solve_s / self.nimblock_decision_s


def _loaded_hypervisor(num_apps: int) -> Hypervisor:
    """A hypervisor with ``num_apps`` pending applications, mid-flight."""
    # Not run_closed: this run stops at a time horizon, not at drain.
    hypervisor = Hypervisor(make_scheduler("nimblock"))
    names = ["lenet", "imgc", "of", "3dr", "alexnet"]
    for index in range(num_apps):
        app = get_benchmark(names[index % len(names)])
        hypervisor.submit(
            AppRequest(
                name=app.name,
                graph=app.graph,
                batch_size=5,
                priority=(1, 3, 9)[index % 3],
                arrival_ms=float(index * 10),
            )
        )
    # Advance far enough that everything arrived and the board is busy.
    hypervisor.run(until=float(num_apps * 10 + 500))
    return hypervisor


def measure_decision_cost(
    num_apps: int = 12, iterations: int = 200
) -> float:
    """Mean wall-clock seconds per Nimblock decision pass."""
    hypervisor = _loaded_hypervisor(num_apps)
    ctx = hypervisor._ctx
    policy = hypervisor.scheduler
    start = time.perf_counter()
    for _ in range(iterations):
        policy.decide(ctx)
    return (time.perf_counter() - start) / iterations


def measure_exact_solve_cost(
    benchmark: str = "of", batch_size: int = 5, num_slots: int = 3
) -> tuple:
    """(seconds, nodes) of an exact branch-and-bound solve."""
    app = get_benchmark(benchmark)
    problem = ScheduleProblem(
        graph=app.graph,
        batch_size=batch_size,
        num_slots=num_slots,
        reconfig_ms=SystemConfig().reconfig_ms,
    )
    solver = BranchAndBoundSolver(problem)
    start = time.perf_counter()
    result = solver.solve()
    return time.perf_counter() - start, result.nodes_visited


def run(
    settings=None,
    cache=None,
    *,
    num_apps: int = 12,
    iterations: int = 200,
) -> OverheadResult:
    """Measure both costs and report the gap.

    Uniform experiment signature; the micro-benchmark ignores
    ``settings`` and ``cache``.
    """
    decision = measure_decision_cost(num_apps, iterations)
    solve_s, nodes = measure_exact_solve_cost()
    return OverheadResult(
        nimblock_decision_s=decision,
        exact_solve_s=solve_s,
        solver_nodes=nodes,
    )


def format_result(result: OverheadResult) -> str:
    """Overhead comparison as text."""
    return (
        "Scheduler overhead comparison\n"
        f"  Nimblock decision pass: {result.nimblock_decision_s * 1e6:10.1f} us\n"
        f"  Exact schedule solve:   {result.exact_solve_s * 1e6:10.1f} us "
        f"({result.solver_nodes} nodes)\n"
        f"  Heuristic advantage:    {result.speedup:10.1f}x"
    )
