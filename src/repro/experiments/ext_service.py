"""Service capacity study: max sustained open-loop rate within SLO (ext).

The paper's evaluation (and every closed experiment here) replays finite
bursts; a shared-FPGA *service* faces sustained open-loop load, where
the production question is the one THEMIS-style multi-tenant schedulers
are judged by: **what arrival rate can each scheduler sustain within
SLO?** This extension sweeps seeded Poisson arrival rates through the
:class:`~repro.service.loop.ServiceLoop` for every scheduler and
admission policy, evaluates each run against a two-dimensional
:class:`~repro.metrics.slo.SloTarget` (p99 response *and* loss
fraction), and reports the capacity curve — the highest swept rate such
that every rate up to it met the SLO (a sustained prefix, so one lucky
cell above a failure cannot inflate the figure).

Expectations mirror the closed-run overload study: the no-sharing
baseline saturates first; admission control (shed) trades loss for tail
latency, which under the two-dimensional SLO only raises capacity where
shedding stays inside the loss budget.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.parallel import ServiceCell, run_cells
from repro.experiments.runner import ExperimentSettings, RunCache
from repro.metrics.slo import DEFAULT_SERVICE_SLO, SloTarget
from repro.service import summarize_report

#: The nine schedulers of the capacity curve: the paper's five, the two
#: pipelining/preemption ablations, and the two extension policies.
CAPACITY_SCHEDULERS: Tuple[str, ...] = (
    "baseline",
    "fcfs",
    "prema",
    "rr",
    "nimblock",
    "nimblock_no_preempt",
    "nimblock_no_pipe",
    "edf",
    "dml_static",
)

#: Admission policies compared (unprotected vs load shedding).
CAPACITY_POLICIES: Tuple[str, ...] = ("unbounded", "shed")

#: Arrival rates swept (events/s). The ten-slot board with the service
#: benchmark pool saturates between 1 and 2 apps/s, so the grid brackets
#: the knee with a trivially-sustainable floor and a hopeless ceiling.
CAPACITY_RATES: Tuple[float, ...] = (0.25, 0.5, 1.0, 2.0, 4.0)

#: Tumbling-window width of the capacity runs (ms).
CAPACITY_WINDOW_MS = 20_000.0


def _submissions(settings: ExperimentSettings) -> int:
    """Arrivals per cell, scaled like the closed sweeps scale events."""
    return max(12, settings.num_sequences * settings.num_events // 2)


def _evaluate_cell(payload: dict, slo: SloTarget) -> dict:
    """The service summary of one payload, plus the study's keys."""
    summary = summarize_report(payload, slo)
    return {
        **summary,
        "scheduler": payload["scheduler"],
        "admission": payload["admission"],
        "ok": slo.met(summary["p99_ms"], summary["loss_frac"]),
    }


def run(
    settings: Optional[ExperimentSettings] = None,
    cache: Optional[RunCache] = None,
    *,
    schedulers: Sequence[str] = CAPACITY_SCHEDULERS,
    policies: Sequence[str] = CAPACITY_POLICIES,
    rates: Sequence[float] = CAPACITY_RATES,
    submissions: Optional[int] = None,
    window_ms: float = CAPACITY_WINDOW_MS,
    slo: Optional[SloTarget] = None,
) -> dict:
    """Sweep rate x scheduler x policy service runs; derive capacities.

    ``cache`` contributes only its fan-out width: the run cache keys
    closed sequences, and open-loop service runs must never be satisfied
    from it. Service runs store no trace rows, so ``cache.mode`` selects
    nothing. Each rate uses one seed (derived from
    ``settings.base_seed``), so every scheduler/policy faces the
    *identical* arrival stream at that rate — capacity differences are
    pure scheduling/admission effects.
    """
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    if not rates or list(rates) != sorted(rates):
        raise ExperimentError(
            f"rates must be a non-empty ascending sweep, got {rates!r}"
        )
    slo = slo or DEFAULT_SERVICE_SLO
    per_cell = submissions if submissions is not None else _submissions(
        settings
    )
    grid = [
        ServiceCell(
            scheduler, policy, settings.base_seed + rate_index, per_cell,
            window_ms, rate=rate,
        )
        for rate_index, rate in enumerate(rates)
        for scheduler in schedulers
        for policy in policies
    ]
    payloads = run_cells(grid, jobs=cache.jobs)

    cells: Dict[str, dict] = {}
    for spec, payload in zip(grid, payloads):
        cell = _evaluate_cell(payload, slo)
        cell["rate_per_s"] = spec.rate
        cells[f"{spec.scheduler}|{spec.admission}|{spec.rate:g}"] = cell

    capacity: Dict[str, Dict[str, float]] = {}
    for scheduler in schedulers:
        capacity[scheduler] = {}
        for policy in policies:
            sustained = 0.0
            for rate in rates:
                if cells[f"{scheduler}|{policy}|{rate:g}"]["ok"]:
                    sustained = rate
                else:
                    break
            capacity[scheduler][policy] = sustained
    return {
        "schedulers": list(schedulers),
        "policies": list(policies),
        "rates": list(rates),
        "submissions": per_cell,
        "window_ms": window_ms,
        "slo": {"p99_ms": slo.p99_ms, "max_loss_frac": slo.max_loss_frac},
        "cells": cells,
        "capacity": capacity,
    }


def format_result(result: dict) -> str:
    """Render the capacity curve plus the per-rate SLO matrix."""
    slo = SloTarget(
        p99_ms=result["slo"]["p99_ms"],
        max_loss_frac=result["slo"]["max_loss_frac"],
    )
    rates = result["rates"]
    policies = result["policies"]
    lines = [
        "Service capacity: max sustained open-loop arrival rate "
        f"within SLO ({slo.describe()})",
        f"{result['submissions']} submissions/cell, rates swept: "
        + ", ".join(f"{rate:g}/s" for rate in rates),
        "",
        f"{'scheduler':<22}" + "".join(
            f"{policy:>12}" for policy in policies
        ),
    ]
    for scheduler in result["schedulers"]:
        row = f"{scheduler:<22}"
        for policy in policies:
            rate = result["capacity"][scheduler][policy]
            row += f"{rate:>10g}/s"
        lines.append(row)
    lines.append("")
    lines.append("per-rate SLO attainment (+ met, - missed; p99 ms shown):")
    for scheduler in result["schedulers"]:
        for policy in policies:
            marks = []
            for rate in rates:
                cell = result["cells"][f"{scheduler}|{policy}|{rate:g}"]
                p99 = cell["p99_ms"]
                p99_text = "-" if p99 != p99 else f"{p99:.0f}"
                marks.append(
                    f"{rate:g}/s{'+' if cell['ok'] else '-'}({p99_text})"
                )
            lines.append(
                f"  {scheduler:<20} {policy:<10} " + " ".join(marks)
            )
    return "\n".join(lines)
