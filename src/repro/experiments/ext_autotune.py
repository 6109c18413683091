"""Closed-loop remediation study: static policies vs the autotuner (ext).

Every other robustness harness fixes its admission/watchdog policy up
front and measures what happens under stress. Production FPGA services
do the opposite: they watch their own SLO and *change configuration
mid-run*. This extension drives the same seeded overload episode — a
calm phase, a burst at several times the sustainable rate, and a long
recovery — through three service runs:

* **static unbounded** — no protection: the burst builds unbounded
  backlog and the tail never recovers inside the episode;
* **static shed** — the hand-picked load-shedding policy the overload
  study recommends, as the oracle an operator could have configured;
* **autotuned** — starts exactly like static unbounded but with the
  :mod:`repro.autotune` pipeline armed: the detector sees the breach,
  the proposer offers patches, the verifier replays the captured
  episode under each, and the winner is applied at a window boundary.

The interesting comparison is the last row against the first two: the
closed loop should recover most of the gap between the unprotected
baseline and the oracle, and the decision log shows *when* and *why*
each patch landed. Determinism matches the service tier: each cell is a
pure function of its seed, byte-identical at any ``--jobs``.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.experiments.parallel import ServiceCell, resolve_jobs, run_cells
from repro.experiments.runner import ExperimentSettings
from repro.metrics.slo import DEFAULT_SERVICE_SLO, SloTarget

#: The three configurations compared: (row label, admission policy,
#: arm-the-autotuner flag).
AUTOTUNE_ROWS: Tuple[Tuple[str, str, bool], ...] = (
    ("static-unbounded", "unbounded", False),
    ("static-shed", "shed", False),
    ("autotuned", "unbounded", True),
)

#: The overload episode, as (duration_s, rate_per_s) phases of an
#: ``episode`` arrival process: calm, 4x burst, recovery.
EPISODE_RATE_PER_S = 1.0
EPISODE_BURST_MULTIPLIER = 4.0
EPISODE_PHASES: Tuple[Tuple[float, float], ...] = (
    (60.0, EPISODE_RATE_PER_S),
    (120.0, EPISODE_RATE_PER_S * EPISODE_BURST_MULTIPLIER),
    (240.0, EPISODE_RATE_PER_S),
)

#: Tumbling-window width of the study's runs (ms).
AUTOTUNE_WINDOW_MS = 10_000.0

#: Scheduler under test (the paper's headline policy).
AUTOTUNE_SCHEDULER = "nimblock"


def _submissions(settings: ExperimentSettings) -> int:
    """Arrivals per cell: enough to cover the whole episode."""
    return max(120, settings.num_sequences * settings.num_events)


def _evaluate_cell(payload: dict, slo: SloTarget) -> dict:
    """The ``tune`` drill's summary of one payload, plus the study's keys
    (static rows carry no autotune log, so theirs read as empty)."""
    from repro.facade import _service_summary

    return {
        **_service_summary(payload, slo),
        "admission": payload["admission"],
        "applies": payload.get("applies", 0),
        "decisions": payload.get("decisions", []),
    }


def run(
    settings: Optional[ExperimentSettings] = None,
    cache=None,
    *,
    jobs: Optional[int] = None,
    mode: str = "full",
    rows: Sequence[Tuple[str, str, bool]] = AUTOTUNE_ROWS,
    phases: Sequence[Tuple[float, float]] = EPISODE_PHASES,
    submissions: Optional[int] = None,
    window_ms: float = AUTOTUNE_WINDOW_MS,
    slo: Optional[SloTarget] = None,
) -> dict:
    """Run the episode under each configuration; compare SLO outcomes.

    ``cache`` contributes only its fan-out width: the run cache keys
    closed sequences, and open-loop service runs must never be satisfied
    from it. ``mode`` keeps the registry's uniform signature; service
    runs store no trace rows, so it selects nothing. Every row faces the
    *identical* seeded arrival stream, so outcome differences are pure
    policy (or remediation) effects.
    """
    from repro.autotune import AutotuneConfig

    settings = settings or ExperimentSettings.from_env()
    slo = slo or DEFAULT_SERVICE_SLO
    per_cell = submissions if submissions is not None else _submissions(
        settings
    )
    seed = settings.base_seed
    arrival_spec = ("episode", (("phases", tuple(phases)),))
    autotune = AutotuneConfig().with_slo(slo)
    payloads = run_cells(
        [
            ServiceCell(
                AUTOTUNE_SCHEDULER, policy, seed, per_cell, window_ms,
                arrivals=arrival_spec, autotune=autotune if armed else None,
            )
            for _, policy, armed in rows
        ],
        jobs=resolve_jobs(jobs, cache),
    )

    cells: Dict[str, dict] = {}
    for (label, _, _), payload in zip(rows, payloads):
        cells[label] = _evaluate_cell(payload, slo)
    return {
        "scheduler": AUTOTUNE_SCHEDULER,
        "rows": [label for label, _, _ in rows],
        "phases": [list(phase) for phase in phases],
        "submissions": per_cell,
        "window_ms": window_ms,
        "seed": seed,
        "slo": {"p99_ms": slo.p99_ms, "max_loss_frac": slo.max_loss_frac},
        "cells": cells,
    }


def format_result(result: dict) -> str:
    """Render the three-row comparison plus the tuned decision log."""
    slo = SloTarget(
        p99_ms=result["slo"]["p99_ms"],
        max_loss_frac=result["slo"]["max_loss_frac"],
    )
    phase_text = " -> ".join(
        f"{duration:g}s@{rate:g}/s" for duration, rate in result["phases"]
    )
    lines = [
        "Closed-loop remediation: static policies vs the autotuner "
        f"({slo.describe()})",
        f"episode: {phase_text}, {result['submissions']} submissions, "
        f"scheduler={result['scheduler']}, seed={result['seed']}",
        "",
        f"{'configuration':<18}{'attain':>8}{'p99 ms':>10}{'loss':>8}"
        f"{'shed':>7}{'drop':>7}{'applies':>9}",
    ]
    for label in result["rows"]:
        cell = result["cells"][label]
        p99 = cell["p99_ms"]
        lines.append(
            f"{label:<18}{cell['attainment']:>8.3f}"
            + (f"{p99:>10.0f}" if p99 == p99 else f"{'-':>10}")
            + f"{cell['loss_frac']:>8.3f}{cell['shed']:>7}"
            f"{cell['dropped']:>7}{cell['applies']:>9}"
        )
    for label in result["rows"]:
        for decision in result["cells"][label]["decisions"]:
            symptoms = ",".join(
                s["kind"] for s in decision.get("symptoms", ())
            ) or "none"
            applied = decision.get("applied")
            lines.append(
                f"  {label} window {decision.get('window')}: "
                f"symptoms=[{symptoms}] "
                + (
                    f"applied {applied}" if applied
                    else f"no patch ({decision.get('skipped') or 'no winner'})"
                )
            )
    return "\n".join(lines)
