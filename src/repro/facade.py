"""One-call simulation facade over the hypervisor stack.

:func:`simulate` wires together the pieces a library consumer otherwise
assembles by hand — scheduler construction, workload generation, fault
injection and (optionally) the :mod:`repro.observe` instrumentation —
and returns a :class:`SimulationRun` bundling the finished hypervisor,
its per-application results and the attached observer.

>>> from repro import simulate
>>> run = simulate("nimblock", scenario="stress", seed=1, num_events=5)
>>> len(run.results) > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.config import SystemConfig
from repro.errors import ExperimentError
from repro.faults.models import FaultConfig
from repro.hypervisor.results import AppResult
from repro.workload.events import EventSequence


@dataclass(frozen=True)
class SimulationRun:
    """One finished simulation: hypervisor, results and observer."""

    hypervisor: object
    results: Tuple[AppResult, ...]
    observer: Optional[object] = None

    @property
    def trace(self):
        """The run's full :class:`~repro.sim.trace.Trace` event stream."""
        return self.hypervisor.trace

    def spans(self) -> List[object]:
        """The trace folded into :class:`~repro.observe.spans.Span` rows."""
        from repro.observe.spans import build_spans

        return build_spans(self.trace)

    def metrics(self) -> Optional[dict]:
        """The observer's metrics snapshot, or ``None`` if unobserved."""
        if self.observer is None:
            return None
        return self.observer.snapshot()


def simulate(
    scheduler: str = "nimblock",
    *,
    scenario: str = "stress",
    seed: int = 1,
    num_events: Optional[int] = None,
    sequence: Optional[EventSequence] = None,
    config: Optional[SystemConfig] = None,
    faults: Optional[FaultConfig] = None,
    observe: bool = False,
    mode: str = "full",
) -> SimulationRun:
    """Run one workload under one scheduler and return everything.

    ``sequence`` overrides the (``scenario``, ``seed``, ``num_events``)
    workload generation; ``faults`` attaches a seeded fault injector;
    ``observe=True`` attaches :class:`~repro.observe.Instrumentation`
    (never changing simulation behaviour — traces stay byte-identical).
    ``mode="metrics"`` skips trace rows entirely: counters and observer
    metrics stay exact, while row-reading accessors (``run.trace.events``,
    ``run.spans()``) raise :class:`~repro.errors.ExperimentError`, as
    does a run that fails to drain.
    """
    from repro.experiments.runner import ExperimentSettings, run_closed
    from repro.workload.scenarios import SCENARIOS, scenario_sequence

    if sequence is None:
        match = [s for s in SCENARIOS if s.name == scenario]
        if not match:
            raise ExperimentError(
                f"unknown scenario {scenario!r}; known: "
                f"{', '.join(sorted(s.name for s in SCENARIOS))}"
            )
        if num_events is None:
            num_events = ExperimentSettings.from_env().num_events
        sequence = scenario_sequence(match[0], seed, num_events)

    observer = None
    if observe:
        from repro.observe.instrument import Instrumentation

        observer = Instrumentation()

    hypervisor = run_closed(
        scheduler, sequence.to_requests(), label=sequence.label,
        config=config, faults=faults, observer=observer, mode=mode,
    )
    if observer is not None:
        observer.finalize(hypervisor)
    return SimulationRun(
        hypervisor=hypervisor,
        results=tuple(hypervisor.results()),
        observer=observer,
    )


def serve(
    scheduler: str = "nimblock",
    *,
    rate: float = 2.0,
    burstiness: float = 0.0,
    seed: int = 1,
    submissions: int = 5_000,
    window_ms: float = 30_000.0,
    admission: str = "shed",
    config: Optional[SystemConfig] = None,
    snapshot_every_windows: Optional[int] = None,
    watchdog: bool = True,
    mode: str = "full",
):
    """Run one open-loop online service and return its report.

    The service counterpart of :func:`simulate`: seeded Poisson (or, with
    ``burstiness > 0``, MMPP) arrivals at ``rate`` per second drive a
    :class:`~repro.service.loop.ServiceLoop` for ``submissions``
    arrivals under ``admission`` control, with memory O(1) in the
    submission count. Returns the
    :class:`~repro.service.loop.ServiceReport` (streaming windowed
    metrics, lifetime counters, any quiescent-boundary snapshots).
    ``mode`` is validated and ignored: every service run stores no
    trace rows, so the payload is byte-identical either way.

    >>> from repro import serve
    >>> report = serve("nimblock", rate=1.0, submissions=50)
    >>> report.completed + report.shed + report.dropped == report.arrived
    True
    """
    from repro.service.loop import ServiceLoop
    from repro.workload.arrivals import service_rate_process

    arrivals = service_rate_process(rate, seed=seed, burstiness=burstiness)
    loop = ServiceLoop(
        arrivals,
        scheduler=scheduler,
        admission=admission,
        seed=seed,
        max_submissions=submissions,
        window_ms=window_ms,
        config=config,
        snapshot_every_windows=snapshot_every_windows,
        watchdog=watchdog,
        mode=mode,
    )
    return loop.run()


def _post_apply_summary(payload: dict, slo, apply_window: int) -> dict:
    """SLO attainment over the windows after a remediation apply.

    Counts every *active* window (arrivals or completions) past the
    apply boundary: an unprotected baseline keeps failing its backlog
    drain there, which arrival-only accounting would hide.
    """
    from repro.service.windows import WindowedMetrics

    windows = [
        w for w in WindowedMetrics.from_dict(payload["windows"]).windows
        if w.index > apply_window and (w.arrived > 0 or w.completed > 0)
    ]
    met = sum(1 for w in windows if slo.met(w.p(99.0), w.loss_frac))
    return {
        "windows": len(windows),
        "met": met,
        "attainment": (met / len(windows)) if windows else 1.0,
    }


def tune(
    scheduler: str = "nimblock",
    *,
    admission: str = "unbounded",
    rate: float = 2.0,
    burst_multiplier: float = 4.0,
    calm_s: float = 60.0,
    burst_s: float = 120.0,
    recover_s: float = 240.0,
    seed: int = 1,
    submissions: int = 600,
    window_ms: float = 10_000.0,
    jobs: Optional[int] = None,
    autotune=None,
) -> dict:
    """The closed-loop remediation drill: static baseline vs autotuned.

    Runs the same seeded overload episode — ``calm_s`` seconds at
    ``rate``/s, then ``burst_s`` seconds at ``rate * burst_multiplier``,
    then ``recover_s`` seconds back at ``rate`` — through two
    :class:`~repro.service.loop.ServiceLoop` runs that differ only in
    whether the :mod:`repro.autotune` pipeline is armed. Both runs fan
    out through :func:`~repro.experiments.parallel.run_cells`, so the
    returned payload is byte-identical at any ``jobs`` count.

    Returns a JSON-safe dict: the episode parameters, the SLO, a
    ``baseline`` and a ``tuned`` summary (attainment / p99 / loss, plus
    the tuned run's decision log), and a sha256 ``digest`` over the
    whole canonical payload — the surface the ``determinism`` CI job's
    ``tune`` entry pins.
    """
    import hashlib
    import json

    from repro.autotune import AutotuneConfig
    from repro.experiments.parallel import ServiceCell, run_cells
    from repro.service import summarize_report

    if autotune is None:
        autotune = AutotuneConfig()
    slo = autotune.slo
    phases = (
        (calm_s, rate),
        (burst_s, rate * burst_multiplier),
        (recover_s, rate),
    )
    arrivals = ("episode", (("phases", phases),))
    baseline_payload, tuned_payload = run_cells(
        [
            ServiceCell(
                scheduler, admission, seed, submissions, window_ms,
                arrivals=arrivals, autotune=armed,
            )
            for armed in (None, autotune)
        ],
        jobs=jobs,
    )
    payload = {
        "scheduler": scheduler,
        "admission": admission,
        "seed": seed,
        "submissions": submissions,
        "window_ms": window_ms,
        "arrivals": baseline_payload["arrivals"],
        "episode": {
            "rate_per_s": rate,
            "burst_multiplier": burst_multiplier,
            "calm_s": calm_s,
            "burst_s": burst_s,
            "recover_s": recover_s,
        },
        "slo": {"p99_ms": slo.p99_ms, "max_loss_frac": slo.max_loss_frac},
        "baseline": summarize_report(baseline_payload, slo),
        "tuned": summarize_report(tuned_payload, slo),
    }
    applied = [
        d["window"] for d in payload["tuned"].get("decisions", ())
        if d.get("applied")
    ]
    if applied:
        apply_window = min(applied)
        payload["post_apply"] = {
            "window": apply_window,
            "baseline": _post_apply_summary(
                baseline_payload, slo, apply_window
            ),
            "tuned": _post_apply_summary(tuned_payload, slo, apply_window),
        }
    blob = json.dumps(payload, sort_keys=True)
    payload["digest"] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    return payload


def format_tune(payload: dict) -> str:
    """A :func:`tune` payload as the ``repro tune`` drill's text: the
    baseline-vs-tuned table, the tuned run's decision log and the
    payload digest."""
    from repro.experiments.runner import format_table

    headers = ["run", "attainment", "p99 (ms)", "loss", "completed",
               "shed", "dropped", "applies"]
    rows: List[List[object]] = []
    for name in ("baseline", "tuned"):
        summary = payload[name]
        rows.append([
            name,
            f"{summary['attainment']:.3f}",
            f"{summary['p99_ms']:.1f}",
            f"{summary['loss_frac']:.3f}",
            summary["completed"],
            summary["shed"],
            summary["dropped"],
            summary.get("applies", 0),
        ])
    title = (
        f"Closed-loop remediation drill: scheduler={payload['scheduler']}, "
        f"admission={payload['admission']}, {payload['arrivals']}, "
        f"seed={payload['seed']}"
    )
    lines = [title, format_table(headers, rows)]
    for decision in payload["tuned"].get("decisions", ()):
        applied = decision.get("applied")
        symptoms = ",".join(
            s["kind"] for s in decision.get("symptoms", ())
        ) or "none"
        lines.append(
            f"  window {decision.get('window')}: symptoms=[{symptoms}] "
            + (
                f"applied {applied}"
                if applied else
                f"no patch ({decision.get('skipped') or 'no winner'})"
            )
        )
    post = payload.get("post_apply")
    if post:
        lines.append(
            f"  post-apply (window > {post['window']}): baseline "
            f"{post['baseline']['met']}/{post['baseline']['windows']} "
            f"windows met SLO, tuned "
            f"{post['tuned']['met']}/{post['tuned']['windows']}"
        )
    lines.append(f"payload sha256: {payload['digest']}")
    return "\n".join(lines)


def fleet(
    num_boards: int = 4,
    *,
    placement: str = "least_loaded",
    scheduler: str = "nimblock",
    admission: Optional[str] = None,
    mix: Optional[Tuple[str, ...]] = None,
    seed: int = 1,
    num_events: Optional[int] = None,
    rate_multiplier: float = 4.0,
    fault_rate: float = 0.0,
    fault_scenario: str = "mixed",
    config: Optional[SystemConfig] = None,
    jobs: Optional[int] = None,
    sequence: Optional[EventSequence] = None,
    mode: str = "full",
    replay: bool = True,
    autotune=None,
):
    """Run one multi-board fleet under the burst workload; the report.

    The fleet counterpart of :func:`simulate`: builds a
    :class:`~repro.cluster.Cluster` over ``num_boards`` boards (rotating
    the heterogeneous default mix unless ``mix`` is given), admits and
    places the ext-overload burst stream, simulates every board (sharded
    over ``jobs`` worker processes — any value is byte-identical) and
    returns the merged :class:`~repro.cluster.ClusterReport`.
    ``autotune`` (an :class:`~repro.autotune.AutotuneConfig`) arms the
    per-board closed-loop remediation pipeline.

    >>> from repro import fleet
    >>> report = fleet(2, num_events=6, jobs=1)
    >>> report.retired
    6
    """
    from repro.cluster import Cluster, fleet_profiles
    from repro.cluster.profiles import DEFAULT_FLEET_MIX
    from repro.experiments.ext_overload import (
        OVERLOAD_WORKLOAD,
        study_sequence,
    )
    from repro.experiments.runner import ExperimentSettings
    from repro.workload.scenarios import chaos_scenario

    profiles = fleet_profiles(
        num_boards, DEFAULT_FLEET_MIX if mix is None else mix
    )
    faults = None
    if fault_rate > 0.0:
        faults = chaos_scenario(fault_scenario).fault_config(
            fault_rate, seed=seed
        )
    if sequence is None:
        if num_events is None:
            num_events = (
                ExperimentSettings.from_env().num_events * num_boards
            )
        sequence = study_sequence(
            OVERLOAD_WORKLOAD, seed, num_events, rate_multiplier
        )
    fleet = Cluster(
        profiles,
        placement=placement,
        scheduler=scheduler,
        config=config,
        admission=admission,
        faults=faults,
        seed=seed,
    )
    fleet.submit_sequence(sequence)
    return fleet.run(jobs=jobs, mode=mode, replay=replay, autotune=autotune)
