"""Per-board remediation for cluster shards: detect → verify → re-run.

The cluster tier simulates each board inside one worker process, so the
closed loop runs *offline per board*: the finished baseline run is
distilled into window signals and counter deltas, the shared detector
and proposer produce candidates, the verifier replays the board's whole
placed workload under each candidate (on the board's own
:class:`~repro.cluster.profiles.BoardProfile` system config), and —
when a candidate strictly beats the baseline — the board is **re-run
under the patched configuration and the patched payload is adopted**,
carrying the decision record under the payload's ``"autotune"`` key.

Unlike the in-run :class:`~repro.autotune.engine.Autotuner`, the apply
here is a whole-board re-run, so scheduler swaps need no empty-board
gating. Fault-injected boards are skipped (the remediation contract is
about load symptoms, and a verifier replay without the fault stream
would score a different world); their payloads still carry a decision
record saying so.

Everything stays a pure function of the board task, so ``--jobs N``
fleet byte-identity holds with the loop armed — and boards without an
armed config never import this module (zero-cost discipline).
"""

from __future__ import annotations

from typing import Optional

from repro.autotune.engine import AutotuneConfig
from repro.autotune.proposals import TunableConfig, propose
from repro.autotune.symptoms import CounterDeltas, WindowSignal, detect
from repro.autotune.verifier import score_episode, verify_candidates
from repro.service.windows import DEFAULT_WINDOW_MS

__all__ = ["remediate_board"]


def remediate_board(
    config: AutotuneConfig,
    payload: dict,
    hypervisor,
    *,
    profile,
    scheduler_name: str,
    base_config,
    specs,
    fault_config,
    admission_policy: Optional[str],
    seed: int,
    mode: str,
    window_ms: float = DEFAULT_WINDOW_MS,
) -> dict:
    """One board's closed-loop pass; returns the payload to merge."""
    from repro.cluster.shard import _board_run

    tuning = TunableConfig.capture(
        scheduler_name,
        admission_policy or "unbounded",
        {},
        hypervisor.watchdog,
    )
    decision: dict = {
        "board": payload["board"],
        "window_ms": window_ms,
        "tuning_before": tuning.to_dict(),
        "tuning_after": tuning.to_dict(),
        "symptoms": [],
        "baseline": None,
        "candidates": [],
        "applied": None,
        "digest": None,
    }
    if fault_config is not None and fault_config.enabled:
        decision["skipped"] = "fault-injected-board"
        payload["autotune"] = decision
        return payload

    results = hypervisor.results()
    shed_arrivals = [app.arrival_ms for app in hypervisor.shed]
    controller = hypervisor.admission
    stats = controller.stats if controller is not None else None
    dropped = stats.dropped if stats is not None else 0
    base_score = score_episode(
        specs, results, shed_arrivals, dropped,
        window_ms=window_ms, slo=config.slo,
        span_ms=hypervisor.engine.now,
    )
    signals = [
        WindowSignal(
            index=index, arrived=arrived, completed=completed,
            shed=lost, p99_ms=p99,
        )
        for index, arrived, completed, lost, p99, _met
        in base_score.windows
    ]
    # A finished run ends in drain windows with no arrivals, which would
    # cut every trailing-run rule short; detect on the windows up to the
    # last one with arrivals.
    while signals and signals[-1].arrived == 0:
        signals.pop()
    watchdog = hypervisor.watchdog
    counters = CounterDeltas(
        overload_enters=stats.overload_enters if stats is not None else 0,
        overload_ms=(
            controller.overload_total_ms(hypervisor.engine.now)
            if controller is not None else 0.0
        ),
        starvations=getattr(watchdog, "starvations_detected", 0),
        stalls=getattr(watchdog, "stalls_detected", 0),
        energy_j=payload["energy_j"],
        span_ms=hypervisor.engine.now,
        power_cap_w=profile.power_cap_w,
    )
    symptoms = detect(signals, counters, config.detector)
    decision["symptoms"] = [s.to_dict() for s in symptoms]
    if not symptoms or len(specs) < config.min_episode_arrivals:
        payload["autotune"] = decision
        return payload

    candidates = propose(symptoms, tuning)
    if not candidates:
        decision["skipped"] = "no-candidates"
        payload["autotune"] = decision
        return payload
    baseline, verifications, winner = verify_candidates(
        specs, tuning, candidates,
        seed=seed, window_ms=window_ms, slo=config.slo,
        config=profile.system_config(base_config),
        invariants=config.verify_invariants,
    )
    decision["baseline"] = baseline.to_dict()
    decision["candidates"] = [v.to_dict() for v in verifications]
    if winner is None:
        payload["autotune"] = decision
        return payload

    patched = winner.patch.apply(tuning)
    decision["applied"] = winner.patch.patch_id
    decision["tuning_after"] = patched.to_dict()
    decision["digest"] = winner.score.digest()
    # Adopt the patched world: re-run the whole board exactly as the
    # verifier scored it (replay cache off — a one-off run gains
    # nothing, and byte-identity does not depend on it).
    patched_payload, _ = _board_run(
        payload["board"], profile, patched.scheduler, base_config, specs,
        None, patched.admission_policy(), seed, mode, False,
        patched.watchdog_config(),
    )
    patched_payload["autotune"] = decision
    return patched_payload
