"""Sharded board simulation: the cluster tier's process-level fan-out.

Between placement decisions the boards of a fleet are completely
independent — each runs its own hypervisor over its own placed arrivals.
That makes the *board* the natural sharding axis: the cluster serializes
each board's work into a picklable :class:`BoardTask`, fans the tasks out
over worker processes via :func:`repro.experiments.parallel.fanout`, and
merges the returned payloads in board-index order.

Three properties make ``--jobs N`` byte-identical to serial:

* tasks carry only primitives (board index, profile, scheduler name,
  event specs, fault/admission scalars) — every worker rebuilds its
  hypervisor, fault injector and admission controller from scratch,
  exactly as the serial path does, so the seeded draws are identical;
* each payload's metrics are either integer counters or a
  :class:`~repro.service.sketch.QuantileSketch` dump, both of which
  merge associatively and serialize canonically;
* ``fanout`` gathers results in task order and ``jobs=1`` short-circuits
  through the *same* worker function, keeping one code path.

The per-board trace never crosses the process boundary — only its sha256
digest does, which is also what the golden-pin and
single-board-equals-bare-hypervisor tests compare.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

from repro.cluster.profiles import BoardProfile
from repro.config import SystemConfig
from repro.faults.models import FaultConfig
from repro.sim.trace import Trace
from repro.sim.trace_export import trace_to_dict
from repro.workload.events import EventSpec

if TYPE_CHECKING:
    from repro.admission import AdmissionPolicy, WatchdogConfig
    from repro.autotune.engine import AutotuneConfig


@dataclass(frozen=True)
class BoardTask:
    """One board's simulation input: primitives and frozen dataclasses
    of primitives, hence picklable.

    ``config`` is the fleet-wide base config (the profile induces the
    board's own); ``specs`` are the placed events in arrival order;
    ``admission`` is a policy name, or on the autotune re-run a patched
    policy instance (names cannot carry patched watermarks). A replay-off
    run is byte-identical to a replay-on one (the flag exists for A/B
    verification). An armed ``autotune`` config runs the board-level
    remediation pipeline after the baseline simulation, and the payload
    gains an ``"autotune"`` decision record.
    """

    board: int
    profile: BoardProfile
    scheduler: str
    config: Optional[SystemConfig]
    specs: Tuple[EventSpec, ...]
    faults: Optional[FaultConfig]
    admission: Union[str, "AdmissionPolicy", None]
    seed: int
    watchdog: Optional["WatchdogConfig"]
    mode: str
    replay: bool
    autotune: Optional["AutotuneConfig"]


def derive_board_fault_config(
    faults: Optional[FaultConfig], board_index: int
) -> Optional[FaultConfig]:
    """Per-board fault stream: the fleet seed offset by the board index.

    Boards must draw *independent* fault streams (identical seeds would
    fault every board in lock-step), and the derivation must be a pure
    function of (fleet config, board index) so serial and sharded runs
    reconstruct identical injectors.
    """
    if faults is None or not faults.enabled:
        return None
    from dataclasses import replace

    return replace(faults, seed=faults.seed + 1_000_003 * board_index)


def trace_digest(trace: Trace, label: str = "") -> str:
    """sha256 over the canonical JSON dump of a trace.

    Shared by the board worker, the golden regression pins and the
    single-board-fleet-equals-bare-hypervisor test — all three must hash
    the same bytes for the comparisons to mean anything.
    """
    blob = json.dumps(trace_to_dict(trace, label=label), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def board_label(board_index: int) -> str:
    """The trace label of one board's run."""
    return f"board{board_index}"


def _empty_payload(
    board_index: int, profile: BoardProfile, mode: str = "full"
) -> dict:
    """Payload for a board that was placed no work at all."""
    from repro.service.sketch import QuantileSketch

    return {
        "board": board_index,
        "profile": profile.to_dict(),
        "submitted": 0,
        "retired": 0,
        "shed": 0,
        "dropped": 0,
        "items_done": 0,
        "responses": QuantileSketch().to_dict(),
        "first_arrival_ms": None,
        "last_retire_ms": None,
        "run_busy_ms": 0.0,
        "reconfig_busy_ms": 0.0,
        "energy_j": 0.0,
        "faults": _fault_payload(None),
        "trace_events": 0,
        "trace_digest": (
            trace_digest(Trace(), board_label(board_index))
            if mode == "full" else None
        ),
    }


def _fault_payload(stats) -> dict:
    """FaultStats reduced to a JSON-safe counter dict."""
    if stats is None:
        return {
            "transient": 0, "permanent": 0, "config_failures": 0,
            "repairs": 0, "evictions": 0, "relocations": 0,
            "items_lost": 0, "work_lost_ms": 0.0, "total": 0,
        }
    return {
        "transient": stats.transient_faults,
        "permanent": stats.permanent_faults,
        "config_failures": stats.config_failures,
        "repairs": stats.repairs,
        "evictions": stats.evictions,
        "relocations": stats.relocations,
        "items_lost": stats.items_lost,
        "work_lost_ms": stats.work_lost_ms,
        "total": stats.total_faults,
    }


def simulate_board(task: BoardTask, worlds: Optional[dict] = None) -> dict:
    """Worker: one board's full simulation reduced to its merge payload.

    Top-level (picklable) so :func:`repro.experiments.parallel.fanout`
    can ship it to worker processes. The returned payload contains only
    associatively mergeable state: integer counters, float sums the
    simulation computed deterministically, a quantile-sketch dump, and
    the trace digest.

    ``worlds`` (optional, filled in place) maps a board world to the
    replay segment map its boards share; see :func:`board_cells`.
    """
    if not task.specs:
        return _empty_payload(task.board, task.profile, task.mode)
    payload, hypervisor = _board_run(task, worlds)
    if task.autotune is None:
        return payload
    # Lazily imported, so un-tuned fleets never load the pipeline.
    from repro.autotune.board import remediate_board

    return remediate_board(task, payload, hypervisor)


def _board_run(task: BoardTask, worlds: Optional[dict] = None) -> tuple:
    """One board simulation; returns (payload, hypervisor).

    ``worlds`` is :func:`simulate_board`'s.
    """
    from repro.experiments.runner import run_closed
    from repro.service.sketch import QuantileSketch
    from repro.sim.replay import ReplayCache

    specs, profile = task.specs, task.profile
    hypervisor = run_closed(
        task.scheduler, (spec.to_request() for spec in specs),
        label=f"board {task.board} ({profile.name})",
        config=profile.system_config(task.config), faults=task.faults,
        admission=task.admission, seed=task.seed, watchdog=task.watchdog,
        mode=task.mode,
        # Fault-injected boards never replay (the cache refuses them),
        # so chaos boards stay live automatically. The closed
        # pre-submitted event list makes the engine horizon an exact
        # next-arrival bound, so no arrival hook is needed.
        replay=ReplayCache(worlds=worlds) if task.replay else None,
    )

    results = hypervisor.results()
    sketch = QuantileSketch()
    items_done = 0
    for result in results:
        sketch.add(result.response_ms)
        items_done += result.batch_size
    trace = hypervisor.trace
    first_arrival = min(spec.arrival_ms for spec in specs)
    last_retire = (
        max(result.retire_ms for result in results) if results else None
    )
    span_ms = (last_retire - first_arrival) if results else 0.0
    run_busy = trace.run_busy_ms()
    # Energy model: idle draw over the board's active span plus the
    # per-slot active draw over every busy slot-millisecond.
    energy_j = (
        profile.idle_power_w * span_ms
        + profile.slot_power_w * run_busy
    ) / 1000.0
    admission = hypervisor.admission
    payload = {
        "board": task.board,
        "profile": profile.to_dict(),
        "submitted": len(specs),
        "retired": len(results),
        "shed": len(hypervisor.shed),
        "dropped": 0 if admission is None else admission.stats.dropped,
        "items_done": items_done,
        "responses": sketch.to_dict(),
        "first_arrival_ms": first_arrival,
        "last_retire_ms": last_retire,
        "run_busy_ms": run_busy,
        "reconfig_busy_ms": trace.reconfig_busy_ms(),
        "energy_j": energy_j,
        "faults": _fault_payload(hypervisor.fault_stats),
        "trace_events": len(trace),
        # Digests hash trace rows, which metrics mode never records; the
        # counters above stay exact either way.
        "trace_digest": (
            trace_digest(trace, board_label(task.board))
            if task.mode == "full" else None
        ),
    }
    return payload, hypervisor


def board_cells(
    tasks: Sequence[BoardTask], jobs: Optional[int] = None
) -> List[dict]:
    """Fan board simulations out; payloads in board-task order.

    Boards of one world (same induced config, scheduler, admission and
    watchdog; see :func:`repro.sim.replay._world_key`) share their
    replay segments for this call only, so each request shape is
    recorded once per world per run. Boards with admission are seeded
    per board, so each is a world of its own and records alone. Each
    worker chunk unpickles its own empty copy of the map, which changes
    how often a shape is recorded, never a payload.
    """
    from repro.experiments import parallel

    return parallel.fanout(
        functools.partial(simulate_board, worlds={}), tasks, jobs=jobs
    )
