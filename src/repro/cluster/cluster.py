"""The cluster tier: fleet-level placement above per-board hypervisors.

A :class:`Cluster` owns N boards (heterogeneous
:class:`~repro.cluster.profiles.BoardProfile` instances), gates arrivals
through a fleet-boundary admission policy (reusing
``repro.admission.policies``), places each admitted application whole
onto one board via a :class:`~repro.cluster.placement.PlacementPolicy`,
and only then simulates: every board runs its own hypervisor over its
placed arrivals, independently of every other board.

That independence is the whole trick. ``run(jobs=N)`` shards board
simulation across worker processes with the PR-2 parallel runner and
merges the per-board payloads with associative counters and quantile
sketches, so any ``--jobs`` produces a byte-identical merged snapshot
(pinned by the property suite and the golden digests).

Operational verbs the robustness tests drive:

* :meth:`Cluster.drain` — stop placing onto a board (targeted submits to
  it are rejected with :class:`~repro.errors.ClusterError`);
* :meth:`Cluster.fail_board` — permanent board fault: the board leaves
  the fleet and its queued work fails over through the placement policy;
* :meth:`Cluster.rebalance` — work stealing at the quiescent pre-run
  boundary: the most-loaded board donates its youngest queued
  applications to the least-loaded one until the fleet is balanced
  (a no-op on an already balanced fleet).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.admission.controller import AdmissionStats
from repro.admission.policies import (
    RejectPolicy,
    ShedPolicy,
    make_admission_policy,
)
from repro.admission.watchdog import WatchdogConfig
from repro.apps.catalog import get_benchmark
from repro.apps.hls import application_latency_estimate_ms
from repro.cluster.placement import PlacementPolicy, make_placement
from repro.cluster.profiles import BoardProfile
from repro.cluster.shard import (
    BoardTask,
    board_cells,
    derive_board_fault_config,
)
from repro.config import SystemConfig
from repro.errors import ClusterError
from repro.faults.models import FaultConfig
from repro.service.sketch import QuantileSketch
from repro.workload.events import EventSequence, EventSpec

#: Admission policy names legal at the fleet boundary. ``degrade`` is
#: accepted too but routes to the per-board controllers (degradation is
#: a scheduler-coupled behaviour; the boundary has no scheduler).
FLEET_ADMISSION_POLICIES: Tuple[str, ...] = (
    "unbounded", "reject", "shed", "degrade",
)


@dataclass(frozen=True)
class PlacementDecision:
    """One placement: which board an admitted application joined."""

    sequence: int
    board: int
    policy: str
    benchmark: str
    arrival_ms: float
    estimate_ms: float

    def to_dict(self) -> dict:
        return {
            "sequence": self.sequence,
            "board": self.board,
            "policy": self.policy,
            "benchmark": self.benchmark,
            "arrival_ms": self.arrival_ms,
            "estimate_ms": self.estimate_ms,
        }


class _Board:
    """Mutable placement-time view of one board (implements BoardView)."""

    def __init__(self, index: int, profile: BoardProfile) -> None:
        self.index = index
        self.profile = profile
        self.draining = False
        self.failed = False
        #: Placed work in placement order: (sequence, spec).
        self.placed: List[Tuple[int, EventSpec]] = []
        self.load_ms = 0.0
        self._benchmarks: Dict[str, int] = {}
        #: Virtual completion clock for the fleet admission depth proxy.
        self.virtual_clock_ms = 0.0
        self.virtual_finishes: List[float] = []

    @property
    def eligible(self) -> bool:
        return not (self.draining or self.failed)

    def hosts_benchmark(self, name: str) -> bool:
        return self._benchmarks.get(name, 0) > 0

    def add(self, sequence: int, spec: EventSpec, estimate_ms: float) -> None:
        self.placed.append((sequence, spec))
        self.load_ms += estimate_ms
        self._benchmarks[spec.benchmark] = (
            self._benchmarks.get(spec.benchmark, 0) + 1
        )
        start = max(spec.arrival_ms, self.virtual_clock_ms)
        self.virtual_clock_ms = start + estimate_ms / self.profile.num_slots
        self.virtual_finishes.append(self.virtual_clock_ms)

    def remove(self, sequence: int, estimate_ms: float) -> EventSpec:
        for pos, (seq, spec) in enumerate(self.placed):
            if seq == sequence:
                del self.placed[pos]
                self.load_ms -= estimate_ms
                count = self._benchmarks[spec.benchmark] - 1
                if count:
                    self._benchmarks[spec.benchmark] = count
                else:
                    del self._benchmarks[spec.benchmark]
                return spec
        raise ClusterError(
            f"board {self.index} does not hold placement #{sequence}"
        )

    def pending_depth(self, now_ms: float) -> int:
        """Placed applications whose virtual completion is still ahead."""
        return sum(1 for finish in self.virtual_finishes if finish > now_ms)

    def normalized_load(self) -> float:
        """Outstanding estimated work per slot."""
        return self.load_ms / self.profile.num_slots


class Cluster:
    """A fleet of FPGA boards behind one placement-and-admission front.

    Drive it in three phases, mirroring the single-board harnesses:
    **submit** (``submit`` / ``submit_sequence``, optionally interleaved
    with ``drain`` / ``fail_board`` / ``rebalance``), **run**
    (``run(jobs=N)`` — the only phase that simulates), **read** (the
    returned :class:`ClusterReport`). Placement is strictly serial and
    happens entirely before the sharded simulation, so decisions are a
    pure function of (policy, board profiles, arrival stream) and can
    never depend on ``jobs``.
    """

    def __init__(
        self,
        profiles: Sequence[BoardProfile],
        *,
        placement: Union[str, PlacementPolicy] = "least_loaded",
        scheduler: str = "nimblock",
        config: Optional[SystemConfig] = None,
        admission: Optional[str] = None,
        faults: Optional[FaultConfig] = None,
        seed: int = 0,
    ) -> None:
        if not profiles:
            raise ClusterError("a cluster needs at least one board profile")
        self._boards = [_Board(i, p) for i, p in enumerate(profiles)]
        if isinstance(placement, str):
            placement = make_placement(placement)
        self._placement = placement
        self._scheduler = scheduler
        self._config = config
        self._faults = faults
        self._seed = seed
        self._sequence = 0
        self._last_arrival_ms = 0.0
        self._decisions: List[PlacementDecision] = []
        self._steal_moves = 0
        self._failovers = 0
        self.admission_stats = AdmissionStats()
        self._board_admission: Optional[str] = None
        self._fleet_policy = None
        if admission is not None:
            if admission not in FLEET_ADMISSION_POLICIES:
                raise ClusterError(
                    f"unknown fleet admission policy {admission!r}; known: "
                    f"{', '.join(FLEET_ADMISSION_POLICIES)}"
                )
            if admission == "degrade":
                # Degradation throttles a *scheduler*; route per board.
                self._board_admission = "degrade"
            elif admission in ("reject", "shed"):
                self._fleet_policy = make_admission_policy(admission)
            # "unbounded" gates nothing: the boundary only counts.
        self._admission_name = admission
        self._estimate_cache: Dict[Tuple[str, int, float], float] = {}

    # ------------------------------------------------------------------
    # Fleet introspection
    # ------------------------------------------------------------------
    @property
    def num_boards(self) -> int:
        return len(self._boards)

    @property
    def decisions(self) -> List[PlacementDecision]:
        """Every placement made so far, in decision order."""
        return list(self._decisions)

    def board_load_ms(self, index: int) -> float:
        return self._board(index).load_ms

    def board_queue(self, index: int) -> List[EventSpec]:
        """Specs placed on one board, in placement order."""
        return [spec for _, spec in self._board(index).placed]

    def _board(self, index: int) -> _Board:
        if not 0 <= index < len(self._boards):
            raise ClusterError(
                f"board index {index} out of range 0..{len(self._boards) - 1}"
            )
        return self._boards[index]

    def _eligible(self) -> List[_Board]:
        eligible = [b for b in self._boards if b.eligible]
        if not eligible:
            raise ClusterError("no eligible boards left in the fleet")
        return eligible

    # ------------------------------------------------------------------
    # Estimates
    # ------------------------------------------------------------------
    def _estimate(self, spec: EventSpec, board: _Board) -> float:
        """The HLS application-level estimate on one specific board."""
        key = (spec.benchmark, spec.batch_size, board.profile.reconfig_ms)
        estimate = self._estimate_cache.get(key)
        if estimate is None:
            error = (
                self._config.hls_estimation_error
                if self._config is not None
                else SystemConfig().hls_estimation_error
            )
            estimate = application_latency_estimate_ms(
                get_benchmark(spec.benchmark).graph,
                spec.batch_size,
                reconfig_ms=board.profile.reconfig_ms,
                estimation_error=error,
            )
            self._estimate_cache[key] = estimate
        return estimate

    def _estimates_for(self, spec: EventSpec) -> List[float]:
        """Per-board estimates, indexed by absolute board index."""
        return [self._estimate(spec, board) for board in self._boards]

    # ------------------------------------------------------------------
    # Fleet-boundary admission
    # ------------------------------------------------------------------
    def _fleet_depth(self, now_ms: float) -> int:
        return sum(b.pending_depth(now_ms) for b in self._boards)

    def _fleet_capacity(self) -> int:
        assert self._fleet_policy is not None
        per_board = self._fleet_policy.queue_capacity  # type: ignore
        return per_board * len(self._boards)

    def _gate(self, spec: EventSpec) -> Optional[EventSpec]:
        """Fleet-boundary admission; returns the (possibly retried)
        spec to place, or None when the arrival never enters the fleet.
        """
        stats = self.admission_stats
        stats.submitted += 1
        policy = self._fleet_policy
        if policy is None:
            stats.admitted += 1
            return spec
        depth = self._fleet_depth(spec.arrival_ms)
        capacity = self._fleet_capacity()
        if depth < capacity:
            stats.admitted += 1
            return spec
        if isinstance(policy, ShedPolicy):
            # The boundary sheds at ingress: the arrival is turned away
            # whole, unlike the per-board controller which evicts queued
            # victims at a pass boundary.
            stats.shed += 1
            return None
        assert isinstance(policy, RejectPolicy)
        arrival = spec.arrival_ms
        for attempt in range(1, policy.max_retries + 1):
            stats.rejections += 1
            arrival += policy.backoff_ms(attempt)
            if self._fleet_depth(arrival) < capacity:
                stats.admitted += 1
                return replace(spec, arrival_ms=arrival)
        stats.rejections += 1
        stats.dropped += 1
        return None

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def submit(
        self, spec: EventSpec, *, board: Optional[int] = None
    ) -> Optional[PlacementDecision]:
        """Admit and place one arrival; None when turned away.

        Arrivals must be submitted in non-decreasing ``arrival_ms`` order
        (the boundary's backlog proxy is a forward-moving clock). A
        targeted submit (``board=``) bypasses the placement policy but
        not eligibility: draining or failed boards reject with
        :class:`~repro.errors.ClusterError`.
        """
        if spec.arrival_ms < self._last_arrival_ms:
            raise ClusterError(
                f"arrivals must be submitted in order; got {spec.arrival_ms}"
                f" after {self._last_arrival_ms}"
            )
        self._last_arrival_ms = spec.arrival_ms
        if board is not None:
            target = self._board(board)
            if not target.eligible:
                state = "failed" if target.failed else "draining"
                raise ClusterError(
                    f"board {board} ({target.profile.name}) is {state}; "
                    "targeted submit rejected"
                )
        admitted = self._gate(spec)
        if admitted is None:
            return None
        estimates = self._estimates_for(admitted)
        if board is None:
            eligible = self._eligible()
            board = self._placement.choose(
                eligible, admitted.benchmark, estimates
            )
            if board not in {b.index for b in eligible}:
                raise ClusterError(
                    f"placement policy {self._placement.name!r} chose "
                    f"ineligible board {board}"
                )
        chosen = self._board(board)
        decision = PlacementDecision(
            sequence=self._sequence,
            board=board,
            policy=self._placement.name,
            benchmark=admitted.benchmark,
            arrival_ms=admitted.arrival_ms,
            estimate_ms=estimates[board],
        )
        chosen.add(self._sequence, admitted, estimates[board])
        self._sequence += 1
        self._decisions.append(decision)
        return decision

    def submit_sequence(
        self, events: Union[EventSequence, Iterable[EventSpec]]
    ) -> List[PlacementDecision]:
        """Admit-and-place a whole arrival stream, in arrival order."""
        decisions = []
        for spec in events:
            decision = self.submit(spec)
            if decision is not None:
                decisions.append(decision)
        return decisions

    # ------------------------------------------------------------------
    # Operational verbs
    # ------------------------------------------------------------------
    def drain(self, index: int) -> None:
        """Stop placing onto one board; its queued work stays put."""
        board = self._board(index)
        if board.failed:
            raise ClusterError(f"board {index} already failed")
        board.draining = True
        if not any(b.eligible for b in self._boards):
            board.draining = False
            raise ClusterError(
                "cannot drain the last eligible board in the fleet"
            )

    def fail_board(self, index: int) -> List[PlacementDecision]:
        """Permanent board fault: fail over its queued work.

        The board leaves the fleet for good and every application queued
        on it is re-placed through the placement policy among the
        surviving boards (original arrival times and sequence order are
        preserved). Returns the re-placement decisions.
        """
        board = self._board(index)
        if board.failed:
            raise ClusterError(f"board {index} already failed")
        board.failed = True
        if not any(b.eligible for b in self._boards):
            board.failed = False
            raise ClusterError(
                "cannot fail the last eligible board in the fleet"
            )
        orphans = list(board.placed)
        board.placed = []
        board.load_ms = 0.0
        board._benchmarks = {}
        replaced: List[PlacementDecision] = []
        for sequence, spec in orphans:
            estimates = self._estimates_for(spec)
            eligible = self._eligible()
            target = self._placement.choose(
                eligible, spec.benchmark, estimates
            )
            chosen = self._board(target)
            chosen.add(sequence, spec, estimates[target])
            decision = PlacementDecision(
                sequence=sequence,
                board=target,
                policy=self._placement.name,
                benchmark=spec.benchmark,
                arrival_ms=spec.arrival_ms,
                estimate_ms=estimates[target],
            )
            self._decisions.append(decision)
            replaced.append(decision)
            self._failovers += 1
        return replaced

    def rebalance(self, threshold_ms: float = 1.0) -> int:
        """Work stealing at the quiescent boundary; returns moves made.

        Repeatedly moves the youngest queued application from the
        most-loaded board to the least-loaded one, but only while the
        move strictly shrinks the fleet's normalized load spread by more
        than ``threshold_ms``. A balanced fleet is left untouched.
        """
        moves = 0
        for _ in range(16 * len(self._boards)):
            eligible = [b for b in self._boards if b.eligible]
            if len(eligible) < 2:
                break
            donor = max(eligible, key=lambda b: (b.normalized_load(), -b.index))
            recipient = min(
                eligible, key=lambda b: (b.normalized_load(), b.index)
            )
            if donor is recipient or not donor.placed:
                break
            spread = donor.normalized_load() - recipient.normalized_load()
            if spread <= threshold_ms:
                break
            # Youngest queued work is the cheapest to move: it has
            # accumulated the least locality on its board.
            sequence, spec = max(
                donor.placed, key=lambda item: (item[1].arrival_ms, item[0])
            )
            donor_est = self._estimate(spec, donor)
            recipient_est = self._estimate(spec, recipient)
            new_spread = abs(
                (recipient.load_ms + recipient_est)
                / recipient.profile.num_slots
                - (donor.load_ms - donor_est) / donor.profile.num_slots
            )
            if new_spread >= spread:
                break
            donor.remove(sequence, donor_est)
            recipient.add(sequence, spec, recipient_est)
            moves += 1
        self._steal_moves += moves
        return moves

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def board_tasks(
        self, mode: str = "full", replay: bool = True, autotune=None
    ) -> List[BoardTask]:
        """The picklable per-board simulation inputs, one per board.

        ``autotune`` (an :class:`~repro.autotune.engine.AutotuneConfig`,
        or None) arms the per-board remediation pipeline.
        """
        admission = self._board_admission
        # The overload-tier pairing: a watchdog iff the board has admission.
        watchdog = None if admission is None else WatchdogConfig()
        tasks: List[BoardTask] = []
        for board in self._boards:
            specs = tuple(
                spec for _, spec in sorted(
                    board.placed,
                    key=lambda item: (item[1].arrival_ms, item[0]),
                )
            )
            tasks.append(BoardTask(
                board=board.index, profile=board.profile,
                scheduler=self._scheduler, config=self._config, specs=specs,
                faults=derive_board_fault_config(self._faults, board.index)
                if not board.failed else None,
                admission=admission, seed=self._seed + board.index,
                watchdog=watchdog, mode=mode, replay=replay,
                autotune=autotune,
            ))
        return tasks

    def run(
        self, jobs: Optional[int] = None, mode: str = "full",
        replay: bool = True, autotune=None,
    ) -> "ClusterReport":
        """Simulate every board (sharded over ``jobs`` processes) and
        merge the per-board payloads into one :class:`ClusterReport`.

        ``mode="metrics"`` runs each board without trace rows: counters,
        sketches and busy-time sums stay exact, but the per-board
        ``trace_digest`` fields are ``None`` (nothing to hash).
        ``replay=False`` disables the per-board macro-event replay cache
        (the report is byte-identical either way; the knob exists for
        A/B verification). ``autotune`` arms the per-board closed-loop
        remediation: each board's payload gains an ``"autotune"``
        decision record, and boards whose verified winner beats the
        baseline are re-run under the patched configuration.
        """
        from repro.modes import normalize_mode

        mode = normalize_mode(mode)
        payloads = board_cells(
            self.board_tasks(mode, replay, autotune), jobs=jobs
        )
        return ClusterReport(
            boards=payloads,
            placement=self._placement.name,
            scheduler=self._scheduler,
            admission=self._admission_name,
            seed=self._seed,
            fault_config=(
                self._faults
                if self._faults is not None and self._faults.enabled
                else None
            ),
            admission_stats=self.admission_stats,
            steal_moves=self._steal_moves,
            failovers=self._failovers,
        )


class ClusterReport:
    """The merged outcome of one cluster run.

    Everything here is derived from the per-board payloads by
    associative reductions (sums, min/max, sketch merges), so the merged
    snapshot is identical whichever processes produced the payloads.
    """

    def __init__(
        self,
        boards: List[dict],
        *,
        placement: str,
        scheduler: str,
        admission: Optional[str],
        seed: int,
        fault_config: Optional[FaultConfig],
        admission_stats: AdmissionStats,
        steal_moves: int,
        failovers: int,
    ) -> None:
        self.boards = boards
        self.placement = placement
        self.scheduler = scheduler
        self.admission = admission
        self.seed = seed
        self.fault_config = fault_config
        self.admission_stats = admission_stats
        self.steal_moves = steal_moves
        self.failovers = failovers
        self.sketch = QuantileSketch()
        for payload in boards:
            self.sketch = self.sketch.merge(
                QuantileSketch.from_dict(payload["responses"])
            )

    # -- associative scalar reductions ---------------------------------
    def _sum(self, field: str) -> float:
        return sum(payload[field] for payload in self.boards)

    @property
    def submitted(self) -> int:
        return int(self._sum("submitted"))

    @property
    def retired(self) -> int:
        return int(self._sum("retired"))

    @property
    def shed(self) -> int:
        return int(self._sum("shed"))

    @property
    def items_done(self) -> int:
        return int(self._sum("items_done"))

    @property
    def energy_j(self) -> float:
        return self._sum("energy_j")

    @property
    def makespan_ms(self) -> float:
        """First fleet arrival to last fleet retirement."""
        starts = [
            p["first_arrival_ms"] for p in self.boards
            if p["first_arrival_ms"] is not None
        ]
        ends = [
            p["last_retire_ms"] for p in self.boards
            if p["last_retire_ms"] is not None
        ]
        if not starts or not ends:
            return 0.0
        return max(ends) - min(starts)

    @property
    def throughput_items_per_s(self) -> float:
        makespan = self.makespan_ms
        if makespan <= 0.0:
            return 0.0
        return self.items_done / (makespan / 1000.0)

    def quantile_ms(self, q: float) -> float:
        return self.sketch.quantile(q)

    @property
    def fault_totals(self) -> dict:
        totals: Dict[str, float] = {}
        for payload in self.boards:
            for key, value in payload["faults"].items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def to_dict(self) -> dict:
        """Canonical JSON-safe merged snapshot (digest this)."""
        stats = self.admission_stats
        return {
            "fleet": {
                "num_boards": len(self.boards),
                "placement": self.placement,
                "scheduler": self.scheduler,
                "admission": self.admission,
                "seed": self.seed,
                "faults": (
                    dataclasses.asdict(self.fault_config)
                    if self.fault_config is not None else None
                ),
                "steal_moves": self.steal_moves,
                "failovers": self.failovers,
            },
            "totals": {
                "submitted": self.submitted,
                "retired": self.retired,
                "shed": self.shed,
                "items_done": self.items_done,
                "makespan_ms": self.makespan_ms,
                "throughput_items_per_s": self.throughput_items_per_s,
                "energy_j": self.energy_j,
                "faults": self.fault_totals,
            },
            "boundary_admission": {
                "submitted": stats.submitted,
                "admitted": stats.admitted,
                "rejections": stats.rejections,
                "dropped": stats.dropped,
                "shed": stats.shed,
            },
            "responses": self.sketch.to_dict(),
            "boards": self.boards,
        }

    def snapshot_digest(self) -> str:
        """sha256 over the canonical JSON dump of the merged snapshot."""
        blob = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def format(self) -> str:
        """The ``repro cluster`` drill's text: one row per board, then
        the fleet summary and the snapshot digest."""
        from repro.experiments.runner import format_table

        headers = ["board", "profile", "slots", "apps", "retired", "shed",
                   "items", "busy (s)", "energy (J)", "faults"]
        rows = [
            [
                payload["board"],
                payload["profile"]["name"],
                payload["profile"]["num_slots"],
                payload["submitted"],
                payload["retired"],
                payload["shed"],
                payload["items_done"],
                payload["run_busy_ms"] / 1000.0,
                payload["energy_j"],
                payload["faults"]["total"],
            ]
            for payload in self.boards
        ]
        return (
            f"Cluster drill: {len(self.boards)} board(s), "
            f"placement={self.placement}, scheduler={self.scheduler}, "
            f"admission={self.admission or 'none'}, seed={self.seed}\n"
            f"{format_table(headers, rows)}\n"
            f"fleet: retired={self.retired} shed={self.shed} "
            f"items={self.items_done} "
            f"throughput={self.throughput_items_per_s:.3f} items/s "
            f"p50={self.quantile_ms(0.5):.1f} ms "
            f"p99={self.quantile_ms(0.99):.1f} ms "
            f"makespan={self.makespan_ms:.1f} ms "
            f"energy={self.energy_j:.1f} J\n"
            f"snapshot sha256: {self.snapshot_digest()}"
        )
