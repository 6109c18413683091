"""Tier-junction combination tests: optional hooks crossed with run modes.

Every front-end that takes optional machinery is run over the product of
its hooks x ``{full, metrics}`` at small scale:

* the bare :class:`~repro.hypervisor.hypervisor.Hypervisor` — faults,
  shed admission, watchdog, an observer (none, ``Instrumentation`` or
  ``InvariantChecker``) and an attached replay cache;
* the :class:`~repro.service.loop.ServiceLoop` — admission, watchdog, an
  observer, replay and autotune, at two arrival rates;
* a 2-board :class:`~repro.cluster.Cluster` — fleet admission, faults,
  replay, autotune and ``jobs``.

Within one matrix, cells that differ only in hooks documented as
execution strategy or bystanders must agree: per-app results and report
payloads do not depend on the mode, the observer or replay; observe
snapshots do not depend on the mode, nor on replay once its two
hit/miss counters are dropped; cluster payloads do not depend on
``jobs`` or replay, nor (trace digests aside) on the mode. An attached
``InvariantChecker`` never raises. Each matrix also asserts that every
leg engaged in at least one cell, so an inert hook cannot pass
vacuously. Combinations that cannot be built are listed in
:data:`EXCLUDED` with their reason; :class:`TestExclusions` checks the
reasons that are mechanical.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import pytest

from repro.admission import AdmissionController, Watchdog
from repro.autotune.engine import AutotuneConfig
from repro.cluster import Cluster, fleet_profiles
from repro.errors import ServiceError
from repro.experiments.ext_overload import OVERLOAD_WORKLOAD, study_sequence
from repro.faults.injector import FaultInjector
from repro.hypervisor.hypervisor import Hypervisor
from repro.invariants import InvariantChecker
from repro.observe import Instrumentation
from repro.schedulers.registry import make_scheduler
from repro.service.loop import ServiceLoop
from repro.sim.replay import ReplayCache
from repro.workload.arrivals import service_rate_process
from repro.workload.events import EventSpec
from repro.workload.scenarios import MIXED_FAULTS

from tests.test_replay import replay_blind_snapshot

MODES = ("full", "metrics")

#: Observer slot: one of these (a hypervisor has a single ``observer=``).
OBSERVERS = {
    "none": lambda: None,
    "instrumentation": Instrumentation,
    "invariants": InvariantChecker,
}

#: Combinations left out of the matrices, with the reason for each.
EXCLUDED = (
    ("all", "Instrumentation together with InvariantChecker",
     "there is only one observer= slot"),
    ("ServiceLoop", "faults",
     "ServiceLoop has no faults parameter"),
    ("ServiceLoop", "autotune with replay",
     "an armed loop always runs live, so the cell equals replay off"),
    ("ServiceLoop", "autotune with periodic snapshots",
     "raises ServiceError by design"),
    ("Cluster", "observers",
     "Cluster has no observer hook"),
    ("Hypervisor", "autotune",
     "autotune attaches only at the service loop or the cluster"),
)


def _assert_agree(cells: dict, fields: tuple, vary: tuple, view) -> None:
    """``view(cell)`` is equal across cells whose keys differ only in the
    ``vary`` fields."""
    keep = [i for i, name in enumerate(fields) if name not in vary]
    seen = {}
    for key, cell in cells.items():
        value = view(cell)
        first_key, first = seen.setdefault(
            tuple(key[i] for i in keep), (key, value)
        )
        assert value == first, (
            f"{dict(zip(fields, key))} differs from "
            f"{dict(zip(fields, first_key))}"
        )


@dataclass
class Cell:
    """What one matrix cell produced."""

    payload: object
    snapshot: object = None
    faults: int = 0
    shed: int = 0
    replay_hits: int = 0
    decisions: int = 0
    applies: int = 0


# ---------------------------------------------------------------------------
# Bare hypervisor
# ---------------------------------------------------------------------------
BARE_FIELDS = ("faults", "admission", "watchdog", "observer", "replay",
               "mode")
BARE_SEQUENCE = study_sequence(OVERLOAD_WORKLOAD, 3, 40, 1.0)


def _bare_cell(faults, admission, watchdog, observer, replay, mode) -> Cell:
    hv = Hypervisor(
        make_scheduler("nimblock"),
        faults=(
            FaultInjector(MIXED_FAULTS.fault_config(1.0, seed=11))
            if faults else None
        ),
        admission=AdmissionController("shed", seed=7) if admission else None,
        watchdog=Watchdog() if watchdog else None,
        observer=OBSERVERS[observer](),
        mode=mode,
    )
    if replay:
        hv._replay = ReplayCache(
            hv,
            scheduler_factory=lambda: make_scheduler("nimblock"),
            admission_factory=(
                (lambda: AdmissionController("shed", seed=7))
                if admission else None
            ),
            watchdog_factory=Watchdog if watchdog else None,
        )
    for request in BARE_SEQUENCE.to_requests():
        hv.submit(request)
    hv.run()
    return Cell(
        payload=hv.results(),
        snapshot=replay_blind_snapshot(hv),
        faults=hv.fault_stats.total_faults,
        shed=len(hv.shed),
        replay_hits=0 if hv._replay is None else hv._replay.hits,
    )


@pytest.fixture(scope="module")
def bare_cells() -> dict:
    return {
        key: _bare_cell(*key)
        for key in itertools.product(
            (False, True), (False, True), (False, True), OBSERVERS,
            (False, True), MODES,
        )
    }


class TestBareHypervisor:
    def test_every_leg_engages(self, bare_cells):
        cells = bare_cells.values()
        assert any(cell.faults for cell in cells)
        assert any(cell.shed for cell in cells)
        assert any(cell.replay_hits for cell in cells)

    def test_results_ignore_mode_observer_and_replay(self, bare_cells):
        _assert_agree(bare_cells, BARE_FIELDS,
                      ("observer", "replay", "mode"),
                      lambda cell: cell.payload)

    def test_snapshots_ignore_mode_observer_and_replay(self, bare_cells):
        _assert_agree(bare_cells, BARE_FIELDS,
                      ("observer", "replay", "mode"),
                      lambda cell: cell.snapshot)


# ---------------------------------------------------------------------------
# Service loop
# ---------------------------------------------------------------------------
LOOP_FIELDS = ("rate", "admission", "watchdog", "observer", "replay",
               "autotune", "mode")
#: Replay hits occur at the low rate; sheds and an applied autotune
#: patch at the high one.
LOOP_RATES = (0.5, 2.0)


def _loop_cell(rate, admission, watchdog, observer, replay, autotune,
               mode) -> Cell:
    loop = ServiceLoop(
        service_rate_process(rate, seed=3),
        "nimblock",
        admission=admission,
        watchdog=watchdog,
        observer=OBSERVERS[observer](),
        replay=replay,
        autotune=AutotuneConfig() if autotune else None,
        seed=3,
        max_submissions=80,
        window_ms=15_000.0,
        mode=mode,
    )
    report = loop.run()
    return Cell(
        payload=json.dumps(report.to_dict(), sort_keys=True),
        snapshot=replay_blind_snapshot(loop.hv),
        shed=report.shed,
        replay_hits=report.replay_hits,
        decisions=len(report.decisions),
        applies=report.applies,
    )


@pytest.fixture(scope="module")
def loop_cells() -> dict:
    return {
        key: _loop_cell(*key)
        for key in itertools.product(
            LOOP_RATES, ("unbounded", "shed"), (False, True), OBSERVERS,
            (False, True), (False, True), MODES,
        )
        if not (key[4] and key[5])  # autotune with replay: see EXCLUDED
    }


class TestServiceLoop:
    def test_every_leg_engages(self, loop_cells):
        cells = loop_cells.values()
        assert any(cell.shed for cell in cells)
        assert any(cell.replay_hits for cell in cells)
        assert any(cell.decisions for cell in cells)
        assert any(cell.applies for cell in cells)

    def test_payload_ignores_mode_observer_and_replay(self, loop_cells):
        _assert_agree(loop_cells, LOOP_FIELDS,
                      ("observer", "replay", "mode"),
                      lambda cell: cell.payload)

    def test_snapshots_ignore_mode_observer_and_replay(self, loop_cells):
        _assert_agree(loop_cells, LOOP_FIELDS,
                      ("observer", "replay", "mode"),
                      lambda cell: cell.snapshot)


# ---------------------------------------------------------------------------
# Cluster
# ---------------------------------------------------------------------------
CLUSTER_FIELDS = ("admission", "faults", "replay", "autotune", "jobs",
                  "mode")


def _cluster_stimulus():
    """A burst that overruns the fleet boundary, then sparse arrivals the
    boards drain between (where replay serves)."""
    burst = [EventSpec("lenet", 2, 1, float(i)) for i in range(30)]
    sparse = [
        EventSpec(("lenet", "imgc", "3dr", "of")[i % 4], 1 + i % 3,
                  1 + i % 3, 600_000.0 + i * 400_000.0)
        for i in range(12)
    ]
    return burst + sparse


def _cluster_cell(admission, faults, replay, autotune, jobs, mode,
                  monkeypatch) -> Cell:
    hits = []
    if jobs == 1:
        try_replay = ReplayCache.try_replay

        def counted(self, now, app_id, request):
            hit = try_replay(self, now, app_id, request)
            hits.append(hit)
            return hit

        monkeypatch.setattr(ReplayCache, "try_replay", counted)
    cluster = Cluster(
        fleet_profiles(2),
        admission=admission,
        faults=MIXED_FAULTS.fault_config(1.0, seed=5) if faults else None,
        seed=5,
    )
    cluster.submit_sequence(_cluster_stimulus())
    report = cluster.run(
        jobs=jobs, mode=mode, replay=replay,
        autotune=AutotuneConfig() if autotune else None,
    )
    monkeypatch.undo()
    payload = report.to_dict()
    return Cell(
        payload=payload,
        faults=payload["totals"]["faults"]["total"],
        shed=payload["boundary_admission"]["shed"] + payload["totals"]["shed"],
        replay_hits=sum(hits),
        decisions=sum("autotune" in board for board in payload["boards"]),
    )


@pytest.fixture(scope="module")
def cluster_cells() -> dict:
    with pytest.MonkeyPatch.context() as monkeypatch:
        return {
            key: _cluster_cell(*key, monkeypatch)
            for key in itertools.product(
                (None, "shed", "degrade"), (False, True), (False, True),
                (False, True), (1, 2), MODES,
            )
        }


def _without_digests(payload: dict) -> dict:
    boards = [
        {k: v for k, v in board.items() if k != "trace_digest"}
        for board in payload["boards"]
    ]
    return dict(payload, boards=boards)


class TestCluster:
    def test_every_leg_engages(self, cluster_cells):
        cells = cluster_cells.values()
        assert any(cell.faults for cell in cells)
        assert any(cell.shed for cell in cells)
        assert any(cell.replay_hits for cell in cells)
        assert any(cell.decisions for cell in cells)

    def test_payload_ignores_jobs_and_replay(self, cluster_cells):
        _assert_agree(cluster_cells, CLUSTER_FIELDS, ("replay", "jobs"),
                      lambda cell: cell.payload)

    def test_payload_ignores_mode_except_digests(self, cluster_cells):
        _assert_agree(cluster_cells, CLUSTER_FIELDS,
                      ("replay", "jobs", "mode"),
                      lambda cell: _without_digests(cell.payload))


# ---------------------------------------------------------------------------
# Exclusions
# ---------------------------------------------------------------------------
class TestExclusions:
    """The mechanical reasons in :data:`EXCLUDED` still hold."""

    def test_service_loop_has_no_faults(self):
        with pytest.raises(TypeError):
            ServiceLoop(service_rate_process(1.0, seed=1), faults=None)

    def test_armed_loop_runs_live(self):
        loop = ServiceLoop(service_rate_process(1.0, seed=1), replay=True,
                           autotune=AutotuneConfig())
        assert loop._replay_cache is None

    def test_autotune_excludes_snapshots(self):
        with pytest.raises(ServiceError, match="mutually exclusive"):
            ServiceLoop(service_rate_process(1.0, seed=1),
                        autotune=AutotuneConfig(), snapshot_every_windows=1)

    def test_cluster_has_no_observer(self):
        with pytest.raises(TypeError):
            Cluster(fleet_profiles(2), observer=None)

    def test_hypervisor_has_no_autotune(self):
        with pytest.raises(TypeError):
            Hypervisor(make_scheduler("nimblock"), autotune=None)
