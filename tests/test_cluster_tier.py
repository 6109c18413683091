"""Edge-case coverage for the cluster tier (`repro.cluster`).

The five behaviours the ISSUE pins: single-board fleet equals a bare
hypervisor run byte-for-byte, submit-to-draining-board rejection,
failover re-placement after a permanent board fault, work-stealing
no-op on a balanced fleet, and deterministic least-loaded tie-breaking.
Plus the profile/power model and the fleet-boundary admission gate.
"""

from __future__ import annotations

import pytest

from repro.admission import WatchdogConfig
from repro.cluster import (
    Cluster,
    EDGE_BOARD,
    PLACEMENT_POLICIES,
    ZCU106_BOARD,
    BoardProfile,
    board_label,
    board_profile,
    fleet_profiles,
    make_placement,
    trace_digest,
)
from repro.cluster.shard import _board_run
from repro.errors import ClusterError
from repro.hypervisor.hypervisor import Hypervisor
from repro.schedulers.registry import make_scheduler
from repro.workload.events import EventSpec
from repro.workload.generator import EventGenerator


def stream(seed: int = 11, num_events: int = 8):
    return EventGenerator(seed).sequence(num_events=num_events, label="t")


def same_app_events(count: int, benchmark: str = "lenet"):
    """Identical applications at identical spacing (forces estimate ties)."""
    return [
        EventSpec(benchmark, 2, 1, 100.0 * i) for i in range(count)
    ]


# ---------------------------------------------------------------------------
# Profiles and the power model
# ---------------------------------------------------------------------------
class TestBoardProfiles:
    def test_catalogue_lookup_and_unknown(self):
        assert board_profile("zcu106") is ZCU106_BOARD
        with pytest.raises(ClusterError, match="unknown board profile"):
            board_profile("nope")

    def test_fleet_mix_rotates_deterministically(self):
        fleet = fleet_profiles(7)
        assert [p.name for p in fleet] == [
            "zcu106", "edge", "hpc", "zcu106", "edge", "hpc", "zcu106",
        ]
        assert fleet_profiles(7) == fleet
        assert all(p.name == "edge" for p in fleet_profiles(3, mix=("edge",)))

    def test_power_slot_budget_caps_dark_silicon(self):
        # hpc: (60 - 15) // 4.5 = 10 powered slots out of 16 physical.
        assert board_profile("hpc").power_slot_budget() == 10
        # zcu106's envelope covers the full complement.
        assert ZCU106_BOARD.power_slot_budget() == ZCU106_BOARD.num_slots

    def test_profile_validation(self):
        with pytest.raises(ClusterError):
            BoardProfile(name="")
        with pytest.raises(ClusterError):
            BoardProfile(name="x", num_slots=0)
        with pytest.raises(ClusterError):
            BoardProfile(name="x", power_cap_w=5.0, idle_power_w=8.0)

    def test_system_config_keeps_fleet_policy_knobs(self):
        from repro.config import SystemConfig

        base = SystemConfig(token_alpha=0.5)
        config = board_profile("edge").system_config(base)
        assert config.num_slots == 4
        assert config.reconfig_ms == 120.0
        assert config.token_alpha == 0.5

    def test_fleet_profiles_validation(self):
        with pytest.raises(ClusterError):
            fleet_profiles(0)
        with pytest.raises(ClusterError):
            fleet_profiles(2, mix=())


# ---------------------------------------------------------------------------
# Placement policies
# ---------------------------------------------------------------------------
class TestPlacementPolicies:
    def test_registry_complete_and_unknown_rejected(self):
        assert PLACEMENT_POLICIES == (
            "round_robin", "least_loaded", "affinity", "power_aware",
        )
        for name in PLACEMENT_POLICIES:
            assert make_placement(name).name == name
        with pytest.raises(ClusterError, match="unknown placement"):
            make_placement("random")

    def test_least_loaded_tie_break_is_pinned(self):
        # Two identical boards, identical applications: ties always go to
        # the lowest index, so placements alternate 0, 1, 0, 1...
        fleet = Cluster(
            fleet_profiles(2, mix=("zcu106",)), placement="least_loaded"
        )
        decisions = fleet.submit_sequence(same_app_events(6))
        assert [d.board for d in decisions] == [0, 1, 0, 1, 0, 1]

    def test_least_loaded_isolates_a_heavy_application(self):
        fleet = Cluster(
            fleet_profiles(2, mix=("zcu106",)), placement="least_loaded"
        )
        heavy = fleet.submit(EventSpec("dr", 5, 1, 0.0))
        light = [
            fleet.submit(EventSpec("lenet", 2, 1, arrival)).board
            for arrival in (1.0, 2.0)
        ]
        # The heavy board stays loaded: both short apps avoid it.
        assert light == [1 - heavy.board] * 2

    def test_least_loaded_normalizes_by_capability(self):
        # Identical applications on a 10-slot zcu106 and a 4-slot edge
        # board: per-slot backlog favours the bigger board.
        fleet = Cluster((ZCU106_BOARD, EDGE_BOARD), placement="least_loaded")
        boards = [d.board for d in fleet.submit_sequence(same_app_events(10))]
        assert boards.count(0) > boards.count(1)

    def test_round_robin_cycles_and_skips_draining(self):
        fleet = Cluster(
            fleet_profiles(3, mix=("zcu106",)), placement="round_robin"
        )
        events = same_app_events(5)
        assert fleet.submit(events[0]).board == 0
        assert fleet.submit(events[1]).board == 1
        fleet.drain(2)
        assert fleet.submit(events[2]).board == 0
        assert fleet.submit(events[3]).board == 1
        assert fleet.submit(events[4]).board == 0

    def test_affinity_prefers_warm_board(self):
        fleet = Cluster(
            fleet_profiles(3, mix=("zcu106",)), placement="affinity"
        )
        first = fleet.submit(EventSpec("imgc", 2, 1, 0.0))
        # The same benchmark lands on the warm board despite its load...
        again = fleet.submit(EventSpec("imgc", 2, 1, 10.0))
        assert again.board == first.board
        # ...while a cold benchmark falls back to least-loaded.
        cold = fleet.submit(EventSpec("lenet", 2, 1, 20.0))
        assert cold.board != first.board

    def test_power_aware_diverges_on_power_capped_board(self):
        # hpc has 16 physical slots but powers only 10: least-loaded
        # over-credits it, power-aware does not.
        profiles = (board_profile("zcu106"), board_profile("hpc"))
        events = same_app_events(8, benchmark="3dr")
        ll = Cluster(profiles, placement="least_loaded")
        pa = Cluster(profiles, placement="power_aware")
        ll_boards = [d.board for d in ll.submit_sequence(events)]
        pa_boards = [d.board for d in pa.submit_sequence(events)]
        assert ll_boards != pa_boards
        # Power-aware treats both as 10-slot boards; cheaper joules win
        # ties, so the zcu106 (3.5 W/slot vs 4.5) gets at least half.
        assert pa_boards.count(0) >= pa_boards.count(1)


# ---------------------------------------------------------------------------
# Single-board equivalence
# ---------------------------------------------------------------------------
class TestSingleBoardEquivalence:
    def test_single_board_fleet_equals_bare_hypervisor(self):
        events = stream(seed=5, num_events=8)
        fleet = Cluster((ZCU106_BOARD,), scheduler="nimblock")
        fleet.submit_sequence(events)
        report = fleet.run(jobs=1)

        bare = Hypervisor(
            make_scheduler("nimblock"), config=ZCU106_BOARD.system_config()
        )
        for spec in events:
            bare.submit(spec.to_request())
        bare.run()

        assert report.boards[0]["trace_digest"] == trace_digest(
            bare.trace, board_label(0)
        )
        assert report.retired == len(bare.retired)
        assert report.boards[0]["trace_events"] == len(bare.trace)


# ---------------------------------------------------------------------------
# Operational verbs: drain, failover, work stealing
# ---------------------------------------------------------------------------
class TestOperationalVerbs:
    def test_submit_to_draining_board_rejected(self):
        fleet = Cluster(fleet_profiles(2, mix=("zcu106",)))
        fleet.drain(1)
        with pytest.raises(ClusterError, match="draining"):
            fleet.submit(EventSpec("lenet", 1, 1, 0.0), board=1)
        # Untargeted submits keep flowing to the remaining board.
        assert fleet.submit(EventSpec("lenet", 1, 1, 0.0)).board == 0

    def test_cannot_drain_or_fail_last_board(self):
        fleet = Cluster(fleet_profiles(2, mix=("zcu106",)))
        fleet.drain(0)
        with pytest.raises(ClusterError, match="last eligible"):
            fleet.drain(1)
        with pytest.raises(ClusterError, match="last eligible"):
            fleet.fail_board(1)

    def test_failover_replaces_queued_work(self):
        fleet = Cluster(
            fleet_profiles(3, mix=("zcu106",)), placement="round_robin"
        )
        events = stream(seed=3, num_events=9)
        fleet.submit_sequence(events)
        queued = len(fleet.board_queue(2))
        assert queued > 0
        moved = fleet.fail_board(2)
        assert len(moved) == queued
        assert all(d.board != 2 for d in moved)
        assert fleet.board_queue(2) == []
        # The failed board simulates nothing; nothing is lost fleet-wide.
        report = fleet.run(jobs=2)
        assert report.boards[2]["submitted"] == 0
        assert report.retired == len(events)
        with pytest.raises(ClusterError, match="already failed"):
            fleet.fail_board(2)

    def test_rebalance_noop_on_balanced_fleet(self):
        fleet = Cluster(
            fleet_profiles(3, mix=("zcu106",)), placement="least_loaded"
        )
        fleet.submit_sequence(same_app_events(9))
        before = [fleet.board_load_ms(i) for i in range(3)]
        assert fleet.rebalance() == 0
        assert [fleet.board_load_ms(i) for i in range(3)] == before

    def test_rebalance_moves_work_off_hot_board(self):
        fleet = Cluster(
            fleet_profiles(3, mix=("zcu106",)), placement="round_robin"
        )
        for spec in same_app_events(9):
            fleet.submit(spec, board=0)
        spread_before = fleet.board_load_ms(0) - fleet.board_load_ms(1)
        moves = fleet.rebalance()
        assert moves > 0
        spread_after = max(
            fleet.board_load_ms(i) for i in range(3)
        ) - min(fleet.board_load_ms(i) for i in range(3))
        assert spread_after < spread_before
        report = fleet.run(jobs=1)
        assert report.retired == 9
        assert report.to_dict()["fleet"]["steal_moves"] == moves


# ---------------------------------------------------------------------------
# Fleet-boundary admission
# ---------------------------------------------------------------------------
class TestFleetAdmission:
    def burst(self, count: int = 30):
        return [EventSpec("lenet", 2, 1, float(i)) for i in range(count)]

    def heavy_burst(self, count: int = 60):
        """Arrivals fast and heavy enough to exhaust reject retries."""
        return [EventSpec("3dr", 4, 1, 0.5 * i) for i in range(count)]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ClusterError, match="unknown fleet admission"):
            Cluster(fleet_profiles(1), admission="nope")

    def test_unbounded_counts_but_admits_all(self):
        fleet = Cluster(fleet_profiles(1), admission="unbounded")
        fleet.submit_sequence(self.burst(10))
        assert fleet.admission_stats.submitted == 10
        assert fleet.admission_stats.admitted == 10

    def test_reject_drops_past_fleet_capacity(self):
        fleet = Cluster(
            fleet_profiles(1, mix=("zcu106",)), admission="reject"
        )
        decisions = fleet.submit_sequence(self.heavy_burst())
        stats = fleet.admission_stats
        assert stats.dropped > 0
        assert stats.rejections >= stats.dropped
        assert stats.admitted == len(decisions)
        assert stats.admitted + stats.dropped == stats.submitted

    def test_shed_turns_arrivals_away_at_ingress(self):
        fleet = Cluster(
            fleet_profiles(1, mix=("zcu106",)), admission="shed"
        )
        decisions = fleet.submit_sequence(self.burst(30))
        stats = fleet.admission_stats
        assert stats.shed > 0
        assert stats.admitted == len(decisions)
        assert stats.admitted + stats.shed == stats.submitted

    def test_degrade_routes_to_per_board_controllers(self):
        fleet = Cluster(fleet_profiles(2), admission="degrade")
        # The boundary admits everything; boards carry the controller.
        fleet.submit_sequence(self.burst(8))
        assert fleet.admission_stats.admitted == 8
        tasks = fleet.board_tasks()
        assert all(task.admission == "degrade" for task in tasks)
        assert all(task.watchdog == WatchdogConfig() for task in tasks)
        _, hypervisor = _board_run(next(t for t in tasks if t.specs))
        assert hypervisor.watchdog is not None
        report = fleet.run(jobs=2)
        assert report.retired == 8

    def test_boards_without_admission_carry_no_watchdog(self):
        fleet = Cluster(fleet_profiles(2))
        fleet.submit_sequence(self.burst(8))
        tasks = fleet.board_tasks()
        assert all(task.admission is None for task in tasks)
        assert all(task.watchdog is None for task in tasks)
        _, hypervisor = _board_run(next(t for t in tasks if t.specs))
        assert hypervisor.watchdog is None

    def test_arrival_order_enforced(self):
        fleet = Cluster(fleet_profiles(1))
        fleet.submit(EventSpec("lenet", 1, 1, 100.0))
        with pytest.raises(ClusterError, match="arrivals must be"):
            fleet.submit(EventSpec("lenet", 1, 1, 50.0))


# ---------------------------------------------------------------------------
# Report plumbing
# ---------------------------------------------------------------------------
class TestClusterReport:
    def test_empty_boards_merge_cleanly(self):
        fleet = Cluster(fleet_profiles(3, mix=("zcu106",)))
        fleet.submit(EventSpec("lenet", 1, 1, 0.0))
        report = fleet.run(jobs=1)
        assert report.retired == 1
        assert sum(p["submitted"] for p in report.boards) == 1
        assert report.makespan_ms > 0
        assert report.throughput_items_per_s > 0
        snapshot = report.to_dict()
        assert snapshot["fleet"]["num_boards"] == 3
        assert len(report.snapshot_digest()) == 64

    def test_empty_cluster_requires_a_board(self):
        with pytest.raises(ClusterError, match="at least one board"):
            Cluster(())
