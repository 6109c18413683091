"""Scale-out basics on the cluster front-end (`repro.cluster.Cluster`).

Dispatch, end-to-end retirement and heterogeneous fleets; the placement
policy details, operational verbs and admission live in
``test_cluster_tier.py``.
"""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, EDGE_BOARD, ZCU106_BOARD, fleet_profiles
from repro.errors import ClusterError
from repro.workload.events import EventSpec


def light_events(count, benchmark="lenet", batch=2, spacing_ms=10.0):
    return [
        EventSpec(benchmark, batch, 1, spacing_ms * i) for i in range(count)
    ]


def homogeneous(num_boards, placement="least_loaded"):
    return Cluster(
        fleet_profiles(num_boards, mix=("zcu106",)), placement=placement
    )


class TestDispatch:
    def test_round_robin_rotates(self):
        fleet = homogeneous(3, placement="round_robin")
        boards = [fleet.submit(spec).board for spec in light_events(6)]
        assert boards == [0, 1, 2, 0, 1, 2]

    def test_unknown_dispatch_rejected(self):
        with pytest.raises(ClusterError, match="unknown placement"):
            homogeneous(2, placement="random")

    def test_zero_devices_rejected(self):
        with pytest.raises(ClusterError, match="num_boards"):
            fleet_profiles(0)


class TestExecution:
    def test_all_applications_retire_across_fleet(self):
        fleet = homogeneous(2)
        fleet.submit_sequence(light_events(5))
        report = fleet.run()
        assert report.submitted == 5
        assert report.retired == 5
        assert sum(payload["retired"] for payload in report.boards) == 5

    def test_more_devices_never_hurt_much(self):
        def fleet_mean(num_boards):
            fleet = homogeneous(num_boards)
            fleet.submit_sequence(light_events(8, benchmark="imgc", batch=4))
            return fleet.run().sketch.mean

        one, four = fleet_mean(1), fleet_mean(4)
        assert four < one


class TestHeterogeneousFleet:
    def test_empty_device_configs_rejected(self):
        with pytest.raises(ClusterError, match="non-empty"):
            fleet_profiles(2, mix=())
        with pytest.raises(ClusterError, match="at least one board"):
            Cluster([])

    def test_heterogeneous_fleet_completes(self):
        fleet = Cluster((ZCU106_BOARD, EDGE_BOARD))
        fleet.submit_sequence(light_events(6, batch=3, spacing_ms=1.0))
        report = fleet.run()
        assert report.retired == 6
        assert all(payload["submitted"] > 0 for payload in report.boards)
