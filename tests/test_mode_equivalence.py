"""Mode equivalence: ``mode="metrics"`` aggregates equal full-mode folds.

The run-mode contract (repro.modes) is that ``mode`` only changes *what
is stored*, never what happens: engine event streams, retired-app
results, observe counters/histograms and service window sketches are
identical between ``mode="full"`` and ``mode="metrics"`` — the latter
simply never materializes trace rows. This suite pins the contract:

* observe snapshots ``to_dict``-exact for every registry scheduler;
* service report payloads (windowed quantile sketches included) exact
  for every registry scheduler;
* one full-rate chaos run and one 4x-overload run, snapshot-exact;
* row-reading actions raise a clear :class:`ExperimentError` that names
  the fix (rerun with ``mode="full"``).
"""

from __future__ import annotations

import pytest

import repro
from repro.admission.controller import AdmissionController
from repro.admission.watchdog import Watchdog
from repro.errors import ExperimentError
from repro.experiments.ext_overload import (
    OVERLOAD_WORKLOAD,
    study_sequence,
)
from repro.experiments.ext_service import CAPACITY_SCHEDULERS
from repro.observe.aggregate import observed_run
from repro.observe.instrument import snapshot_run
from repro.schedulers.registry import make_scheduler
from repro.workload.scenarios import (
    MIXED_FAULTS,
    STRESS,
    scenario_sequence,
)

#: Small but non-trivial stimulus: enough events for preemptions,
#: pipelining and multi-batch items on every scheduler.
SEQUENCE = scenario_sequence(STRESS, seed=5, num_events=12)


def _observed(scheduler: str, mode: str, faults=None):
    hypervisor, observer = observed_run(
        scheduler, SEQUENCE, fault_config=faults, mode=mode
    )
    return hypervisor, observer.snapshot()


class TestObserveSnapshotEquivalence:
    @pytest.mark.parametrize("scheduler", CAPACITY_SCHEDULERS)
    def test_snapshot_exact_per_scheduler(self, scheduler):
        """Counters AND histograms match full-mode folds bit-for-bit."""
        hv_full, full = _observed(scheduler, "full")
        hv_metrics, metrics = _observed(scheduler, "metrics")
        assert metrics == full
        assert hv_metrics.results() == hv_full.results()
        assert hv_metrics.engine.processed == hv_full.engine.processed

    def test_full_rate_chaos_snapshot_exact(self):
        """The full-strength mixed-chaos drill folds identically."""
        faults = MIXED_FAULTS.fault_config(1.0, seed=11)
        hv_full, full = _observed("nimblock", "full", faults=faults)
        _, metrics = _observed("nimblock", "metrics", faults=faults)
        assert metrics == full
        # The drill must actually have injected something, or the
        # recovery/fault legs of the fold were never exercised.
        assert full["counters"]["nimblock_slot_faults_total"]["value"] > 0

    def test_4x_overload_snapshot_exact(self):
        """Admission control + watchdog at 4x congestion, both modes."""
        sequence = study_sequence(
            OVERLOAD_WORKLOAD, seed=3, num_events=48, rate_multiplier=4.0
        )
        snapshots = {}
        for mode in ("full", "metrics"):
            hypervisor = repro.Hypervisor(
                make_scheduler("nimblock"),
                admission=AdmissionController("shed", seed=7),
                watchdog=Watchdog(),
                mode=mode,
            )
            for request in sequence.to_requests():
                hypervisor.submit(request)
            hypervisor.run()
            snapshots[mode] = snapshot_run(hypervisor)
        assert snapshots["metrics"] == snapshots["full"]
        shed = snapshots["full"]["counters"]["nimblock_apps_shed_total"]
        rejected = snapshots["full"]["counters"][
            "nimblock_apps_rejected_total"
        ]
        assert shed["value"] + rejected["value"] > 0, (
            "4x congestion never tripped admission control — the "
            "overload leg of the equivalence check is vacuous"
        )


class TestServiceWindowEquivalence:
    @pytest.mark.parametrize("scheduler", CAPACITY_SCHEDULERS)
    def test_service_payload_exact_per_scheduler(self, scheduler):
        """Windowed sketches and counters are mode-independent."""
        from repro.service.loop import ServiceLoop
        from repro.workload.arrivals import service_rate_process

        full, metrics = [
            ServiceLoop(
                service_rate_process(2.0, seed=9), scheduler=scheduler,
                admission="shed", seed=9, max_submissions=60,
                window_ms=15_000.0, mode=mode,
            ).run().to_dict()
            for mode in ("full", "metrics")
        ]
        assert metrics == full


class TestMetricsModeRefusesRowReads:
    def test_trace_export_raises(self):
        run = repro.simulate("nimblock", seed=2, num_events=6,
                             mode="metrics")
        with pytest.raises(ExperimentError, match="mode='full'"):
            run.trace.events
        with pytest.raises(ExperimentError, match="requires trace rows"):
            list(run.trace)

    def test_span_pairing_raises(self):
        run = repro.simulate("nimblock", seed=2, num_events=6,
                             mode="metrics")
        with pytest.raises(ExperimentError, match="mode='full'"):
            run.spans()

    def test_aggregate_reads_still_work(self):
        run = repro.simulate("nimblock", seed=2, num_events=6,
                             mode="metrics")
        trace = run.trace
        assert len(trace) > 0
        assert trace.end_ms > trace.start_ms
        assert trace.run_busy_ms() > 0

    def test_unknown_mode_rejected_uniformly(self):
        with pytest.raises(ExperimentError, match="unknown run mode"):
            repro.simulate("nimblock", num_events=4, mode="turbo")
        with pytest.raises(ExperimentError, match="unknown run mode"):
            repro.serve("nimblock", submissions=4, mode="turbo")
