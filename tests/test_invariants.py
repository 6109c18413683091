"""Tests for the runtime invariant checker (``repro.invariants``).

Clean runs (every scheduler, full-rate chaos, overloaded admission) must
pass the full suite with zero violations and a byte-identical trace;
corrupted state must raise :class:`InvariantViolation` naming the
invariant and carrying the offending trace window.
"""

from __future__ import annotations

import pytest

from repro.admission import AdmissionController
from repro.errors import InvariantViolation, SchedulerError
from repro.hypervisor.hypervisor import Hypervisor
from repro.invariants import InvariantChecker, checked_run
from repro.schedulers.registry import ALL_SCHEDULERS, make_scheduler
from repro.workload.scenarios import (
    STRESS,
    chaos_scenario,
    scenario_sequence,
)

from tests.test_perf_equivalence import (
    PINNED_RUNS,
    pinned_sequence,
    run_digest,
)


def small_sequence(seed=3, num_events=6):
    return scenario_sequence(STRESS, seed, num_events)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------
class TestConstruction:
    def test_bad_window_rejected(self):
        with pytest.raises(SchedulerError, match="window"):
            InvariantChecker(window=0)

    def test_bad_check_every_rejected(self):
        with pytest.raises(SchedulerError, match="check_every"):
            InvariantChecker(check_every=0)


# ---------------------------------------------------------------------------
# Clean runs
# ---------------------------------------------------------------------------
class TestCleanRuns:
    @pytest.mark.parametrize("name", sorted(ALL_SCHEDULERS))
    def test_every_scheduler_passes_the_suite(self, name):
        hv, checker = checked_run(name, small_sequence())
        assert hv.all_retired
        assert checker.passes_checked > 0

    def test_full_rate_chaos_passes_the_suite(self):
        fault_config = chaos_scenario("mixed").fault_config(1.0, seed=5)
        hv, checker = checked_run(
            "nimblock", small_sequence(), fault_config=fault_config
        )
        assert checker.passes_checked > 0

    def test_overloaded_admission_passes_the_suite(self):
        from repro.experiments.ext_overload import (
            OVERLOAD_WORKLOAD,
            study_sequence,
        )

        sequence = study_sequence(OVERLOAD_WORKLOAD, 3, 24, 4.0)
        for policy in ("reject", "shed", "degrade"):
            _, checker = checked_run(
                "fcfs", sequence,
                admission=AdmissionController(policy, seed=3),
            )
            assert checker.passes_checked > 0

    def test_checked_run_matches_golden_pin(self):
        # The checker only reads state: a checked nimblock run hashes to
        # the same golden pin as the unobserved run.
        hv, _ = checked_run("nimblock", pinned_sequence())
        assert run_digest("nimblock") == PINNED_RUNS["nimblock"]
        # And directly: attach a checker through the observer hook and
        # compare against a plain run of the same workload.
        checker = InvariantChecker()
        observed = Hypervisor(make_scheduler("nimblock"), observer=checker)
        for request in pinned_sequence().to_requests():
            observed.submit(request)
        observed.run()
        assert len(observed.trace) == len(hv.trace)

    def test_check_every_samples_passes(self):
        checker = InvariantChecker(check_every=10 ** 9)
        hv = Hypervisor(make_scheduler("nimblock"), observer=checker)
        for request in small_sequence().to_requests():
            hv.submit(request)
        hv.run()
        assert hv.scheduler_passes > 0
        assert checker.passes_checked == 0  # sampled out entirely
        checker.check_now(hv, hv.engine.now)
        assert checker.passes_checked == 1


# ---------------------------------------------------------------------------
# Violations
# ---------------------------------------------------------------------------
class _CorruptingChecker(InvariantChecker):
    """Checker that corrupts hypervisor state once, mid-run, then checks."""

    def __init__(self, corruption, after_passes=10, **kwargs):
        super().__init__(**kwargs)
        self._corruption = corruption
        self._after = after_passes
        self._seen = 0
        self.corrupted = False

    def pass_finished(self, hypervisor, now, token):
        self._seen += 1
        if not self.corrupted and self._seen >= self._after:
            if self._corruption(hypervisor):
                self.corrupted = True
        super().pass_finished(hypervisor, now, token)


def _run_corrupted(corruption, scheduler="nimblock", mode="full", **kwargs):
    checker = _CorruptingChecker(corruption, **kwargs)
    hv = Hypervisor(make_scheduler(scheduler), observer=checker, mode=mode)
    for request in small_sequence().to_requests():
        hv.submit(request)
    hv.run()
    return checker


def _lower_first_token(hv):
    pending = hv.pending.in_arrival_order()
    if not pending:
        return False
    pending[0].token = pending[0].priority - 5.0
    return True


class TestViolations:
    def test_token_decrease_raises(self):
        with pytest.raises(InvariantViolation) as info:
            _run_corrupted(_lower_first_token)
        assert info.value.invariant == "token-conservation"
        assert info.value.events  # carries the trace window

    def test_rowless_trace_still_names_the_invariant(self):
        # Metrics mode has no rows to attach, but the violation must
        # still surface as itself rather than as a row-access error.
        with pytest.raises(InvariantViolation) as info:
            _run_corrupted(_lower_first_token, mode="metrics")
        assert info.value.invariant == "token-conservation"
        assert info.value.events == ()

    def test_slot_index_mismatch_raises(self):
        from repro.overlay.device import SlotPhase

        def corrupt(hv):
            for slot in hv.device.slots:
                if slot.phase is not SlotPhase.OCCUPIED:
                    continue
                occupant = slot.occupant
                if occupant is not None:
                    occupant[1].slot_index = slot.index + 1
                    return True
            return False

        with pytest.raises(InvariantViolation) as info:
            _run_corrupted(corrupt)
        assert info.value.invariant == "slot-mutual-exclusion"

    def test_queue_drift_raises(self):
        def corrupt(hv):
            hv.pending._dead += 1
            return True

        with pytest.raises(InvariantViolation) as info:
            _run_corrupted(corrupt)
        assert info.value.invariant == "pending-queue-consistency"

    def test_window_bounds_the_attached_events(self):
        def corrupt(hv):
            hv.pending._dead += 1
            return True

        with pytest.raises(InvariantViolation) as info:
            _run_corrupted(corrupt, window=5)
        assert 0 < len(info.value.events) <= 5

    def test_violation_message_is_self_contained(self):
        error = InvariantViolation(
            "slot-mutual-exclusion", "slot 3 hosts two tasks",
            events=("EVENT-A", "EVENT-B"),
        )
        text = str(error)
        assert "[slot-mutual-exclusion]" in text
        assert "slot 3 hosts two tasks" in text
        assert "offending trace window (last 2)" in text
        assert "EVENT-A" in text and "EVENT-B" in text

    def test_final_state_check_on_completed_run(self):
        hv, checker = checked_run("fcfs", small_sequence())
        hv.pending._dead += 1
        with pytest.raises(InvariantViolation):
            checker.check_now(hv, hv.engine.now)
