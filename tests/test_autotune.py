"""Tests for the closed-loop remediation pipeline (``repro.autotune``).

Covers the four stages in isolation (detector rules, proposer rule
table, verifier scoring/ranking, applier swaps), the end-to-end drill
(an induced overload episode detected, patched and recovered mid-run),
the determinism contracts (``--jobs`` byte-identity, replay on/off,
armed-but-quiet zero-delta), the zero-cost lazy-import discipline, the
per-board cluster path, and the PR's satellite counters (admission
overload edges, per-priority shed, watchdog/overload observe metrics).
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.autotune import (
    AutotuneConfig,
    ConfigPatch,
    CounterDeltas,
    DetectorConfig,
    EpisodeMemo,
    SYMPTOM_KINDS,
    TunableConfig,
    WindowSignal,
    detect,
    propose,
    replay_episode,
    verify_candidates,
)
from repro.errors import AutotuneError, ServiceError
from repro.experiments import ext_overload
from repro.experiments.parallel import ServiceCell, run_cells
from repro.facade import tune, tune_report
from repro.metrics.slo import SloTarget

SLO = SloTarget(p99_ms=1_000.0, max_loss_frac=0.05)
DET = DetectorConfig(slo=SLO)


def failing_windows(n, start=0, p99=5_000.0, arrived=10):
    return [
        WindowSignal(index=start + i, arrived=arrived, completed=arrived,
                     p99_ms=p99)
        for i in range(n)
    ]


def passing_window(index, arrived=10):
    return WindowSignal(index=index, arrived=arrived, completed=arrived,
                        p99_ms=10.0)


# ---------------------------------------------------------------------------
# Detector
# ---------------------------------------------------------------------------
class TestDetector:
    def test_slo_breach_needs_full_trailing_run(self):
        two = failing_windows(2)
        assert not any(
            s.kind == "slo_breach"
            for s in detect(two, CounterDeltas(), DET)
        )
        three = failing_windows(3)
        kinds = [s.kind for s in detect(three, CounterDeltas(), DET)]
        assert "slo_breach" in kinds

    def test_slo_breach_run_broken_by_met_window(self):
        windows = failing_windows(2) + [passing_window(2)] \
            + failing_windows(2, start=3)
        assert not any(
            s.kind == "slo_breach"
            for s in detect(windows, CounterDeltas(), DET)
        )

    def test_queue_growth_requires_depth_and_monotonicity(self):
        deep = [
            WindowSignal(index=i, arrived=5, completed=1,
                         peak_pending=20 + 4 * i)
            for i in range(3)
        ]
        kinds = [s.kind for s in detect(deep, CounterDeltas(), DET)]
        assert "queue_growth" in kinds
        shrinking = [
            WindowSignal(index=i, arrived=5, completed=1,
                         peak_pending=40 - 10 * i)
            for i in range(3)
        ]
        assert not any(
            s.kind == "queue_growth"
            for s in detect(shrinking, CounterDeltas(), DET)
        )

    def test_shed_storm_fraction_over_trailing_windows(self):
        stormy = [
            WindowSignal(index=i, arrived=10, completed=6, shed=4,
                         p99_ms=10.0)
            for i in range(2)
        ]
        found = detect(stormy, CounterDeltas(), DET)
        storm = [s for s in found if s.kind == "shed_storm"]
        assert storm and storm[0].severity == pytest.approx(0.4)

    def test_counter_rules(self):
        counters = CounterDeltas(
            overload_enters=5, overload_ms=1000.0, starvations=1, stalls=2
        )
        kinds = [s.kind for s in detect([], counters, DET)]
        assert kinds == ["overload_oscillation", "starvation",
                         "stall_cluster"]

    def test_power_pressure_only_with_cap(self):
        hot = CounterDeltas(energy_j=100.0, span_ms=1_000.0,
                            power_cap_w=45.0)
        kinds = [s.kind for s in detect([], hot, DET)]
        assert kinds == ["power_pressure"]
        uncapped = CounterDeltas(energy_j=100.0, span_ms=1_000.0)
        assert detect([], uncapped, DET) == ()

    def test_catalogue_order_and_uniqueness(self):
        windows = failing_windows(4) + [
            WindowSignal(index=4, arrived=10, completed=2, shed=8,
                         p99_ms=5_000.0, peak_pending=40),
            WindowSignal(index=5, arrived=10, completed=2, shed=8,
                         p99_ms=5_000.0, peak_pending=48),
            WindowSignal(index=6, arrived=10, completed=2, shed=8,
                         p99_ms=5_000.0, peak_pending=50),
        ]
        counters = CounterDeltas(
            overload_enters=9, starvations=3, stalls=5,
            energy_j=100.0, span_ms=1_000.0, power_cap_w=45.0,
        )
        symptoms = detect(windows, counters, DET)
        kinds = [s.kind for s in symptoms]
        assert kinds == list(SYMPTOM_KINDS)
        assert len(set(kinds)) == len(kinds)

    def test_inactive_windows_ignored_and_order_normalized(self):
        windows = failing_windows(3)
        noisy = [WindowSignal(index=99)] + list(reversed(windows))
        assert detect(noisy, CounterDeltas(), DET) == detect(
            windows, CounterDeltas(), DET
        )

    def test_config_validation(self):
        with pytest.raises(AutotuneError, match="breach_windows"):
            DetectorConfig(breach_windows=0)
        with pytest.raises(AutotuneError, match="storm_frac"):
            DetectorConfig(storm_frac=1.5)


# ---------------------------------------------------------------------------
# Proposer
# ---------------------------------------------------------------------------
class TestProposer:
    def breach(self, depth=40.0):
        return detect(
            failing_windows(3, arrived=20) + [
                WindowSignal(index=3 + i, arrived=20, completed=5,
                             p99_ms=5_000.0, peak_pending=int(depth))
                for i in range(3)
            ],
            CounterDeltas(),
            DET,
        )

    def test_unbounded_breach_offers_shed_and_degrade(self):
        tuning = TunableConfig()
        patches = propose(self.breach(), tuning)
        assert patches
        rules = [p.rule for p in patches]
        assert "bound-backlog" in rules and "degrade-backlog" in rules
        assert [p.risk for p in patches] == sorted(p.risk for p in patches)
        # Backoff-retry rejection hides loss from verifier attribution:
        # the proposer must never emit it.
        assert all(p.admission != "reject" for p in patches)

    def test_patch_rejects_reject_policy_and_bad_risk(self):
        with pytest.raises(AutotuneError, match="reject"):
            ConfigPatch(rule="r", symptom="s", risk=1, reason="",
                        admission="reject")
        with pytest.raises(AutotuneError, match="risk"):
            ConfigPatch(rule="r", symptom="s", risk=7, reason="")

    def test_watchdog_rules_are_risk_zero(self):
        tuning = TunableConfig(
            watchdog_knobs=(
                ("boost_tokens", False),
                ("stall_passes", 40),
                ("starvation_passes", 400),
            ),
        )
        symptoms = detect(
            [], CounterDeltas(starvations=2, stalls=3), DET
        )
        patches = propose(symptoms, tuning)
        watchdog_rules = [p for p in patches if p.watchdog_knobs]
        assert watchdog_rules
        assert all(p.risk == 0 for p in watchdog_rules)

    def test_no_symptoms_no_patches(self):
        assert propose((), TunableConfig()) == ()

    def test_dedup_and_noop_dropped(self):
        tuning = TunableConfig()
        patches = propose(self.breach(), tuning)
        ids = [p.patch_id for p in patches]
        assert len(ids) == len(set(ids))
        assert all(p.apply(tuning) != tuning for p in patches)

    def test_scheduler_swap_only_for_non_nimblock(self):
        nb = propose(self.breach(), TunableConfig())
        assert all(p.scheduler is None for p in nb)
        fc = propose(self.breach(), TunableConfig(scheduler="fcfs"))
        swaps = [p for p in fc if p.scheduler == "nimblock"]
        assert len(swaps) == 1 and swaps[0].risk == 3


# ---------------------------------------------------------------------------
# Verifier
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def burst_specs():
    return tuple(ext_overload.study_sequence(
        ext_overload.OVERLOAD_WORKLOAD, 1, 24, 4.0
    ))


class TestVerifier:
    def test_replay_episode_deterministic(self, burst_specs):
        tuning = TunableConfig()
        a = replay_episode(burst_specs, tuning, seed=1,
                           window_ms=10_000.0, slo=SLO)
        b = replay_episode(burst_specs, tuning, seed=1,
                           window_ms=10_000.0, slo=SLO)
        assert a.to_dict() == b.to_dict()
        assert a.digest() == b.digest()
        assert a.arrived == len(burst_specs)

    def test_verify_rejects_regression_and_no_improvement(self, burst_specs):
        # A generous SLO the unprotected baseline fully meets: any
        # shedding can only regress (loss) or tie (shed nothing).
        from repro.metrics.slo import DEFAULT_SERVICE_SLO

        tuning = TunableConfig()
        harmless = ConfigPatch(
            rule="bound-backlog", symptom="slo_breach", risk=1,
            reason="", admission="shed",
            admission_knobs=(
                ("low_watermark", 500), ("queue_capacity", 1000),
            ),
        )
        harmful = ConfigPatch(
            rule="bound-backlog", symptom="slo_breach", risk=1,
            reason="", admission="shed",
            admission_knobs=(("low_watermark", 1), ("queue_capacity", 2)),
        )
        baseline, verifications, winner = verify_candidates(
            burst_specs, tuning, (harmless, harmful),
            seed=1, window_ms=10_000.0, slo=DEFAULT_SERVICE_SLO,
        )
        assert baseline.attainment == 1.0
        assert len(verifications) == 2
        by_id = {v.patch.patch_id: v for v in verifications}
        # The huge cap sheds nothing: identical outcome, no reason to
        # take on patch risk.
        assert by_id[harmless.patch_id].verdict == "rejected:no-improvement"
        # The brutal two-slot cap sheds most of the burst: loss blows
        # the budget and attainment drops below the baseline's.
        assert by_id[harmful.patch_id].verdict == "rejected:regression"
        assert by_id[harmful.patch_id].score.shed > 0
        assert winner is None

    def test_memo_hits_on_identical_replay(self, burst_specs):
        memo = EpisodeMemo()
        tuning = TunableConfig()
        patch = ConfigPatch(
            rule="bound-backlog", symptom="slo_breach", risk=1,
            reason="", admission="shed",
            admission_knobs=(("low_watermark", 6), ("queue_capacity", 12)),
        )
        kwargs = dict(seed=1, window_ms=10_000.0, slo=SLO, memo=memo)
        first = verify_candidates(burst_specs, tuning, (patch,), **kwargs)
        again = verify_candidates(burst_specs, tuning, (patch,), **kwargs)
        assert memo.hits > 0
        assert first[0].to_dict() == again[0].to_dict()

    def test_empty_episode_is_refused(self):
        with pytest.raises(AutotuneError, match="empty episode"):
            replay_episode((), TunableConfig(), seed=1,
                           window_ms=10_000.0, slo=SLO)


# ---------------------------------------------------------------------------
# End-to-end drill
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def drill():
    """The acceptance drill: 4x burst episode, unbounded start, armed."""
    return tune(rate=1.0, submissions=600, seed=1, jobs=1)


class TestEndToEndDrill:
    def test_patch_detected_verified_and_applied_mid_run(self, drill):
        tuned = drill["tuned"]
        assert tuned["applies"] >= 1
        applied = [d for d in tuned["decisions"] if d["applied"]]
        assert applied
        decision = applied[0]
        assert decision["symptoms"]
        verdicts = {
            v["patch"]["patch_id"]: v["verdict"]
            for v in decision["candidates"]
        }
        assert verdicts[decision["applied"]] == "verified"
        assert decision["tuning_after"] != decision["tuning_before"]
        assert decision["digest"]

    def test_remediation_beats_static_baseline(self, drill):
        assert drill["tuned"]["p99_ms"] < drill["baseline"]["p99_ms"]
        post = drill["post_apply"]
        assert post["tuned"]["attainment"] > post["baseline"]["attainment"]
        # The static baseline keeps missing the SLO after the point where
        # the tuned run patched itself and recovered.
        assert post["baseline"]["met"] == 0
        assert post["tuned"]["met"] >= 1

    def test_rejected_candidates_carry_scores(self, drill):
        rejected = [
            v
            for d in drill["tuned"]["decisions"]
            for v in d["candidates"]
            if v["verdict"] != "verified"
        ]
        assert rejected
        assert all(v["verdict"].startswith("rejected") for v in rejected)

    def test_payload_is_json_safe_and_digested(self, drill):
        blob = json.dumps(drill, sort_keys=True)
        assert drill["digest"] in blob


# ---------------------------------------------------------------------------
# Determinism contracts
# ---------------------------------------------------------------------------
EPISODE_SPEC = (
    "episode",
    (("phases", ((30.0, 2.0), (60.0, 8.0), (60.0, 2.0))),),
)


def service_task(*, armed, replay=True, submissions=240,
                 arrival=EPISODE_SPEC):
    return ServiceCell(
        "nimblock", "unbounded", 1, submissions, 10_000.0,
        arrivals=arrival, replay=replay,
        autotune=AutotuneConfig() if armed else None,
    )


class TestDeterminism:
    def test_jobs_identity(self, drill):
        assert drill == tune(rate=1.0, submissions=600, seed=1, jobs=2)

    def test_replay_flag_identity_when_armed(self):
        on, off = run_cells(
            [service_task(armed=True, replay=True),
             service_task(armed=True, replay=False)],
            jobs=1,
        )
        assert on == off

    def test_armed_but_quiet_matches_plain_payload(self):
        calm = ("poisson", (("rate_per_s", 0.2),))
        armed, plain = run_cells(
            [service_task(armed=True, submissions=40, arrival=calm),
             service_task(armed=False, submissions=40, arrival=calm)],
            jobs=1,
        )
        assert armed["decisions"] == []
        assert armed["applies"] == 0
        stripped = {
            k: v for k, v in armed.items()
            if k not in ("decisions", "applies")
        }
        assert stripped == plain

    def test_tune_report_json_matches_payload(self):
        text = tune_report(
            rate=2.0, submissions=120, seed=1, as_json=True, jobs=1,
        )
        payload = json.loads(text)
        assert payload == tune(rate=2.0, submissions=120, seed=1, jobs=1)

    def test_autotune_refuses_snapshotting_loops(self):
        from repro.service.loop import ServiceLoop
        from repro.workload.arrivals import service_rate_process

        with pytest.raises(ServiceError, match="snapshot"):
            ServiceLoop(
                service_rate_process(1.0, seed=1),
                max_submissions=10,
                snapshot_every_windows=4,
                autotune=AutotuneConfig(),
            )


# ---------------------------------------------------------------------------
# Zero-cost discipline
# ---------------------------------------------------------------------------
class TestZeroCost:
    def test_unarmed_runs_never_import_autotune(self):
        code = (
            "import sys\n"
            "from repro.facade import serve\n"
            "serve('nimblock', rate=1.0, submissions=20, mode='metrics')\n"
            "assert not [m for m in sys.modules if 'autotune' in m], "
            "'autotune imported on an un-armed run'\n"
            "print('CLEAN')\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=240,
        )
        assert result.returncode == 0, result.stderr
        assert "CLEAN" in result.stdout


# ---------------------------------------------------------------------------
# Cluster boards
# ---------------------------------------------------------------------------
class TestClusterAutotune:
    def test_armed_boards_carry_decision_records(self):
        from repro.facade import fleet

        plain = fleet(2, num_events=10, seed=3, jobs=1, mode="metrics")
        armed = fleet(
            2, num_events=10, seed=3, jobs=1, mode="metrics",
            autotune=AutotuneConfig(),
        )
        assert all("autotune" not in p for p in plain.boards)
        assert all("autotune" in p for p in armed.boards)
        for payload in armed.boards:
            record = payload["autotune"]
            assert record["tuning_before"]["scheduler"] == "nimblock"
            assert isinstance(record["symptoms"], list)

    def test_armed_cluster_jobs_identity(self):
        from repro.facade import fleet

        one = fleet(3, num_events=12, seed=5, jobs=1, mode="metrics",
                    autotune=AutotuneConfig())
        two = fleet(3, num_events=12, seed=5, jobs=2, mode="metrics",
                    autotune=AutotuneConfig())
        assert one.to_dict() == two.to_dict()
        assert one.snapshot_digest() == two.snapshot_digest()

    def test_breach_before_the_drain_applies_a_patch(self):
        # Every finished board run ends in drain windows with no
        # arrivals; detection must read past them to the breach.
        from repro.facade import fleet

        kwargs = dict(
            num_events=400, rate_multiplier=4.0, admission="shed", seed=1,
            mode="metrics", autotune=AutotuneConfig(),
        )
        one = fleet(2, jobs=1, **kwargs)
        record = one.boards[1]["autotune"]
        assert "slo_breach" in [s["kind"] for s in record["symptoms"]]
        verified = [
            c["patch"]["patch_id"] for c in record["candidates"]
            if c["verdict"] == "verified"
        ]
        assert record["applied"] in verified
        assert record["tuning_after"]["admission"] == "degrade"
        assert record["tuning_after"]["admission_knobs"] == {
            "high_watermark": 12, "low_watermark": 6,
        }
        assert one.to_dict() == fleet(2, jobs=2, **kwargs).to_dict()

    def test_fault_injected_boards_are_skipped(self):
        from repro.facade import fleet

        report = fleet(
            2, num_events=10, seed=3, jobs=1, mode="metrics",
            fault_rate=0.05, autotune=AutotuneConfig(),
        )
        for payload in report.boards:
            assert payload["autotune"]["skipped"] == "fault-injected-board"


# ---------------------------------------------------------------------------
# Satellite counters
# ---------------------------------------------------------------------------
class TestSatelliteCounters:
    @pytest.fixture(scope="class")
    def shed_run(self):
        from repro.admission import AdmissionController
        from repro.hypervisor.hypervisor import Hypervisor
        from repro.schedulers.registry import make_scheduler

        sequence = ext_overload.study_sequence(
            ext_overload.OVERLOAD_WORKLOAD, 1, 30, 4.0
        )
        controller = AdmissionController("shed", seed=1, queue_capacity=6)
        hv = Hypervisor(make_scheduler("fcfs"), admission=controller)
        for request in sequence.to_requests():
            hv.submit(request)
        hv.run()
        return hv, controller

    def test_overload_enters_counts_enter_edges(self, shed_run):
        from repro.sim.trace import TraceKind

        hv, controller = shed_run
        enters = hv.trace.count(TraceKind.OVERLOAD_ENTER)
        assert enters > 0
        assert controller.stats.overload_enters == enters

    def test_shed_by_priority_partitions_total_shed(self, shed_run):
        _, controller = shed_run
        stats = controller.stats
        assert stats.shed > 0
        assert sum(stats.shed_by_priority.values()) == stats.shed
        assert all(p >= 1 for p in stats.shed_by_priority)

    def test_observe_snapshot_surfaces_detector_inputs(self):
        from repro.observe.aggregate import observed_run

        sequence = ext_overload.study_sequence(
            ext_overload.OVERLOAD_WORKLOAD, 1, 24, 4.0
        )
        _, observer = observed_run(
            "fcfs", sequence, admission="shed", seed=1
        )
        snapshot = observer.snapshot()
        counters = snapshot["counters"]
        expected = (
            "nimblock_overload_enters_total",
            "nimblock_overload_exits_total",
            "nimblock_overload_ms_total",
            "nimblock_watchdog_stalls_detected_total",
            "nimblock_watchdog_stall_kicks_total",
            "nimblock_watchdog_starvations_detected_total",
            "nimblock_watchdog_starvation_boosts_total",
            "nimblock_apps_shed_priority1_total",
            "nimblock_apps_shed_priority3_total",
            "nimblock_apps_shed_priority9_total",
        )
        for name in expected:
            assert name in counters, name
        shed_total = counters["nimblock_apps_shed_total"]["value"]
        by_priority = sum(
            counters[f"nimblock_apps_shed_priority{p}_total"]["value"]
            for p in (1, 3, 9)
        )
        assert by_priority == shed_total
        assert counters["nimblock_overload_enters_total"]["value"] > 0

    def test_counters_zero_but_present_without_admission(self):
        from repro.observe.aggregate import observed_run
        from repro.workload.scenarios import STRESS, scenario_sequence

        sequence = scenario_sequence(STRESS, seed=1, num_events=6)
        _, observer = observed_run("nimblock", sequence)
        counters = observer.snapshot()["counters"]
        for name in (
            "nimblock_overload_enters_total",
            "nimblock_watchdog_stall_kicks_total",
            "nimblock_apps_shed_priority1_total",
        ):
            assert counters[name]["value"] == 0


# ---------------------------------------------------------------------------
# Study + CLI
# ---------------------------------------------------------------------------
class TestStudyAndCli:
    def test_ext_autotune_runs_and_renders(self):
        from repro.experiments import ext_autotune
        from repro.experiments.runner import ExperimentSettings

        result = ext_autotune.run(
            ExperimentSettings(num_sequences=1, num_events=1),
            submissions=150,
            mode="metrics",
        )
        assert set(result["cells"]) == {
            "static-unbounded", "static-shed", "autotuned"
        }
        assert result["cells"]["autotuned"]["applies"] >= 0
        text = ext_autotune.format_result(result)
        assert "autotuned" in text and "static-shed" in text

    def test_cli_tune_fast_deterministic(self):
        from repro.cli import main

        argv = ["tune", "--fast", "--json", "--submissions", "120"]
        outputs = []
        for jobs in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv, "--jobs", jobs],
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert "baseline" in payload and "tuned" in payload
        assert main is not None  # CLI imports cleanly in-process too
