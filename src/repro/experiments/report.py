"""Paper-vs-measured comparison report (drives ``EXPERIMENTS.md``).

For every table and figure, the report states the paper's quantitative
claim, the value measured by this reproduction, and a verdict:

* ``HELD`` — the qualitative shape (ordering, crossover, trend) matches;
* ``PARTIAL`` — the direction matches but a stated magnitude does not;
* ``DIVERGED`` — the shape does not match.

Absolute factors are expected to differ (the substrate is a simulator
without the board's data-movement and control overheads); shapes are the
reproduction contract.

Every simulation-derived line of the report is deterministic — identical
across reruns, worker counts (``--jobs``) and cache states. The one
exception is the §1/§6 scheduler-overhead row, which is a *live*
wall-clock microbenchmark of the host (see
:mod:`repro.experiments.overhead`); its evidence numbers vary run to run
while its verdict stays stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.experiments import (
    fig5_response,
    fig6_tail,
    fig7_deadlines,
    fig8_breakdown,
    fig9_ablation,
    fig10_alexnet,
    fig11_throughput,
    overhead,
    table1,
    table2,
    table3,
)
from repro.experiments.runner import ExperimentSettings, RunCache


@dataclass(frozen=True)
class Finding:
    """One compared claim."""

    experiment: str
    claim: str
    measured: str
    verdict: str  # HELD / PARTIAL / DIVERGED

    def as_markdown_row(self) -> str:
        return (
            f"| {self.experiment} | {self.claim} | {self.measured} "
            f"| {self.verdict} |"
        )


def _verdict(held: bool, partial: bool = False) -> str:
    if held:
        return "HELD"
    return "PARTIAL" if partial else "DIVERGED"


def _check_table1() -> List[Finding]:
    result = table1.run()
    return [
        Finding(
            "Table 1",
            "10 uniform slots + static region fit the ZCU106; slot uses "
            "46-92 DSP, 9680-12960 LUT",
            f"floorplan valid: {result.floorplan_valid}; "
            f"slot DSP range {result.slot_range['DSP']}",
            _verdict(
                result.floorplan_valid
                and result.slot_range["DSP"] == (46, 92)
            ),
        )
    ]


def _check_table2() -> List[Finding]:
    result = table2.run()
    return [
        Finding(
            "Table 2",
            "benchmark task/edge counts (AlexNet 38/184, OF 9/8, ...)",
            "all six benchmarks match exactly"
            if result.all_match else "counts differ",
            _verdict(result.all_match),
        )
    ]


def _check_table3(cache: RunCache, settings: ExperimentSettings) -> List[Finding]:
    result = table3.run(cache=cache, settings=settings)
    findings = []
    short_ok = all(
        result.response("nimblock", name) < result.response("baseline", name)
        for name in ("lenet", "imgc", "3dr")
    )
    findings.append(
        Finding(
            "Table 3",
            "sub-second benchmarks collapse from hundreds of seconds "
            "(baseline head-of-line blocking) to seconds under sharing",
            "; ".join(
                f"{name}: {result.response('baseline', name):.0f}s -> "
                f"{result.response('nimblock', name):.1f}s"
                for name in ("lenet", "imgc", "3dr")
            ),
            _verdict(short_ok),
        )
    )
    of_best = result.response("nimblock", "of") <= min(
        result.response(s, "of") for s in ("prema", "rr", "fcfs")
    )
    findings.append(
        Finding(
            "Table 3",
            "Nimblock leads on the longer-running optical flow "
            "(14.35s vs 29-31s for others in the paper)",
            f"of: nimblock {result.response('nimblock', 'of'):.1f}s, "
            f"prema {result.response('prema', 'of'):.1f}s, "
            f"rr {result.response('rr', 'of'):.1f}s, "
            f"fcfs {result.response('fcfs', 'of'):.1f}s",
            _verdict(of_best, partial=True),
        )
    )
    return findings


def _check_fig5(cache: RunCache, settings: ExperimentSettings) -> List[Finding]:
    result = fig5_response.run(cache=cache, settings=settings)
    findings = []
    wins = all(
        result.best_scheduler(s) == "nimblock" for s in result.scenarios
    )
    findings.append(
        Finding(
            "Fig 5",
            "Nimblock has the best average response-time reduction in all "
            "three scenarios (4.7x/5.7x/3.1x over baseline in the paper)",
            "; ".join(
                f"{s}: nimblock {result.reduction(s, 'nimblock'):.1f}x"
                for s in result.scenarios
            ),
            _verdict(wins),
        )
    )
    stress_order = (
        result.reduction("stress", "nimblock")
        > result.reduction("stress", "prema")
        > result.reduction("stress", "rr")
    )
    findings.append(
        Finding(
            "Fig 5",
            "stress ordering Nimblock > PREMA > RR (5.7 > 4.8 > 3.7 in "
            "the paper)",
            f"stress: nb {result.reduction('stress', 'nimblock'):.1f}x, "
            f"prema {result.reduction('stress', 'prema'):.1f}x, "
            f"rr {result.reduction('stress', 'rr'):.1f}x",
            _verdict(stress_order),
        )
    )
    return findings


def _check_fig6(cache: RunCache, settings: ExperimentSettings) -> List[Finding]:
    result = fig6_tail.run(cache=cache, settings=settings)
    best95 = all(
        result.best_scheduler(s, 95.0) == "nimblock"
        for s in result.scenarios
    )
    rt99 = result.tail("realtime", 99.0, "nimblock") < result.tail(
        "realtime", 99.0, "rr"
    )
    return [
        Finding(
            "Fig 6",
            "Nimblock best 95th-percentile tail in every scenario",
            "; ".join(
                f"{s}: best={result.best_scheduler(s, 95.0)}"
                for s in result.scenarios
            ),
            _verdict(best95),
        ),
        Finding(
            "Fig 6",
            "real-time 99th percentile: Nimblock far below RR "
            "(4.8x better in the paper)",
            f"rt-99: nimblock "
            f"{result.tail('realtime', 99.0, 'nimblock'):.2f} vs rr "
            f"{result.tail('realtime', 99.0, 'rr'):.2f} (normalized)",
            _verdict(rt99),
        ),
    ]


def _check_fig7(cache: RunCache, settings: ExperimentSettings) -> List[Finding]:
    result = fig7_deadlines.run(cache=cache, settings=settings)
    findings = []
    for scenario in result.scenarios:
        rates = result.tightest_rates(scenario)
        others = [r for s, r in rates.items() if s != "nimblock"]
        best = rates["nimblock"] <= min(others) + 1e-9
        margin = (
            (min(others) - rates["nimblock"]) / min(others)
            if min(others) > 0 else 0.0
        )
        findings.append(
            Finding(
                "Fig 7",
                f"{scenario}: Nimblock lowest violation rate at the "
                "tightest deadline (49%/44%/14% fewer in the paper)",
                f"D_s=1: nimblock {rates['nimblock']:.0%}, best other "
                f"{min(others):.0%} ({margin:.0%} fewer)",
                _verdict(best),
            )
        )
    return findings


def _check_fig8(cache: RunCache, settings: ExperimentSettings) -> List[Finding]:
    result = fig8_breakdown.run(cache=cache, settings=settings)
    dr_ok = True
    measured = []
    if "dr" in result.breakdowns:
        dr = result.breakdowns["dr"]
        dr_ok = dr.run_fraction > 10 * dr.reconfig_fraction
        measured.append(
            f"dr: run {dr.run_fraction:.0%}, PR {dr.reconfig_fraction:.2%}"
        )
    if "imgc" in result.breakdowns:
        imgc = result.breakdowns["imgc"]
        measured.append(
            f"imgc: run {imgc.run_fraction:.0%}, "
            f"PR {imgc.reconfig_fraction:.0%}, wait {imgc.wait_fraction:.0%}"
        )
    return [
        Finding(
            "Fig 8",
            "long benchmarks are run-dominated; short benchmarks show "
            "visible reconfiguration and wait shares",
            "; ".join(measured) or "insufficient samples",
            _verdict(dr_ok),
        )
    ]


def _check_fig9(cache: RunCache, settings: ExperimentSettings) -> List[Finding]:
    result = fig9_ablation.run(cache=cache, settings=settings)
    big = max(result.batch_sizes)
    neutral1 = all(
        abs(result.relative_response(1, v) - 1.0) < 0.25
        for v in result.variants
    )
    ordering = (
        result.relative_response(big, "nimblock_no_preempt") >= 0.95
        and result.relative_response(big, "nimblock_no_pipe") >= 1.05
    )
    overlap = abs(
        result.relative_response(big, "nimblock_no_pipe")
        - result.relative_response(big, "nimblock_no_preempt_no_pipe")
    ) < 0.15 * result.relative_response(big, "nimblock_no_pipe")
    return [
        Finding(
            "Fig 9",
            "batch 1 shows no ablation effect; removing pipelining costs "
            "~1.2x; NoPipe and NoPreemptNoPipe overlap",
            f"batch {big}: no_preempt "
            f"{result.relative_response(big, 'nimblock_no_preempt'):.2f}x, "
            f"no_pipe "
            f"{result.relative_response(big, 'nimblock_no_pipe'):.2f}x, "
            f"neither "
            f"{result.relative_response(big, 'nimblock_no_preempt_no_pipe'):.2f}x",
            _verdict(neutral1 and ordering and overlap,
                     partial=ordering),
        )
    ]


def _check_fig10_11(cache: RunCache, settings: ExperimentSettings) -> List[Finding]:
    r10 = fig10_alexnet.run(cache=cache, settings=settings)
    r11 = fig11_throughput.run(cache=cache, settings=settings)
    big = max(r10.batch_sizes)
    pipe_best = r10.response(big, "nimblock") <= r10.response(
        big, "nimblock_no_pipe"
    )
    sublinear = r10.response(big, "nimblock") < big * r10.response(
        1, "nimblock"
    )
    throughput_grows = r11.items_per_s(big, "nimblock") > r11.items_per_s(
        1, "nimblock"
    )
    flattens = (
        r11.items_per_s(big, "nimblock")
        < 2.0 * r11.items_per_s(5, "nimblock")
        if 5 in r11.batch_sizes else True
    )
    return [
        Finding(
            "Fig 10",
            "AlexNet response grows sublinearly with batch size; "
            "pipelining variants fastest",
            f"batch 1 -> {big}: "
            f"{r10.response(1, 'nimblock'):.1f}s -> "
            f"{r10.response(big, 'nimblock'):.1f}s",
            _verdict(pipe_best and sublinear),
        ),
        Finding(
            "Fig 11",
            "AlexNet throughput higher with pipelining and flattens "
            "beyond batch ~5",
            f"items/s at batch 1/{big}: "
            f"{r11.items_per_s(1, 'nimblock'):.3f} / "
            f"{r11.items_per_s(big, 'nimblock'):.3f}",
            _verdict(throughput_grows and flattens),
        ),
    ]


def _check_overhead() -> List[Finding]:
    result = overhead.run(num_apps=10, iterations=50)
    return [
        Finding(
            "§1/§6",
            "heuristic scheduling is orders of magnitude cheaper than "
            "exact (ILP-style) solving",
            f"decision {result.nimblock_decision_s * 1e6:.0f} us vs exact "
            f"solve {result.exact_solve_s * 1e3:.0f} ms "
            f"({result.speedup:.0f}x)",
            _verdict(result.speedup > 50),
        )
    ]


def _prewarm_shared_runs(
    cache: RunCache, settings: ExperimentSettings
) -> None:
    """Fan the report's shared stimuli out in one batch.

    Figures 5-8 reuse the scenario sequences and Table 3 its fixed-batch
    workload; prewarming them together gives the parallel executor the
    widest fan-out, after which the per-figure grids are pure lookups.
    """
    from repro.experiments.table3 import TABLE3_BATCH, TABLE3_DELAY_MS
    from repro.schedulers.registry import ALL_SCHEDULERS
    from repro.workload.scenarios import SCENARIOS, fixed_batch_sequence

    sequences = [
        sequence
        for scenario in SCENARIOS
        for sequence in settings.sequences(scenario)
    ]
    sequences.extend(
        fixed_batch_sequence(
            TABLE3_BATCH, seed,
            delay_ms=TABLE3_DELAY_MS, num_events=settings.num_events,
        )
        for seed in settings.seeds()
    )
    cache.prewarm(ALL_SCHEDULERS, sequences)


def generate_findings(
    cache: Optional[RunCache] = None,
    settings: Optional[ExperimentSettings] = None,
) -> List[Finding]:
    """Run every experiment and compare against the paper's claims."""
    cache = cache or RunCache()
    settings = settings or ExperimentSettings.from_env()
    _prewarm_shared_runs(cache, settings)
    findings: List[Finding] = []
    findings.extend(_check_table1())
    findings.extend(_check_table2())
    findings.extend(_check_table3(cache, settings))
    findings.extend(_check_fig5(cache, settings))
    findings.extend(_check_fig6(cache, settings))
    findings.extend(_check_fig7(cache, settings))
    findings.extend(_check_fig8(cache, settings))
    findings.extend(_check_fig9(cache, settings))
    findings.extend(_check_fig10_11(cache, settings))
    findings.extend(_check_overhead())
    return findings


def format_findings(findings: List[Finding]) -> str:
    """Markdown table of all findings."""
    held = sum(1 for f in findings if f.verdict == "HELD")
    lines = [
        "| Experiment | Paper claim | Measured | Verdict |",
        "|---|---|---|---|",
    ]
    lines.extend(f.as_markdown_row() for f in findings)
    lines.append("")
    lines.append(
        f"{held}/{len(findings)} claims HELD "
        f"({sum(1 for f in findings if f.verdict == 'PARTIAL')} partial, "
        f"{sum(1 for f in findings if f.verdict == 'DIVERGED')} diverged)."
    )
    return "\n".join(lines)


# CLI adapter: `nimblock-repro report`.
def run(settings=None, cache=None) -> List[Finding]:
    """Experiment-module interface used by the CLI."""
    return generate_findings(cache=cache, settings=settings)


def format_result(findings: List[Finding]) -> str:
    """Experiment-module interface used by the CLI."""
    return format_findings(findings)
