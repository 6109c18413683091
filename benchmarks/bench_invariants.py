#!/usr/bin/env python3
"""Invariant-checker bench: what paranoia costs, and that "off" is free.

Three claims are pinned here:

* **Disabled is free.** A hypervisor built without a checker executes no
  invariant code — the checker rides the existing ``observer=`` hook, so
  the off path is the same ``if observer is not None`` guards the
  observability layer already pays for, and no ``repro.invariants``
  module is imported on a plain run (checked in a subprocess).
* **Checking never perturbs.** A checked run produces the byte-identical
  trace digest of the plain run: the checker only reads state.
* **Enabled is bounded.** The full suite (slot exclusion, port
  serialization, allocation discipline, token conservation, queue
  consistency) runs after every scheduler pass; its wall-time overhead
  versus the plain run must stay under ``GUARD_OVERHEAD`` — paranoid
  mode is meant to be left on in CI, not sampled.

Standalone usage::

    python benchmarks/bench_invariants.py --bench [--fast]  # record timings
    python benchmarks/bench_invariants.py --guard [--fast]  # CI overhead guard

``--bench`` appends one entry to ``BENCH_invariants.json`` (repo root).
``--guard`` exits non-zero if the structural check, the digest identity
or the overhead bound fails.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

from repro.hypervisor.hypervisor import Hypervisor
from repro.invariants import InvariantChecker
from repro.schedulers.registry import make_scheduler
from repro.workload.scenarios import STRESS, scenario_sequence

#: Default output of ``--bench`` mode.
DEFAULT_BENCH_PATH = (
    Path(__file__).resolve().parent.parent / "BENCH_invariants.json"
)

#: The unchecked path must cost at most this fraction of the checked path
#: (i.e. attaching the checker is the only thing that may cost).
GUARD_THRESHOLD = 1.05

#: Upper bound on the checked/unchecked wall-time ratio. The full suite
#: after every pass costs ~1.7-1.9x in practice; the slack absorbs CI
#: machine noise while still catching an accidentally quadratic check.
GUARD_OVERHEAD = 2.5

#: Subprocess probe: a plain run must not import any invariants module.
_STRUCTURAL_PROBE = """
import sys
from repro.hypervisor.hypervisor import Hypervisor
from repro.schedulers.registry import make_scheduler
from repro.workload.scenarios import STRESS, scenario_sequence
hv = Hypervisor(make_scheduler('nimblock'))
for r in scenario_sequence(STRESS, 1, 6).to_requests():
    hv.submit(r)
hv.run()
bad = sorted(m for m in sys.modules if 'invariants' in m)
if bad:
    raise SystemExit('invariants modules loaded on a plain run: %s' % bad)
"""


def run_workload(seeds, num_events: int, checked: bool) -> float:
    """Wall time of one serial stress sweep, checked or not."""
    started = time.perf_counter()
    for seed in seeds:
        observer = InvariantChecker() if checked else None
        hypervisor = Hypervisor(
            make_scheduler("nimblock"), observer=observer
        )
        for request in scenario_sequence(
            STRESS, seed, num_events
        ).to_requests():
            hypervisor.submit(request)
        hypervisor.run()
    return time.perf_counter() - started


def digest_identity(num_events: int) -> None:
    """Checked and plain runs must produce identical traces (raises)."""
    import hashlib

    from repro.sim.trace_export import trace_to_dict

    digests = []
    for checked in (False, True):
        observer = InvariantChecker() if checked else None
        hypervisor = Hypervisor(
            make_scheduler("nimblock"), observer=observer
        )
        for request in scenario_sequence(
            STRESS, 1, num_events
        ).to_requests():
            hypervisor.submit(request)
        hypervisor.run()
        blob = json.dumps(
            trace_to_dict(hypervisor.trace, label="bench"), sort_keys=True
        )
        digests.append(hashlib.sha256(blob.encode()).hexdigest())
    if digests[0] != digests[1]:
        raise SystemExit(
            f"invariant checker perturbed the run: plain digest "
            f"{digests[0]} != checked digest {digests[1]}"
        )


def measure(fast: bool) -> Dict[str, float]:
    """Interleaved unchecked/checked medians (interleaving absorbs drift)."""
    seeds = (1, 2) if fast else (1, 2, 3, 4)
    num_events = 8 if fast else 16
    repetitions = 3 if fast else 5
    run_workload(seeds, num_events, checked=False)  # warm caches
    unchecked: List[float] = []
    checked: List[float] = []
    for _ in range(repetitions):
        unchecked.append(run_workload(seeds, num_events, checked=False))
        checked.append(run_workload(seeds, num_events, checked=True))
    unchecked_s = statistics.median(unchecked)
    checked_s = statistics.median(checked)
    return {
        "unchecked_s": unchecked_s,
        "checked_s": checked_s,
        "checked_overhead_pct": 100.0 * (checked_s / unchecked_s - 1.0),
    }


def structural_check() -> None:
    """A plain run must not load repro.invariants (raises on failure)."""
    subprocess.run(
        [sys.executable, "-c", _STRUCTURAL_PROBE],
        check=True,
    )


def paranoid_sweep(fast: bool) -> int:
    """Checked runs across schedulers, chaos scenarios and admission.

    Every registry scheduler on a clean stress run, the three liveliest
    chaos scenarios at full fault rate, and every admission policy on
    the 4x overload regime — all with the invariant checker attached.
    Any breach raises :class:`~repro.errors.InvariantViolation` (exit 1
    with the trace window in the message).
    """
    from repro.admission import ADMISSION_POLICIES
    from repro.experiments.ext_overload import OVERLOAD_WORKLOAD, study_sequence
    from repro.invariants import checked_run
    from repro.schedulers.registry import ALL_SCHEDULERS
    from repro.workload.scenarios import chaos_scenario

    num_events = 8 if fast else 16
    for name in ALL_SCHEDULERS:
        _, checker = checked_run(
            name, scenario_sequence(STRESS, 7, num_events)
        )
        print(
            f"paranoid scheduler={name}: {checker.passes_checked} passes "
            "checked, 0 violations"
        )
    for scenario in ("transient", "reconfig", "mixed"):
        cfg = chaos_scenario(scenario).fault_config(1.0, seed=7)
        _, checker = checked_run(
            "nimblock", scenario_sequence(STRESS, 7, num_events),
            fault_config=cfg,
        )
        print(
            f"paranoid chaos={scenario}: {checker.passes_checked} passes "
            "checked, 0 violations"
        )
    overload = study_sequence(OVERLOAD_WORKLOAD, 7, 4 * num_events, 4.0)
    for policy in ADMISSION_POLICIES:
        _, checker = checked_run(
            "fcfs", overload, admission=policy, seed=7,
        )
        print(
            f"paranoid admission={policy}: {checker.passes_checked} passes "
            "checked, 0 violations"
        )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--bench", action="store_true",
                        help="record a timing entry to BENCH_invariants.json")
    parser.add_argument("--guard", action="store_true",
                        help="CI mode: fail on structural/digest/overhead "
                             "drift")
    parser.add_argument("--paranoid", action="store_true",
                        help="checked runs across schedulers, chaos "
                             "scenarios and admission policies; any "
                             "invariant violation fails")
    parser.add_argument("--fast", action="store_true",
                        help="reduced scale for CI")
    parser.add_argument("--out", type=Path, default=DEFAULT_BENCH_PATH)
    args = parser.parse_args(argv)

    if args.paranoid:
        return paranoid_sweep(args.fast)

    structural_check()
    print("structural check: plain runs import no invariants module")
    digest_identity(8 if args.fast else 12)
    print("digest identity: checked runs are byte-identical to plain runs")

    timings = measure(args.fast)
    print(
        f"unchecked {timings['unchecked_s'] * 1e3:8.1f} ms   "
        f"checked {timings['checked_s'] * 1e3:8.1f} ms   "
        f"invariant overhead {timings['checked_overhead_pct']:+.1f}%"
    )

    if args.guard:
        off_ratio = timings["unchecked_s"] / timings["checked_s"]
        if off_ratio > GUARD_THRESHOLD:
            print(
                f"GUARD FAILED: unchecked path at {off_ratio:.3f}x of "
                f"checked (limit {GUARD_THRESHOLD}) — the no-checker path "
                "is doing invariant work",
                file=sys.stderr,
            )
            return 1
        on_ratio = timings["checked_s"] / timings["unchecked_s"]
        if on_ratio > GUARD_OVERHEAD:
            print(
                f"GUARD FAILED: checked path at {on_ratio:.3f}x of "
                f"unchecked (limit {GUARD_OVERHEAD}) — the invariant "
                "suite became too expensive for paranoid CI",
                file=sys.stderr,
            )
            return 1
        print(
            f"overhead guard OK (off {off_ratio:.3f}, on {on_ratio:.3f}x "
            f"<= {GUARD_OVERHEAD}x)"
        )

    if args.bench:
        entry = {
            "timestamp": datetime.datetime.now(
                datetime.timezone.utc
            ).isoformat(timespec="seconds"),
            "fast": args.fast,
            **{k: round(v, 6) for k, v in timings.items()},
        }
        history = []
        if args.out.exists():
            history = json.loads(args.out.read_text())
        history.append(entry)
        args.out.write_text(json.dumps(history, indent=2) + "\n")
        print(f"recorded -> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
