"""Telemetry overhead micro-benchmark with two gates.

**Off-path gate.**  Times the same 4-node scenario three ways —
telemetry off (the default), metrics-only, and fully traced to disk —
and reports the wall-clock overhead of each relative to the off
baseline.  The acceptance criterion is that the telemetry-*off* path
stays within 2% of the pre-telemetry seed.  The seed is not runnable
from this tree, so the off-path cost is bounded constructively instead:
the off path differs from the seed only by ``trace is not None``
attribute tests on event-driven branches, and the number of such branch
hits is exactly the event count a traced run of the same scenario
emits.  The benchmark measures the per-guard cost with a timing loop,
multiplies by the observed event count (with a 4x safety factor), and
checks that upper bound against the 2% budget.

**Enabled-path gate.**  Observing a run must not change which engine
runs it, so turning telemetry on may only add the cost of the probes
themselves.  On a 16-node, load-0.1 sensor-wise scenario the benchmark
takes best-of-N wall times for metrics-only (every probe off, metrics
on) and in-memory tracing (every probe and metrics on, nothing written
to disk), divides each by the telemetry-off time of the same run, and
requires both ratios to stay within :data:`ENABLED_BOUND`.  A traced
run that fell back to dense stepping costs about 3x and fails.

Standalone on purpose (not pytest-collected): wall-clock thresholds
are too machine-dependent for the tier-1 suite.

Usage::

    PYTHONPATH=src python benchmarks/telemetry_overhead.py
        [--cycles 20000] [--warmup 2000] [--repeats 5] [--bound 2.0]
"""

from __future__ import annotations

import argparse
import tempfile
import time
import timeit

from repro.experiments.config import ScenarioConfig
from repro.experiments.runner import run_scenario
from repro.telemetry.config import TelemetryConfig

GUARD_SAFETY_FACTOR = 4.0

#: Max telemetry-on / telemetry-off time ratio of the enabled-path gate.
ENABLED_BOUND = 2.0
#: Measured cycles of the 16-node enabled-path scenario.
ENABLED_CYCLES = 2_000


def time_scenario(scenario: ScenarioConfig, repeats: int) -> float:
    """Best-of-N wall time for one scenario (minimum filters scheduler
    noise better than the mean on a busy host)."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run_scenario(scenario)
        best = min(best, time.perf_counter() - started)
    return best


def guard_cost_seconds() -> float:
    """Cost of one ``self.trace is not None`` test on a real buffer."""
    from repro.noc.buffer import VCBuffer

    buffer = VCBuffer(capacity=4)
    loops = 1_000_000
    elapsed = timeit.timeit(lambda: buffer.trace is not None, number=loops)
    return elapsed / loops


def off_path_gate(args: argparse.Namespace) -> int:
    """Bound the telemetry-off guard cost (see the module docstring)."""
    base = ScenarioConfig(
        num_nodes=4, num_vcs=2, injection_rate=0.1, policy="sensor-wise",
        cycles=args.cycles, warmup=args.warmup, seed=1,
    )

    # Warm caches/interpreter state with one throwaway run.
    run_scenario(base)

    off = time_scenario(base, args.repeats)
    metrics_result = run_scenario(base.traced(trace_dir=None, formats=()))
    event_count = metrics_result.telemetry.total_events
    metrics_only = time_scenario(
        base.traced(trace_dir=None, formats=()), args.repeats
    )
    with tempfile.TemporaryDirectory() as tmp:
        traced = time_scenario(
            base.traced(trace_dir=tmp, formats=("chrome", "jsonl")), args.repeats
        )

    def overhead(t: float) -> float:
        return 100.0 * (t - off) / off

    per_guard = guard_cost_seconds()
    off_bound_s = event_count * per_guard * GUARD_SAFETY_FACTOR
    off_bound_pct = 100.0 * off_bound_s / off

    print(f"scenario {base.label} cycles={args.cycles} warmup={args.warmup}")
    print(f"  telemetry off : {off:7.3f}s (baseline)")
    print(f"  metrics only  : {metrics_only:7.3f}s ({overhead(metrics_only):+5.1f}%)")
    print(f"  fully traced  : {traced:7.3f}s ({overhead(traced):+5.1f}%)")
    print(
        f"  off-path bound: {event_count} guarded branch hits x "
        f"{per_guard * 1e9:.0f}ns x {GUARD_SAFETY_FACTOR:.0f} safety "
        f"= {off_bound_s * 1e3:.2f}ms ({off_bound_pct:.3f}% of baseline)"
    )

    if off_bound_pct > args.bound:
        print(f"FAIL: telemetry-off bound {off_bound_pct:.2f}% > {args.bound}%")
        return 1
    print(f"OK: telemetry-off overhead bounded under {args.bound}%")
    return 0


def enabled_path_gate(repeats: int) -> int:
    """Bound metrics-only and in-memory-traced time against off time."""
    base = ScenarioConfig(
        num_nodes=16, num_vcs=2, injection_rate=0.1, policy="sensor-wise",
        cycles=ENABLED_CYCLES, warmup=ENABLED_CYCLES // 10, seed=1,
    )
    metrics_only = base.replace(telemetry=TelemetryConfig(
        trace_dir=None, buffers=False, sensors=False, policies=False,
        ports=False, faults=False,
    ))
    in_memory = base.replace(telemetry=TelemetryConfig(trace_dir=None))

    run_scenario(base)  # warm-up
    off = time_scenario(base, repeats)
    ratios = {
        "metrics only": time_scenario(metrics_only, repeats) / off,
        "in-memory traced": time_scenario(in_memory, repeats) / off,
    }

    print(f"scenario {base.label} cycles={base.cycles} warmup={base.warmup}")
    print(f"  telemetry off   : {off:7.3f}s (baseline)")
    for name, ratio in ratios.items():
        print(f"  {name:<16}: {ratio * off:7.3f}s ({ratio:.2f}x)")
    worst = max(ratios.values())
    if worst > ENABLED_BOUND:
        print(f"FAIL: telemetry-on overhead {worst:.2f}x > {ENABLED_BOUND}x")
        return 1
    print(f"OK: telemetry-on overhead bounded under {ENABLED_BOUND}x")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cycles", type=int, default=20_000)
    parser.add_argument("--warmup", type=int, default=2_000)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument(
        "--bound", type=float, default=2.0,
        help="max acceptable telemetry-off overhead in percent",
    )
    args = parser.parse_args()
    off_status = off_path_gate(args)
    enabled_status = enabled_path_gate(args.repeats)
    return off_status or enabled_status


if __name__ == "__main__":
    raise SystemExit(main())
