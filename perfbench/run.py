"""Simulator throughput benchmark at the paper's operating points.

Runs one workload repeatedly, each time in a fresh single process, for
``--seconds`` seconds, checks every run's outputs against the stepped
oracle engine, and prints every metric by name with its unit.  The last
stdout line is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
runs); with ``--trace 1`` untraced and traced runs alternate and the
metrics are the per-layer ones plus ``trace.overhead_x``.  See
``perfbench/README.md`` for the workloads and how to read the output.

Usage, from the repository root::

    python3 perfbench/run.py --workload table3-16c --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --regenerate-digests

Exit status: 0 when every output matched, 1 (the result line still
printed) when a scenario failed, an output differed from the oracle or
the oracle itself failed, 2 when the simulator sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional

from tracing import CALLS_AND_SELF
from workloads import NAMES, SIZES

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DIGESTS = HERE / "expected_digests.json"
DEFAULT_SEED = 1
CHILD_TIMEOUT_S = 150
# A fixed string-hash seed removes one source of run-to-run timing noise
# (dict and set layouts); the simulator's outputs do not depend on it.
# Bytecode caching is on, as for a user, so set-up time does not count
# recompiling every module.
CHILD_ENV = {
    **{k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_cycles_per_s": "cycles/s",
    "flits_per_s": "flits/s",
    "scenarios_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "runner.build_s": "s",
    "runner.run_s": "s",
    "runner.harvest_s": "s",
    "soa.run_span.calls": "count",
    "soa.self_s": "s",
    **{
        f"{name}.{kind}": unit
        for name in CALLS_AND_SELF
        for kind, unit in (("calls", "count"), ("self_s", "s"))
    },
    "router.sa_st.moved_per_call": "flits/call",
    "input_unit.apply_command.calls": "count",
    "output_unit.set_most_degraded.calls": "count",
    "traffic.inject.nonempty_ratio": "ratio",
    "traffic.next_injection_cycle.calls": "count",
    "sensor.sample.calls": "count",
    "telemetry.attach_s": "s",
    "telemetry.finalize_s": "s",
    "tracer.events": "count",
    "executor.map_s": "s",
    "executor.overhead_s": "s",
    "executor.journal_hits": "count",
    "journal.bytes": "B",
    "engine.soa_spans": "count",
    "engine.stepped_cycles": "count",
    "trace.overhead_x": "x",
}


def git_commit() -> str:
    """HEAD's commit, read without running git; ``unknown`` outside a clone."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            commit, _, name = line.partition(" ")
            if name == ref:
                return commit
    return "unknown"


def provenance(seed: int) -> Dict[str, object]:
    """Where a result came from."""
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


class Runner:
    """Starts workload processes one at a time in a private scratch dir."""

    def __init__(self, workload: str, seed: int, size: str) -> None:
        self.workload, self.seed, self.size = workload, seed, size
        self.scratch = OUT / f"tmp-{os.getpid()}"
        self._count = 0

    def child(self, mode: str) -> Optional[dict]:
        """One fresh process; its measurements, or ``None`` if it died."""
        self._count += 1
        result_path = self.scratch / f"{mode}-{self._count}.json"
        workdir = self.scratch / f"work-{self._count}"
        self.scratch.mkdir(parents=True, exist_ok=True)
        argv = [
            sys.executable, str(HERE / "child.py"), self.workload, str(self.seed),
            self.size, mode, repr(time.time()), str(result_path), str(workdir),
        ]
        started = time.perf_counter()
        try:
            proc = subprocess.run(
                argv, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            print(f"{mode} run timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
            return None
        finally:
            wall = time.perf_counter() - started
            shutil.rmtree(workdir, ignore_errors=True)
        if proc.returncode != 0 or not result_path.is_file():
            sys.stderr.write(proc.stderr)
            print(f"{mode} run exited with status {proc.returncode}", file=sys.stderr)
            return None
        data = json.loads(result_path.read_text())
        result_path.unlink()
        data["wall_s"] = wall
        return data

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)


def stored_digests(workload: str, seed: int, size: str) -> Optional[dict]:
    if seed != DEFAULT_SEED or not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text())["digests"].get(size, {}).get(workload)


def oracle_digests(runner: Runner) -> Optional[dict]:
    oracle = runner.child("oracle")
    if oracle is None or oracle["failed"]:
        return None
    return oracle["digests"]


def mismatches(digests: dict, expected: dict) -> int:
    """Outputs that differ from, are missing from or are extra to ``expected``."""
    labels = set(digests) | set(expected)
    return sum(1 for label in labels if digests.get(label) != expected.get(label))


def end_to_end(run: dict) -> Dict[str, float]:
    return {
        "wall_s": run["wall_s"],
        "setup_s": run["setup_s"],
        "sim_cycles_per_s": run["cycles"] / run["sim_s"],
        "flits_per_s": run["flits"] / run["sim_s"],
        "scenarios_per_s": run["scenarios"] / run["wall_s"],
        "peak_rss_mb": run["peak_rss_mb"],
    }


def medians(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def measure(args, runner: Runner, expected: dict) -> dict:
    """Run workload processes for ``args.seconds``; tally and take medians."""
    modes = ("measure", "trace") if args.trace else ("measure",)
    runs: Dict[str, List[dict]] = {mode: [] for mode in modes}
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        for mode in modes:
            run = runner.child(mode)
            if run is None:
                attempted += 1
                failed += 1
                continue
            # A scenario that raised left no digest, so it is also a
            # mismatch: count each bad output once.
            bad = max(run["failed"], mismatches(run["digests"], expected))
            attempted += max(run["scenarios"] + run["failed"], bad)
            failed += bad
            if run["scenarios"]:  # a run that simulated nothing has no rates
                runs[mode].append(run)
        if time.perf_counter() >= deadline:
            break
    if args.trace and runs["measure"] and runs["trace"]:
        # The wrappers must not perturb results: traced == untraced.
        failed += mismatches(runs["trace"][0]["digests"], runs["measure"][0]["digests"])
    summary = {"runs": runs, "attempted": max(attempted, 1), "failed": failed}
    if not all(runs.values()):
        return summary
    untraced = medians([end_to_end(run) for run in runs["measure"]])
    if args.trace:
        layers = medians([run["layers"] for run in runs["trace"]])
        traced = medians([end_to_end(run) for run in runs["trace"]])
        layers["trace.overhead_x"] = traced["wall_s"] / untraced["wall_s"]
        summary["metrics"] = {name: layers[name] for name in PER_LAYER}
    else:
        summary["metrics"] = untraced
    return summary


def report(args, info: dict, summary: dict, oracle_source: str) -> dict:
    units = PER_LAYER if args.trace else END_TO_END
    metrics = summary.get("metrics", {})
    counts = {mode: len(runs) for mode, runs in summary["runs"].items()}
    print(
        f"perfbench {args.workload} size={args.size} trace={args.trace} "
        + " ".join(f"{key}={value}" for key, value in info.items())
    )
    print(f"  runs: {counts}; expected digests: {oracle_source}; values are medians")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units[name]}")
    frac = summary["failed"] / summary["attempted"]
    print(f"  {'failed_frac':40s} {frac:>16.6g} ratio "
          f"({summary['failed']}/{summary['attempted']})")
    return {
        name: {"value": metrics[name], "unit": units[name]} for name in metrics
    }


def regenerate() -> int:
    digests: Dict[str, Dict[str, dict]] = {}
    for size in SIZES:
        for workload in NAMES:
            runner = Runner(workload, DEFAULT_SEED, size)
            try:
                found = oracle_digests(runner)
            finally:
                runner.close()
            if found is None:
                print(f"oracle failed on {workload} ({size})", file=sys.stderr)
                return 1
            digests.setdefault(size, {})[workload] = found
    blob = {
        "command": "python3 perfbench/run.py --regenerate-digests",
        "engine": "stepped (Network.force_engine = 'stepped')",
        "seed": DEFAULT_SEED,
        "digests": digests,
    }
    DIGESTS.write_text(json.dumps(blob, indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="'tiny' is a seconds-long variant for the tests")
    parser.add_argument("--regenerate-digests", action="store_true",
                        help=f"recompute {DIGESTS.name} with the stepped oracle and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"simulator sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.regenerate_digests:
        return regenerate()
    if args.workload is None:
        parser.error("--workload is required")

    runner = Runner(args.workload, args.seed, args.size)
    try:
        expected = stored_digests(args.workload, args.seed, args.size)
        oracle_source = "stored"
        if expected is None:
            expected = oracle_digests(runner)
            oracle_source = "computed by the stepped oracle"
        if expected is None:
            print("the stepped oracle run failed", file=sys.stderr)
            oracle_source = "none: the stepped oracle run failed"
            summary = {"runs": {}, "attempted": 1, "failed": 1}
        else:
            summary = measure(args, runner, expected)
    finally:
        runner.close()

    info = provenance(args.seed)
    metrics = report(args, info, summary, oracle_source)
    OUT.mkdir(exist_ok=True)
    record = OUT / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**info, **summary, "workload": args.workload}, indent=1))
    correct = summary["failed"] == 0 and len(metrics) == len(
        PER_LAYER if args.trace else END_TO_END
    )
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
