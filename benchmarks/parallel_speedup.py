"""Parallel-campaign acceptance check: identical artifacts + speedup.

Runs the same small campaign twice — serially in-process and with up
to ``--jobs`` worker processes — verifies the persisted table JSON is
**byte-identical**, and reports wall-clock timing. Results go to
stdout and
``benchmarks/PARALLEL.md`` records the reference numbers.

Standalone on purpose (not pytest-collected): it times full campaigns,
which has no place in the tier-1 suite.

Usage::

    PYTHONPATH=src python benchmarks/parallel_speedup.py [--jobs 4]
        [--cycles 2000] [--warmup 500] [--iterations 2]
"""

from __future__ import annotations

import argparse
import tempfile
import time
from pathlib import Path

from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.experiments.parallel import Executor


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument("--cycles", type=int, default=2_000)
    parser.add_argument("--warmup", type=int, default=500)
    parser.add_argument("--iterations", type=int, default=2)
    args = parser.parse_args()

    config = CampaignConfig(
        cycles=args.cycles, warmup=args.warmup, iterations=args.iterations
    )
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)

        started = time.perf_counter()
        run_campaign(config, json_dir=tmp_path / "serial")
        serial_wall = time.perf_counter() - started

        executor = Executor(max_workers=args.jobs)
        started = time.perf_counter()
        run_campaign(config, json_dir=tmp_path / "parallel", executor=executor)
        parallel_wall = time.perf_counter() - started

        names = ["table2.json", "table3.json", "table4.json", "vth_saving.json"]
        identical = True
        for name in names:
            same = (tmp_path / "serial" / name).read_bytes() == (
                tmp_path / "parallel" / name
            ).read_bytes()
            identical &= same
            print(f"  {name:>16}: {'byte-identical' if same else 'DIFFERS'}")

    speedup = serial_wall / parallel_wall if parallel_wall else float("inf")
    print(
        f"campaign cycles={args.cycles} warmup={args.warmup} "
        f"iterations={args.iterations}"
    )
    print(f"  serial  : {serial_wall:7.1f}s wall")
    print(f"  jobs={args.jobs:<3}: {parallel_wall:7.1f}s wall ({speedup:.2f}x)")
    print(f"  executor: {executor.summary()}")
    if not identical:
        print("FAIL: parallel artifacts differ from serial run")
        return 1
    print("OK: parallel artifacts byte-identical to serial run")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
