"""One workload run in a fresh process; writes its measurements as JSON.

Started by ``run.py`` (never by hand)::

    python3 perfbench/child.py WORKLOAD SEED SIZE MODE SPAWNED_AT RESULT_PATH WORKDIR

``MODE`` is ``measure`` (tracing off), ``trace`` (every layer wrapped)
or ``oracle`` (the stepped reference engine, untimed).  ``SPAWNED_AT``
is the parent's ``time.time()`` just before it started this process, so
``setup_s`` covers interpreter start and imports.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main(argv) -> int:
    name, seed, size, mode, spawned_at, result_path, workdir = argv
    seed, spawned_at, workdir = int(seed), float(spawned_at), Path(workdir)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    import workloads
    from tracing import Recorder

    recorder = Recorder()
    if mode == "oracle":
        from repro.noc.network import Network

        Network.force_engine = "stepped"
    elif mode == "trace":
        recorder.install_layers()
    else:
        recorder.install_scenario_hook()
    try:
        digests, failed = workloads.run(name, seed, size, workdir)
    finally:
        recorder.close()

    results = recorder.results
    out = {
        "digests": digests,
        "failed": failed,
        "scenarios": len(results),
        "setup_s": (
            (recorder.first_scenario_at or time.time()) - spawned_at
            + sum(r.build_seconds for r in results)
        ),
        "sim_s": sum(r.sim_seconds for r in results),
        "cycles": sum(r.scenario.cycles + r.scenario.warmup for r in results),
        "flits": sum(r.net_stats.flits_ejected for r in results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if mode == "trace":
        layers = recorder.layer_metrics()
        journal = workdir / "checkpoint" / "scenario.journal.jsonl"
        layers["journal.bytes"] = journal.stat().st_size if journal.exists() else 0
        out["layers"] = layers
        out["spans"] = recorder.spans
    Path(result_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
