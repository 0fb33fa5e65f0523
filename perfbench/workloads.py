"""The benchmark's three workloads, each a pure function of (seed, size).

Every workload drives only public entry points of the simulator:
:func:`repro.experiments.runner.run_scenario` for the scenario-by-scenario
workloads and :func:`repro.cli.main` for the campaign.  Scenario lists are
built from the seed alone, so the same seed always gives the same inputs.

``full`` is the measured size; ``tiny`` is a seconds-long variant for the
benchmark's own tests.
"""

from __future__ import annotations

import traceback
from pathlib import Path
from typing import Dict, List, Tuple

NAMES = ("table3-16c", "traced-16c", "campaign-journaled")
SIZES = ("full", "tiny")

#: The paper's three compared policies (``repro.core.PAPER_POLICIES``).
PAPER_POLICIES = ("rr-no-sensor", "sensor-wise-no-traffic", "sensor-wise")

# (injection rate, measured cycles, warm-up cycles) per scenario row.
_TABLE3_ROWS = {
    "full": ((0.1, 1000, 200), (0.3, 1000, 200)),
    "tiny": ((0.1, 60, 20), (0.3, 60, 20)),
}
_TRACED_ROWS = {
    "full": ((0.01, 2_500, 500), (0.1, 2_000, 200)),
    "tiny": ((0.01, 200, 50), (0.1, 60, 20)),
}
# campaign flags: (--cycles, --warmup, --iterations)
_CAMPAIGN_ARGS = {
    "full": (200, 50, 2),
    "tiny": (40, 10, 1),
}


def scenarios(name: str, seed: int, size: str) -> List[Tuple[object, int]]:
    """``(ScenarioConfig, iteration)`` units of a scenario-by-scenario workload."""
    from repro.experiments.config import ScenarioConfig
    from repro.telemetry.config import TelemetryConfig

    if name == "table3-16c":
        nodes, rows, policies, telemetry = 16, _TABLE3_ROWS[size], PAPER_POLICIES, None
    elif name == "traced-16c":
        # In-memory telemetry: every probe on, metrics on, nothing on disk.
        nodes, rows, policies = 16, _TRACED_ROWS[size], ("sensor-wise",)
        telemetry = TelemetryConfig(trace_dir=None)
    else:
        raise ValueError(f"{name!r} is not a scenario-by-scenario workload")
    return [
        (
            ScenarioConfig(
                num_nodes=nodes, num_vcs=2, injection_rate=rate, policy=policy,
                traffic="uniform", cycles=cycles, warmup=warmup, seed=seed,
                telemetry=telemetry,
            ),
            0,
        )
        for rate, cycles, warmup in rows
        for policy in policies
    ]


def campaign_argv(seed: int, size: str, workdir: Path) -> List[str]:
    """``repro-noc campaign`` arguments: serial, journaled, Table IV included."""
    cycles, warmup, iterations = _CAMPAIGN_ARGS[size]
    return [
        "-q", "campaign",
        "--cycles", str(cycles), "--warmup", str(warmup),
        "--iterations", str(iterations), "--seed", str(seed),
        "--checkpoint-dir", str(workdir / "checkpoint"),
        "--json-dir", str(workdir / "json"),
        "--out", str(workdir / "report.md"),
    ]


def run(name: str, seed: int, size: str, workdir: Path) -> Tuple[Dict[str, str], int]:
    """Run one workload in this process.

    Returns ``(digests, failed)``: the output digest of every scenario
    (or, for the campaign, of every ``--json-dir`` table) keyed by
    label, and the number of scenarios that raised.
    """
    from digest import file_digest, result_digest

    if name == "campaign-journaled":
        from repro.cli import main

        workdir.mkdir(parents=True, exist_ok=True)
        code = main(campaign_argv(seed, size, workdir))
        if code != 0:
            return {}, 1
        tables = sorted((workdir / "json").glob("*.json"))
        return {path.name: file_digest(path) for path in tables}, 0

    from repro.experiments.runner import run_scenario

    digests: Dict[str, str] = {}
    failed = 0
    for scenario, iteration in scenarios(name, seed, size):
        try:
            result = run_scenario(scenario, iteration)
        except Exception:  # a failed scenario is a benchmark result, not a crash
            traceback.print_exc()
            failed += 1
            continue
        label = f"{scenario.label}-{scenario.policy}-i{iteration}"
        digests[label] = result_digest(result)
    return digests, failed
