"""The benchmark's own tests: metric names, wrapper neutrality, the gate.

The gate tests run a copy of the benchmark directory beside a link to
the real ``src/``, so they can break the copy without touching the repo.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))
from workloads import NAMES as WORKLOADS  # noqa: E402


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--size", "tiny", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


@pytest.fixture(scope="module")
def tiny_runs():
    runs = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_bench("--workload", workload, "--trace", str(trace))
            record = HERE / "out" / f"{workload}-tiny-seed1-trace{trace}.json"
            runs[workload, trace] = (code, result, json.loads(record.read_text()))
    return runs


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_exactly_the_declared_metrics(tiny_runs, workload, trace, section):
    code, result, _ = tiny_runs[workload, trace]
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digests_equal_untraced(tiny_runs, workload):
    _, _, record = tiny_runs[workload, 1]
    untraced = [run["digests"] for run in record["runs"]["measure"]]
    traced = [run["digests"] for run in record["runs"]["trace"]]
    assert untraced and traced
    assert all(digests == untraced[0] for digests in untraced + traced)


def copy_bench(root: Path, with_sources: bool = True) -> Path:
    """The benchmark directory copied under ``root``; returns the copy."""
    bench = root / HERE.name
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", root)
    if with_sources:
        (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return bench


def run_copy(bench: Path):
    return run_bench("--workload", "table3-16c", cwd=bench.parent, script=bench / "run.py")


def assert_failed_with_result(code, result):
    assert code == 1
    assert result is not None and not result["correct"]
    assert 1 <= result["failed"] <= result["attempted"]


def test_corrupted_expected_digest_fails(tmp_path):
    bench = copy_bench(tmp_path)
    path = bench / "expected_digests.json"
    stored = json.loads(path.read_text())
    table = stored["digests"]["tiny"]["table3-16c"]
    table[sorted(table)[0]] = "0" * 64
    path.write_text(json.dumps(stored))
    code, result = run_copy(bench)
    assert_failed_with_result(code, result)
    assert len(result["metrics"]) == len(BENCHMARK["end_to_end"])


def test_every_scenario_failing_still_prints_the_result(tmp_path):
    bench = copy_bench(tmp_path)
    with (bench / "workloads.py").open("a") as workloads:
        workloads.write(
            "\n\n_run = run\n\n\n"
            "def run(name, seed, size, workdir):\n"
            "    import repro.experiments.runner as runner\n\n"
            "    def broken(*args, **kwargs):\n"
            "        raise RuntimeError('injected scenario failure')\n\n"
            "    runner.run_scenario = broken\n"
            "    return _run(name, seed, size, workdir)\n"
        )
    code, result = run_copy(bench)
    assert_failed_with_result(code, result)
    assert result["metrics"] == {}


def test_fails_without_simulator_sources(tmp_path):
    code, result = run_copy(copy_bench(tmp_path, with_sources=False))
    assert code != 0 and result is None
