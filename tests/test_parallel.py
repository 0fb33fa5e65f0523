"""Tests for the parallel execution layer (executors, cache, fallback).

The load-bearing property is bit-identical results: a scenario's
outcome is a pure function of ``(ScenarioConfig, iteration)``, so
in-process runs, per-attempt worker processes and the on-disk cache
must all return exactly the same measurements.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing.process
import os
import pickle

import pytest

import repro.experiments.parallel as parallel
from repro.experiments.campaign import CampaignConfig, run_campaign
from repro.experiments.checkpoint import CheckpointManager, ScenarioJournal
from repro.experiments.config import REAL_TRAFFIC, ScenarioConfig
from repro.experiments.governor import GovernorSpec
from repro.experiments.parallel import (
    Executor,
    ScenarioFailure,
    cache_key,
    execute_units,
)
from repro.experiments.runner import run_scenario
from repro.experiments.sweeps import run_injection_sweep
from repro.experiments.tables import run_real_table, run_synthetic_table

FAST = dict(cycles=800, warmup=200)


def small_units():
    base = ScenarioConfig(num_nodes=4, num_vcs=2, injection_rate=0.1, **FAST)
    return [
        (base.with_policy(p), 0)
        for p in ("baseline", "rr-no-sensor", "sensor-wise")
    ]


def result_fingerprint(result):
    return (result.duty_cycles, result.md_vc, result.net_stats, result.initial_vths)


@dataclasses.dataclass
class _PidResult:
    """Minimal stand-in for ScenarioResult recording where it ran."""

    pid: int
    wall_seconds: float = 0.0
    sim_seconds: float = 0.0


def _pid_worker(unit):
    return _PidResult(pid=os.getpid())


def _pid_or_fail_worker(unit):
    if unit[0].seed == 666:
        raise ValueError("cursed seed")
    return _PidResult(pid=os.getpid())


def _oserror_scenario(scenario, iteration=0):
    raise OSError("scenario's own I/O error")


def _cursed_scenario(scenario, iteration=0):
    if scenario.policy == "rr-no-sensor":
        raise ValueError("cursed policy")
    return run_scenario(scenario, iteration)


class TestExecutorDeterminism:
    def test_parallel_matches_serial_exactly(self):
        units = small_units()
        serial = [run_scenario(s, i) for s, i in units]
        pooled = Executor(max_workers=2).map(units)
        assert [result_fingerprint(r) for r in pooled] == [
            result_fingerprint(r) for r in serial
        ]

    def test_results_in_unit_order(self):
        units = small_units()
        results = Executor(max_workers=2).map(units)
        assert [r.scenario.policy for r in results] == [s.policy for s, _ in units]

    def test_serial_backend_matches_plain_loop(self):
        units = small_units()
        assert [result_fingerprint(r) for r in Executor(max_workers=1).map(units)] == [
            result_fingerprint(run_scenario(s, i)) for s, i in units
        ]

    def test_synthetic_table_identical(self):
        kwargs = dict(num_vcs=2, arches=(4,), rates=(0.1, 0.2), **FAST)
        serial = run_synthetic_table(**kwargs)
        pooled = run_synthetic_table(**kwargs, executor=Executor(max_workers=2))
        assert [r.duty for r in serial.rows] == [r.duty for r in pooled.rows]
        assert [r.md_vc for r in serial.rows] == [r.md_vc for r in pooled.rows]
        assert serial.format() == pooled.format()

    def test_real_table_identical(self):
        kwargs = dict(
            num_vcs=2, iterations=2, arch_rows={4: ((0, "east"), (2, "east"))}, **FAST
        )
        serial = run_real_table(**kwargs)
        pooled = run_real_table(**kwargs, executor=Executor(max_workers=2))
        assert [(r.avg, r.std, r.md_vc) for r in serial.rows] == [
            (r.avg, r.std, r.md_vc) for r in pooled.rows
        ]

    def test_sweep_identical(self):
        base = ScenarioConfig(num_nodes=4, num_vcs=2, **FAST)
        serial = run_injection_sweep((0.1, 0.3), base=base)
        pooled = run_injection_sweep(
            (0.1, 0.3), base=base, executor=Executor(max_workers=2)
        )
        assert serial.format() == pooled.format()
        assert serial.gaps() == pooled.gaps()

    def test_executor_auto_workers(self):
        assert Executor().max_workers >= 1
        assert Executor(max_workers=0).max_workers >= 1
        with pytest.raises(ValueError):
            Executor(max_workers=-1)

    def test_scenario_errors_propagate(self):
        good = ScenarioConfig(num_nodes=4, num_vcs=2, **FAST)
        with pytest.raises(AttributeError) as info:
            Executor(max_workers=2).map([(good, 0), (None, 0)])
        # The worker's own frames ride along as the chained cause.
        cause = str(info.value.__cause__)
        assert "_execute_unit" in cause and "run_scenario" in cause


class TestExecuteUnits:
    def test_none_executor_is_plain_serial(self):
        units = small_units()[:1]
        assert result_fingerprint(execute_units(units)[0]) == result_fingerprint(
            run_scenario(*units[0])
        )

    def test_with_executor_delegates(self):
        ex = Executor(max_workers=1)
        execute_units(small_units()[:2], ex)
        assert ex.stats.units_completed == 2


class TestResultCache:
    def test_second_run_hits_cache_with_identical_results(self, tmp_path):
        units = small_units()
        first = Executor(max_workers=1, cache=tmp_path / "cache").map(units)
        ex = Executor(max_workers=1, cache=tmp_path / "cache")
        second = ex.map(units)
        assert ex.stats.cache_hits == len(units)
        assert [result_fingerprint(r) for r in first] == [
            result_fingerprint(r) for r in second
        ]

    def test_cache_shared_between_serial_and_pool(self, tmp_path):
        units = small_units()
        Executor(max_workers=2, cache=tmp_path / "cache").map(units)
        ex = Executor(max_workers=1, cache=tmp_path / "cache")
        ex.map(units)
        assert ex.stats.cache_hits == len(units)

    def test_key_depends_on_scenario_and_iteration(self):
        a = ScenarioConfig(num_nodes=4, num_vcs=2, **FAST)
        assert cache_key(a, 0) == cache_key(a, 0)
        assert cache_key(a, 0) != cache_key(a, 1)
        assert cache_key(a, 0) != cache_key(a.with_policy("baseline"), 0)
        assert cache_key(a, 0) != cache_key(
            ScenarioConfig(num_nodes=4, num_vcs=2, cycles=801, warmup=200), 0
        )

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        scenario = ScenarioConfig(num_nodes=4, num_vcs=2, **FAST)
        Executor(max_workers=1, cache=tmp_path).close()
        (journal,) = tmp_path.glob("*.jsonl")
        with open(journal, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"type": "result", "key": cache_key(scenario, 0),
                                 "crc": 0, "payload": "bm90IGEgcGlja2xl"}) + "\n")
        cache = Executor(max_workers=1, cache=tmp_path).cache
        assert cache.get(cache_key(scenario, 0)) is None
        assert cache.torn == 1

    def test_put_get_roundtrip(self, tmp_path):
        scenario = ScenarioConfig(num_nodes=4, num_vcs=2, **FAST)
        (result,) = Executor(max_workers=1, cache=tmp_path).map([(scenario, 0)])
        cache = Executor(max_workers=1, cache=tmp_path).cache
        assert len(cache) == 1
        assert result_fingerprint(cache.get(cache_key(scenario, 0))) == result_fingerprint(result)

    def test_results_stored_by_another_campaign_are_hits(self, tmp_path):
        """A long-lived executor re-reads the cache journal's tail before
        each map, so what a concurrent campaign stored meanwhile is a hit."""
        first, second = small_units()[:2]
        ex = Executor(max_workers=1, cache=tmp_path)
        ex.map([first])
        other = ScenarioJournal(ex.cache.path)
        other.append(cache_key(*second), run_scenario(*second))
        other.close()
        ex.map([second])
        assert ex.stats.cache_hits == 1
        ex.close()
        # Nothing was simulated twice, so nothing was appended twice.
        assert len(ex.cache.path.read_bytes().splitlines()) == 3


class TestFallback:
    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        def broken_start(self):
            raise OSError("spawn blocked")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", broken_start)
        units = small_units()
        ex = Executor(max_workers=4)
        results = ex.map(units)
        assert ex.stats.fallbacks == 1
        assert [result_fingerprint(r) for r in results] == [
            result_fingerprint(run_scenario(s, i)) for s, i in units
        ]

    def test_scenario_oserror_is_not_a_spawn_failure(self, monkeypatch):
        monkeypatch.setattr(parallel, "run_scenario", _oserror_scenario)
        ex = Executor(max_workers=2)
        with pytest.raises(OSError, match="own I/O error"):
            ex.map(small_units()[:2])
        assert ex.stats.fallbacks == 0

    def test_journal_oserror_is_not_a_spawn_failure(self, tmp_path, monkeypatch):
        checkpoint = CheckpointManager(tmp_path, meta={})

        def broken_append(key, result):
            raise OSError("journal disk full")

        monkeypatch.setattr(checkpoint.journal, "append", broken_append)
        lines = []
        ex = Executor(max_workers=2, checkpoint=checkpoint, progress=lines.append)
        with pytest.raises(OSError, match="journal disk full"):
            ex.map_robust(small_units()[:2])
        checkpoint.close()
        assert ex.stats.fallbacks == 0
        assert not [line for line in lines if "spawning unavailable" in line]

    def test_unpicklable_unit_falls_back(self):
        # Classes defined in a test function can't be pickled by name.
        class LocalConfig(ScenarioConfig):
            pass

        scenario = LocalConfig(num_nodes=4, num_vcs=2, **FAST)
        with pytest.raises(Exception):
            pickle.dumps(scenario)
        ex = Executor(max_workers=2)
        results = ex.map([(scenario, 0), (scenario.with_policy("baseline"), 0)])
        assert ex.stats.fallbacks == 1
        assert len(results) == 2


class TestFailingUnit:
    def test_siblings_are_journaled_before_the_raise(self, tmp_path, monkeypatch):
        monkeypatch.setattr(parallel, "run_scenario", _cursed_scenario)
        units = small_units()  # baseline, rr-no-sensor, sensor-wise
        checkpoint = CheckpointManager(tmp_path, meta={})
        with pytest.raises(ValueError, match="cursed policy"):
            Executor(max_workers=2, checkpoint=checkpoint).map(units)
        assert checkpoint.completed() == 2
        for scenario, iteration in (units[0], units[2]):
            journaled = checkpoint.lookup(cache_key(scenario, iteration))
            assert result_fingerprint(journaled) == result_fingerprint(
                run_scenario(scenario, iteration)
            )
        checkpoint.close()


class TestWorkerSource:
    @pytest.mark.parametrize(
        "settings, in_process",
        [
            (dict(max_workers=1), True),
            (dict(max_workers=2), False),
            (dict(max_workers=1, timeout=5), False),
            (dict(max_workers=1, governor=GovernorSpec()), False),
        ],
        ids=["serial", "workers", "timeout", "governor"],
    )
    def test_units_run_in_process_only_when_nothing_needs_a_process(
        self, settings, in_process
    ):
        (result,) = Executor(worker=_pid_worker, **settings).map(small_units()[:1])
        assert (result.pid == os.getpid()) is in_process

    @pytest.mark.parametrize(
        "settings, processes",
        [
            (dict(max_workers=1, timeout=30), 1),
            (dict(max_workers=1, governor=GovernorSpec()), 3),
        ],
        ids=["reused", "governed"],
    )
    def test_worker_processes_are_reused_unless_governed(self, settings, processes):
        results = Executor(worker=_pid_worker, **settings).map(small_units())
        assert len({result.pid for result in results}) == processes
        assert os.getpid() not in {result.pid for result in results}

    def test_a_failed_worker_process_is_replaced(self):
        units = [
            (dataclasses.replace(scenario, seed=seed), 0)
            for scenario, _ in small_units()[:1]
            for seed in (1, 666, 2)
        ]
        executor = Executor(max_workers=1, timeout=30, worker=_pid_or_fail_worker)
        outcome = executor.map_robust(units)
        assert isinstance(outcome[1], ScenarioFailure)
        assert outcome[0].pid != outcome[2].pid


class TestProgressAndStats:
    def test_progress_lines_and_summary(self):
        lines = []
        ex = Executor(max_workers=1, progress=lines.append)
        ex.map(small_units()[:2])
        assert len(lines) == 2
        assert "4core-inj0.10" in lines[0]
        summary = ex.summary()
        assert "2/2 scenarios" in summary
        assert "serial estimate" in summary

    def test_stats_accumulate_across_maps(self):
        ex = Executor(max_workers=1)
        ex.map(small_units()[:1])
        ex.map(small_units()[:1])
        assert ex.stats.units_completed == 2
        assert ex.stats.serial_seconds > 0.0
        assert ex.stats.wall_seconds > 0.0


class TestCampaignParallel:
    def test_run_campaign_default_config_is_fresh(self):
        # Regression: the default used to be a shared mutable instance.
        import inspect

        signature = inspect.signature(run_campaign)
        assert signature.parameters["config"].default is None

    def test_campaign_json_byte_identical(self, tmp_path):
        config = CampaignConfig(
            cycles=600, warmup=100, iterations=2, include_real_traffic=False
        )
        run_campaign(config, json_dir=tmp_path / "serial")
        run_campaign(
            config, json_dir=tmp_path / "parallel", executor=Executor(max_workers=2)
        )
        for name in ("table2.json", "table3.json", "vth_saving.json"):
            serial_bytes = (tmp_path / "serial" / name).read_bytes()
            parallel_bytes = (tmp_path / "parallel" / name).read_bytes()
            assert serial_bytes == parallel_bytes, f"{name} differs"
            json.loads(serial_bytes)  # still valid JSON

    def test_campaign_real_traffic_parallel(self, tmp_path):
        config = CampaignConfig(cycles=400, warmup=100, iterations=2)
        result = run_campaign(config, executor=Executor(max_workers=2))
        assert result.table4 is not None
        assert result.execution_summary is not None

    def test_run_policies_executor_matches_serial(self):
        from repro.experiments.runner import run_policies

        base = ScenarioConfig(num_nodes=4, num_vcs=2, **FAST)
        serial = run_policies(base, ("baseline", "sensor-wise"))
        pooled = run_policies(
            base, ("baseline", "sensor-wise"), executor=Executor(max_workers=2)
        )
        assert {p: result_fingerprint(r) for p, r in serial.items()} == {
            p: result_fingerprint(r) for p, r in pooled.items()
        }


class TestRealTrafficIterationsParallel:
    def test_iteration_is_part_of_the_unit(self):
        base = ScenarioConfig(num_nodes=4, num_vcs=2, traffic=REAL_TRAFFIC, **FAST)
        results = Executor(max_workers=2).map([(base, 0), (base, 1)])
        assert result_fingerprint(results[0]) == result_fingerprint(run_scenario(base, 0))
        assert result_fingerprint(results[1]) == result_fingerprint(run_scenario(base, 1))
        # PV frozen across iterations, traffic not.
        assert results[0].initial_vths == results[1].initial_vths
