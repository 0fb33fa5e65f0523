"""Tests for fractional-factorial screening (repro.dse.screening)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dse.objectives import resolve_objectives
from repro.dse.screening import (
    ScreeningReport,
    run_screening,
    two_level_design,
)
from repro.dse.space import DesignSpace, Parameter
from repro.experiments.config import ScenarioConfig


class TestDesignMatrix:
    @pytest.mark.parametrize("factors", [1, 2, 3, 4, 6, 7, 10])
    def test_shape_and_levels(self, factors):
        design = two_level_design(factors)
        runs = design.shape[0]
        assert design.shape == (runs, factors)
        assert runs > factors and (runs & (runs - 1)) == 0  # power of two
        assert set(np.unique(design)) <= {-1, 1}

    def test_balanced_columns(self):
        """Every factor spends exactly half the runs at each level."""
        design = two_level_design(6)
        assert np.all(design.sum(axis=0) == 0)

    def test_main_effect_columns_orthogonal(self):
        design = two_level_design(5).astype(int)
        gram = design.T @ design
        runs = design.shape[0]
        assert np.array_equal(np.diag(gram), np.full(5, runs))
        off_diagonal = gram - np.diag(np.diag(gram))
        assert np.all(off_diagonal == 0)

    def test_three_factors_is_classic_half_fraction(self):
        design = two_level_design(3)
        # 2^(3-1): the third column is the product of the first two.
        assert np.array_equal(design[:, 2], design[:, 0] * design[:, 1])

    def test_deterministic(self):
        assert np.array_equal(two_level_design(7), two_level_design(7))

    def test_rejects_zero_factors(self):
        with pytest.raises(ValueError):
            two_level_design(0)


def micro_space(**kwargs):
    base = ScenarioConfig(num_nodes=2, cycles=400, warmup=100)
    return DesignSpace(
        parameters=(
            Parameter.categorical("policy", ("rr-no-sensor", "sensor-wise")),
            Parameter("rotation_period", (16, 256)),
            Parameter("wake_latency", (1, 4)),
        ),
        base=base,
        **kwargs,
    )


class TestRunScreening:
    def test_effects_estimated_for_every_axis(self):
        objectives = resolve_objectives(["md_duty", "area_overhead"])
        report = run_screening(micro_space(), objectives)
        assert report.parameters == ("policy", "rotation_period", "wake_latency")
        assert report.objectives == ("md_duty", "area_overhead")
        assert report.evaluations == report.runs == 4
        for effects in report.main_effects.values():
            assert set(effects) == set(report.parameters)

    def test_pure_config_objective_has_exact_effects(self):
        """area_overhead depends on no searched axis here => all zero."""
        objectives = resolve_objectives(["area_overhead"])
        report = run_screening(micro_space(), objectives)
        for value in report.main_effects["area_overhead"].values():
            assert value == pytest.approx(0.0)
        # and the ranking degrades gracefully (no division blow-up).
        assert all(strength == 0.0 for _, strength in report.ranking())
        assert report.prune() == sorted(report.parameters)

    def test_policy_dominates_md_duty(self):
        """Disabling the sensor policy must move duty cycle the most."""
        objectives = resolve_objectives(["md_duty"])
        report = run_screening(micro_space(), objectives)
        assert report.ranking()[0][0] == "policy"

    def test_invalid_corners_skipped(self):
        space = micro_space(constraints=(lambda s: s.wake_latency < 4,))
        objectives = resolve_objectives(["md_duty"])
        report = run_screening(space, objectives)
        assert report.skipped_invalid == 2
        assert report.evaluations == 2

    def test_all_invalid_raises(self):
        space = micro_space(constraints=(lambda s: False,))
        with pytest.raises(ValueError):
            run_screening(space, resolve_objectives(["md_duty"]))

    def test_report_roundtrips_to_dict(self):
        objectives = resolve_objectives(["md_duty"])
        report = run_screening(micro_space(), objectives)
        blob = report.to_dict()
        assert blob["runs"] == 4
        assert set(blob["main_effects"]["md_duty"]) == set(report.parameters)
        assert isinstance(report.format(), str)

    def test_deterministic(self):
        objectives = resolve_objectives(["md_duty", "p95_latency"])
        a = run_screening(micro_space(), objectives)
        b = run_screening(micro_space(), objectives)
        assert a.to_dict() == b.to_dict()


class TestFailedCorners:
    def test_serial_failure_is_a_dropped_counted_corner(self, monkeypatch):
        """Without an executor a raising scenario is dropped and counted,
        exactly as under a worker pool, instead of propagating."""
        from repro.experiments import parallel
        from repro.experiments.parallel import Executor

        real = parallel.run_scenario

        def low_corner_fails(scenario, iteration=0):
            if scenario.policy == "rr-no-sensor" and scenario.rotation_period == 16:
                raise RuntimeError("injected corner failure")
            return real(scenario, iteration)

        monkeypatch.setattr(parallel, "run_scenario", low_corner_fails)
        objectives = resolve_objectives(["md_duty"])
        serial = run_screening(micro_space(), objectives)
        pooled = run_screening(
            micro_space(), objectives, executor=Executor(max_workers=2)
        )
        assert serial.failed == pooled.failed == 1
        assert serial.evaluations == pooled.evaluations == serial.runs - 1
        assert serial.to_dict() == pooled.to_dict()


class TestReportPruning:
    def make_report(self):
        return ScreeningReport(
            parameters=("a_axis", "b_axis", "c_axis"),
            objectives=("obj",),
            runs=8,
            evaluations=8,
            skipped_invalid=0,
            failed=0,
            main_effects={"obj": {"a_axis": 10.0, "b_axis": -0.8, "c_axis": 0.0}},
            interactions={"obj": {}},
        )

    def test_ranking_by_normalized_strength(self):
        ranking = self.make_report().ranking()
        assert [name for name, _ in ranking] == ["a_axis", "b_axis", "c_axis"]
        assert ranking[0][1] == pytest.approx(1.0)

    def test_prune_threshold(self):
        report = self.make_report()
        assert report.prune(threshold=0.05) == ["c_axis"]
        assert report.prune(threshold=0.5) == ["b_axis", "c_axis"]
