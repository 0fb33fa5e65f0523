"""Two-level fractional-factorial screening: kill dead axes cheaply.

Before the evolutionary phase spends thousands of simulator runs, a
2^(k-p) screening design (DAVOS's ``FactorialDesignBuilder`` stage)
estimates every parameter's main effect — and the two-factor
interactions the run count supports — from a handful of corner runs:
each parameter is pinned to its *low* (first) and *high* (last) level
and the design matrix picks a resolution-III-or-better fraction.

The output is a ranking, not a verdict: :meth:`ScreeningReport.prune`
returns the axes whose normalized effect stays under a threshold across
*every* objective, which the CLI then drops from the GA's space.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.dse.objectives import Objective, evaluate_objectives
from repro.dse.space import DesignSpace, Genome
from repro.experiments.parallel import Executor, ScenarioFailure, ensure_executor
from repro.telemetry.log import get_logger

log = get_logger("dse")


def two_level_design(factors: int) -> np.ndarray:
    """A 2^(k-p) two-level design matrix of ±1, shape (runs, factors).

    The run count is the smallest power of two strictly greater than
    ``factors`` (so main effects stay estimable).  The first
    ``log2(runs)`` factors get the full-factorial *basic* columns; each
    remaining factor is aliased onto the product of a distinct basic-
    column subset of size >= 2, taken in deterministic lexicographic
    order — the textbook fractional-factorial generator construction.
    """
    if factors < 1:
        raise ValueError(f"factors must be >= 1, got {factors}")
    basic = 1
    while (1 << basic) <= factors:
        basic += 1
    runs = 1 << basic
    matrix = np.empty((runs, factors), dtype=np.int8)
    for column in range(min(basic, factors)):
        # Basic column b alternates sign in blocks of 2**b.
        pattern = ((np.arange(runs) >> column) & 1) * 2 - 1
        matrix[:, column] = pattern
    # Generators: subsets of basic columns, |subset| >= 2, lexicographic.
    subsets = [
        mask for mask in range(3, runs) if bin(mask).count("1") >= 2
    ]
    for extra in range(basic, factors):
        mask = subsets[extra - basic]
        product = np.ones(runs, dtype=np.int8)
        for bit in range(basic):
            if mask & (1 << bit):
                product *= matrix[:, bit]
        matrix[:, extra] = product
    return matrix


@dataclasses.dataclass
class ScreeningReport:
    """Effects estimated by one screening run.

    ``main_effects[objective][parameter]`` is the oriented high-vs-low
    mean difference; ``interactions[objective][(a, b)]`` the product-
    column contrast for the pairs the design could estimate.
    ``evaluations`` counts simulator invocations actually performed
    (invalid corners are skipped, failures dropped).
    """

    parameters: Tuple[str, ...]
    objectives: Tuple[str, ...]
    runs: int
    evaluations: int
    skipped_invalid: int
    failed: int
    main_effects: Dict[str, Dict[str, float]]
    interactions: Dict[str, Dict[Tuple[str, str], float]]

    def normalized_effects(self) -> Dict[str, Dict[str, float]]:
        """Main effects scaled to [0, 1] per objective (rank-comparable)."""
        scaled: Dict[str, Dict[str, float]] = {}
        for objective, effects in self.main_effects.items():
            peak = max((abs(v) for v in effects.values()), default=0.0)
            scaled[objective] = {
                name: (abs(value) / peak if peak > 0 else 0.0)
                for name, value in effects.items()
            }
        return scaled

    def ranking(self) -> List[Tuple[str, float]]:
        """Parameters by importance: max normalized |effect| across
        objectives, descending (ties break by name)."""
        scaled = self.normalized_effects()
        strength = {
            name: max(scaled[objective][name] for objective in self.objectives)
            for name in self.parameters
        }
        return sorted(strength.items(), key=lambda item: (-item[1], item[0]))

    def prune(self, threshold: float = 0.05) -> List[str]:
        """Names of *dead* axes: normalized effect < threshold on every
        objective.  These are safe to freeze at their base value before
        the expensive evolutionary phase."""
        return [
            name for name, strength in self.ranking() if strength < threshold
        ]

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload (deterministic key order)."""
        return {
            "parameters": list(self.parameters),
            "objectives": list(self.objectives),
            "runs": self.runs,
            "evaluations": self.evaluations,
            "skipped_invalid": self.skipped_invalid,
            "failed": self.failed,
            "main_effects": {
                objective: dict(sorted(effects.items()))
                for objective, effects in sorted(self.main_effects.items())
            },
            "interactions": {
                objective: {
                    f"{a}*{b}": value
                    for (a, b), value in sorted(pairs.items())
                }
                for objective, pairs in sorted(self.interactions.items())
            },
            "ranking": [list(item) for item in self.ranking()],
        }

    def format(self) -> str:
        """Human-readable effects table for the CLI."""
        from repro.experiments.report import render_table

        scaled = self.normalized_effects()
        headers = ["parameter"] + [f"{name}" for name in self.objectives] + ["max"]
        rows = []
        for name, strength in self.ranking():
            row = [name]
            row.extend(f"{scaled[obj][name]:.3f}" for obj in self.objectives)
            row.append(f"{strength:.3f}")
            rows.append(row)
        title = (
            f"Factorial screening: {self.evaluations} runs "
            f"({self.skipped_invalid} invalid corner(s) skipped, "
            f"{self.failed} failed) — normalized |main effect|"
        )
        return render_table(headers, rows, title=title)


def _design_genome(space: DesignSpace, signs: Sequence[int]) -> Genome:
    """Map one ±1 design row to a genome (low = level 0, high = last)."""
    return tuple(
        (len(parameter) - 1 if sign > 0 else 0)
        for parameter, sign in zip(space.parameters, signs)
    )


def run_screening(
    space: DesignSpace,
    objectives: Sequence[Objective],
    executor: Optional[Executor] = None,
    iteration: int = 0,
) -> ScreeningReport:
    """Run the screening design and estimate effects.

    Evaluations go through ``executor.map_robust`` (a serial executor
    when ``None``: parallelism, cache/journal dedup, crash robustness
    for free); invalid design rows are excluded up front, failed rows
    are dropped from the contrasts.
    """
    names = tuple(p.name for p in space.parameters)
    design = two_level_design(len(names))
    rows: List[Tuple[np.ndarray, Genome]] = []
    skipped_invalid = 0
    for signs in design:
        genome = _design_genome(space, signs)
        if space.valid(genome):
            rows.append((signs, genome))
        else:
            skipped_invalid += 1
    if not rows:
        raise ValueError(
            "every screening corner violates the space constraints"
        )

    units = [(space.decode(genome), iteration) for _, genome in rows]
    outcomes = ensure_executor(executor).map_robust(units)

    kept_signs: List[np.ndarray] = []
    vectors: List[Tuple[float, ...]] = []
    failed = 0
    for (signs, genome), (scenario, _), outcome in zip(rows, units, outcomes):
        if isinstance(outcome, ScenarioFailure):
            failed += 1
            log.warning("screening corner failed: %s", outcome)
            continue
        kept_signs.append(signs)
        vectors.append(evaluate_objectives(objectives, scenario, outcome))

    if not vectors:
        raise ValueError("every screening corner failed; nothing to estimate")

    sign_matrix = np.stack(kept_signs).astype(np.float64)
    value_matrix = np.asarray(vectors, dtype=np.float64)

    main_effects: Dict[str, Dict[str, float]] = {}
    interactions: Dict[str, Dict[Tuple[str, str], float]] = {}
    for column, objective in enumerate(objectives):
        y = value_matrix[:, column]
        main_effects[objective.name] = {
            name: _contrast(sign_matrix[:, f], y)
            for f, name in enumerate(names)
        }
        pairs: Dict[Tuple[str, str], float] = {}
        for a in range(len(names)):
            for b in range(a + 1, len(names)):
                product = sign_matrix[:, a] * sign_matrix[:, b]
                if _aliased_with_main(product, sign_matrix):
                    continue  # confounded with a main effect; not estimable
                pairs[(names[a], names[b])] = _contrast(product, y)
        interactions[objective.name] = pairs

    return ScreeningReport(
        parameters=names,
        objectives=tuple(obj.name for obj in objectives),
        runs=len(design),
        evaluations=len(vectors),
        skipped_invalid=skipped_invalid,
        failed=failed,
        main_effects=main_effects,
        interactions=interactions,
    )


def _contrast(signs: np.ndarray, values: np.ndarray) -> float:
    """High-minus-low mean difference along one ±1 column."""
    high = signs > 0
    low = ~high
    if not high.any() or not low.any():
        return 0.0
    return float(values[high].mean() - values[low].mean())


def _aliased_with_main(product: np.ndarray, sign_matrix: np.ndarray) -> bool:
    """Whether a product column coincides (±) with any main-effect column."""
    for f in range(sign_matrix.shape[1]):
        column = sign_matrix[:, f]
        if np.array_equal(product, column) or np.array_equal(product, -column):
            return True
    return False
