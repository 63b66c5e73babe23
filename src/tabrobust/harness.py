"""Benchmark harness: attack-set selection, robust accuracy, and budget
sweeps.

The evaluation protocol: only correctly classified rows of the critical
class are attacked; a sample counts against robust accuracy only if an
attack produced a misclassified candidate that survives independent
re-validation. Unsuccessful or invalid candidates revert to the
original (counted as correctly classified). Every success a report
contains has been re-validated here, outside the attack code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .attacks import AttackBudget, caa
from .attacks.caa import AttackResult
from .attacks.validation import validity_mask
from .data import Dataset, DatasetSchema
from .engine import DEFAULT_PENALTY_CONFIG, PenaltyConfig
from .expressions import ConstraintSet
from .metrics import classification_metrics
from .mlp import ReferenceModel
from .report import BudgetEntry, EvaluationReport

DEFAULT_ATTACK_CAP = 500

SWEEP_AXES = ("eps", "gradient_iters", "search_iters")

SWEEP_DEFAULTS = {
    "eps": [0.25, 0.5, 1.0, 5.0],
    "gradient_iters": [5, 10, 20, 100],
    "search_iters": [50, 100, 200, 1000],
}


@dataclass
class SweepSpec:
    axis: str
    values: list[float] = field(default_factory=list)

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ValueError(f"axis must be one of {SWEEP_AXES}, got {self.axis!r}")
        if not self.values:
            self.values = list(SWEEP_DEFAULTS[self.axis])
        if not all(math.isfinite(v) and v > 0 for v in self.values):
            raise ValueError("sweep values must be finite and positive")
        if self.axis != "eps" and not all(float(v).is_integer() for v in self.values):
            raise ValueError(f"{self.axis} sweep values must be integers")


class EmptyAttackSet(ValueError):
    """No correctly classified critical-class rows to attack."""


def select_attack_set(
    model: ReferenceModel,
    dataset: Dataset,
    schema: DatasetSchema,
    cap: Optional[int] = DEFAULT_ATTACK_CAP,
    seed: int = 0,
) -> np.ndarray:
    """Row indices to attack: critical class and correctly classified.

    Larger sets are subsampled to `cap` rows (seeded, order-preserving)
    to keep desk-scale runs tractable.
    """
    preds = model.predict(dataset.X)
    mask = (dataset.y == schema.critical_class) & (preds == dataset.y)
    indices = np.where(mask)[0]
    if indices.size == 0:
        raise EmptyAttackSet(
            "no correctly classified rows of the critical class to attack"
        )
    if cap is not None and indices.size > cap:
        rng = np.random.default_rng(np.random.SeedSequence([seed, len(indices)]))
        indices = np.sort(rng.choice(indices, size=cap, replace=False))
    return indices


def success_masks(
    result: AttackResult,
    model: ReferenceModel,
    cs: ConstraintSet,
    schema: DatasetSchema,
    budget: AttackBudget,
    cfg: PenaltyConfig,
    y: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """(constrained, unconstrained) success masks from one attack output.

    A sample succeeds under constrained validation when some attempt is
    misclassified and fully valid; under unconstrained validation the
    domain-constraint check is waived (ball, mutability, and typing
    still apply). The constrained mask is recomputed from scratch here:
    the harness never trusts the attack's own success flags. Every
    attempt of every sample is checked in one batch and reduced per
    sample through its owner index.
    """
    samples = result.samples
    n = len(samples)
    owner = np.array([i for i, s in enumerate(samples) for _ in s.attempts])
    cand = np.array([a for s in samples for a in s.attempts.values()])
    orig = np.array([samples[i].original for i in owner])
    mis = model.predict_proba_scaled(cand).argmax(axis=1) != y[owner]
    scaler = model.scaler
    valid = validity_mask(schema, scaler, cs, orig, cand, budget, cfg)
    loose = validity_mask(
        schema, scaler, cs, orig, cand, budget, cfg, include_constraints=False
    )
    constrained = np.bincount(owner, weights=mis & valid, minlength=n) > 0
    unconstrained = np.bincount(owner, weights=mis & loose, minlength=n) > 0
    return constrained, unconstrained


def _budget_for(base: AttackBudget, axis: str, value: float) -> AttackBudget:
    if axis == "eps":
        return base.with_(eps=float(value))
    if axis == "gradient_iters":
        return base.with_(n_iter_gradient=int(value))
    return base.with_(n_gen=int(value))


def _attack_budgets(
    model: ReferenceModel,
    cs: ConstraintSet,
    dataset: Dataset,
    schema: DatasetSchema,
    budget: AttackBudget,
    indices: np.ndarray,
    cfg: PenaltyConfig,
    sweep: Optional[SweepSpec] = None,
) -> tuple[list[BudgetEntry], list[AttackResult]]:
    """The one evaluation path: attack, re-validate, and count, once per
    budget.

    Without a sweep `budget` is evaluated as given. With one, the sweep
    values are processed in increasing order and each attack seeds its
    candidate pool with every valid success found at a smaller budget,
    so robust accuracy is non-increasing along the sweep by construction
    (budgets only grow, and for the eps axis previously valid candidates
    stay inside the larger ball).
    """
    if sweep is None:
        points = [("eps", budget.eps, budget)]
    else:
        points = [
            (sweep.axis, float(v), _budget_for(budget, sweep.axis, v))
            for v in sorted(sweep.values)
        ]
    Z = model.scaler.transform(dataset.X[indices])
    y = dataset.y[indices]
    pool: dict[int, np.ndarray] = {}
    entries, results = [], []
    for axis, value, point in points:
        result = caa(
            model, cs, Z, y, point, schema,
            cfg=cfg, row_indices=indices, known_candidates=pool,
        )
        con, uncon = success_masks(result, model, cs, schema, point, cfg, y)
        for i, sample in enumerate(result.samples):
            if con[i] and sample.row_index not in pool:
                pool[sample.row_index] = sample.candidate.copy()
        entries.append(
            BudgetEntry(
                axis=axis,
                value=value,
                budget=point.to_dict(),
                robust_accuracy_constrained=1.0 - con.sum() / len(indices),
                robust_accuracy_unconstrained=1.0 - uncon.sum() / len(indices),
                n_success_constrained=int(con.sum()),
                n_success_unconstrained=int(uncon.sum()),
                wall_time=result.wall_time,
            )
        )
        results.append(result)
    return entries, results


def robust_accuracy(
    model: ReferenceModel,
    cs: ConstraintSet,
    dataset: Dataset,
    schema: DatasetSchema,
    budget: AttackBudget,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
    indices: Optional[np.ndarray] = None,
) -> tuple[float, AttackResult]:
    """1 - (validated successes / attack-set size), plus raw outputs."""
    if indices is None:
        indices = select_attack_set(model, dataset, schema, seed=budget.seed)
    [entry], [result] = _attack_budgets(model, cs, dataset, schema, budget, indices, cfg)
    return entry.robust_accuracy_constrained, result


def evaluate(
    model: ReferenceModel,
    cs: ConstraintSet,
    dataset: Dataset,
    schema: DatasetSchema,
    budget: AttackBudget,
    model_name: str = "reference-mlp",
    defense: str = "none",
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
    cap: Optional[int] = DEFAULT_ATTACK_CAP,
    workers: Optional[int] = None,
    sweep: Optional[SweepSpec] = None,
) -> EvaluationReport:
    """Clean metrics plus robust accuracy at `budget`, or at each point
    of `sweep` along one axis from `budget`. `workers` is ignored: the
    attack runs in this thread."""
    clean = classification_metrics(dataset.y, model.predict_proba(dataset.X)[:, 1])
    indices = select_attack_set(model, dataset, schema, cap=cap, seed=budget.seed)
    entries, _ = _attack_budgets(
        model, cs, dataset, schema, budget, indices, cfg, sweep
    )
    return EvaluationReport(
        model=model_name,
        defense=defense,
        seed=budget.seed,
        clean=clean,
        attack_set_size=len(indices),
        budgets=entries,
        config={"tolerance": cfg.tolerance, "attack": budget.to_dict()},
    )


def budget_sweep(
    model: ReferenceModel,
    cs: ConstraintSet,
    dataset: Dataset,
    schema: DatasetSchema,
    sweep: SweepSpec,
    base_budget: Optional[AttackBudget] = None,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
    cap: Optional[int] = DEFAULT_ATTACK_CAP,
    workers: Optional[int] = None,
) -> list[BudgetEntry]:
    """Robust accuracy at each sweep value, without the clean metrics.
    `workers` is ignored: the attack runs in this thread."""
    if base_budget is None:
        base_budget = AttackBudget()
    indices = select_attack_set(model, dataset, schema, cap=cap, seed=base_budget.seed)
    entries, _ = _attack_budgets(
        model, cs, dataset, schema, base_budget, indices, cfg, sweep
    )
    return entries
