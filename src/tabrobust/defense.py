"""Defenses: tabular Cutmix augmentation and adversarial training.

Cutmix combines two rows through a random per-column mask (one-hot
groups move whole); the label follows the majority parent. Mixtures
that violate the constraint set are repaired with assignment-form fix
rules and dropped if still invalid, so augmented data is always valid.

Adversarial training replaces a fraction of each mini-batch with
gradient-attack candidates generated against the current weights;
invalid candidates revert to their clean originals, so the model never
trains on constraint-violating inputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .attacks.budget import AttackBudget
from .attacks.capgd import capgd
from .attacks.validation import validity_mask
from .data import Dataset, DatasetSchema, load_dataset
from .engine import DEFAULT_PENALTY_CONFIG, PenaltyConfig, assignment_fix_rules, check, fix
from .expressions import ConstraintSet
from .mlp import ReferenceModel, TrainConfig, TrainHistory, train

logger = logging.getLogger(__name__)

CUTMIX_MAX_RETRIES = 100


@dataclass
class AugmentConfig:
    method: str = "cutmix"
    ratio: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.method not in ("none", "cutmix"):
            raise ValueError(f"unknown augmentation method {self.method!r}")
        if self.ratio < 0:
            raise ValueError("ratio must be nonnegative")


@dataclass
class ATConfig:
    inner_budget: AttackBudget = field(
        default_factory=lambda: AttackBudget(n_iter_gradient=5)
    )
    replay_fraction: float = 0.5
    clean_accuracy_budget: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.replay_fraction <= 1.0:
            raise ValueError("replay_fraction must be in [0, 1]")


def mix_with_mask(
    xa: np.ndarray, ya: int, xb: np.ndarray, yb: int, mask: np.ndarray
) -> tuple[np.ndarray, int]:
    """Combine rows: mask True takes the coordinate from xa. The label
    follows the parent contributing at least half the columns."""
    x_mix = np.where(mask, xa, xb)
    y_mix = ya if mask.mean() >= 0.5 else yb
    return x_mix, int(y_mix)


def cutmix_tabular(
    xa: np.ndarray,
    ya: int,
    xb: np.ndarray,
    yb: int,
    seed: Union[int, np.random.Generator],
    schema: DatasetSchema,
    cs: Optional[ConstraintSet] = None,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> Optional[tuple[np.ndarray, int]]:
    """Mix two raw rows; None when no valid mixture was found.

    The mask keeps each column slot from xa with probability p, where p
    is drawn once per attempt from Uniform(0, 1). Violating mixtures
    are repaired with derivable fix rules, re-checked, and retried with
    a fresh mask up to CUTMIX_MAX_RETRIES times.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    slots = schema.column_slots()
    rules = (
        assignment_fix_rules(cs, schema.mutable_mask()) if cs is not None else []
    )
    for _ in range(CUTMIX_MAX_RETRIES):
        p = rng.uniform(0.0, 1.0)
        take_a = rng.random(len(slots)) < p
        mask = np.zeros(schema.n_features, dtype=bool)
        for s, cols in enumerate(slots):
            mask[cols] = take_a[s]
        x_mix, y_mix = mix_with_mask(xa, ya, xb, yb, mask)
        if cs is None or len(cs) == 0:
            return x_mix, y_mix
        if not check(cs, x_mix, cfg):
            if rules:
                x_mix = fix(rules, x_mix, cfg)
            if not check(cs, x_mix, cfg):
                continue
        return x_mix, y_mix
    return None


def augment_dataset(
    dataset: Dataset,
    schema: DatasetSchema,
    cs: ConstraintSet,
    config: AugmentConfig,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> Dataset:
    """Append config.ratio * n_rows cutmix mixtures, all checker-valid."""
    if config.method == "none" or config.ratio == 0:
        return dataset
    rng = np.random.default_rng(config.seed)
    n = dataset.n_rows
    target = int(round(config.ratio * n))
    new_rows = []
    new_labels = []
    attempts = 0
    while len(new_rows) < target and attempts < 20 * target:
        attempts += 1
        i, j = rng.integers(0, n, size=2)
        mixed = cutmix_tabular(
            dataset.X[i], int(dataset.y[i]), dataset.X[j], int(dataset.y[j]),
            rng, schema, cs, cfg,
        )
        if mixed is None:
            continue
        new_rows.append(mixed[0])
        new_labels.append(mixed[1])
    if len(new_rows) < target:
        logger.warning(
            "augmentation produced %d/%d rows before giving up", len(new_rows), target
        )
    if not new_rows:
        return dataset
    X = np.vstack([dataset.X, np.array(new_rows)])
    y = np.concatenate([dataset.y, np.array(new_labels, dtype=int)])
    return Dataset(X, y)


def import_augmented_rows(
    csv_path: Union[str, Path],
    schema_path: Union[str, Path],
    cs: ConstraintSet,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> tuple[Dataset, int]:
    """Load externally generated rows, dropping any that fail check().

    Returns (accepted rows, rejected count).
    """
    dataset, _ = load_dataset(csv_path, schema_path)
    ok = check(cs, dataset.X, cfg)
    n_rejected = int((~ok).sum())
    if n_rejected:
        logger.warning("rejected %d augmented rows failing constraints", n_rejected)
    return Dataset(dataset.X[ok], dataset.y[ok]), n_rejected


def adversarial_train(
    model: ReferenceModel,
    dataset: Dataset,
    cs: ConstraintSet,
    at_cfg: ATConfig,
    train_cfg: TrainConfig,
    schema: DatasetSchema,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
    baseline_accuracy: Optional[float] = None,
) -> tuple[ReferenceModel, TrainHistory]:
    """Madry-style training under constraints.

    Per batch, the leading (1 - replay_fraction) share of rows is
    replaced by gradient-attack candidates against the current weights;
    candidates failing validation revert to clean rows. With a zero
    inner eps this reduces exactly to standard training.
    """
    budget = at_cfg.inner_budget

    def hook(Zb: np.ndarray, yb: np.ndarray, epoch: int) -> np.ndarray:
        n_adv = int(round((1.0 - at_cfg.replay_fraction) * len(Zb)))
        if n_adv == 0 or budget.eps == 0:
            return Zb
        Z_adv = Zb[:n_adv]
        out = capgd(model, cs, Z_adv, yb[:n_adv], budget, schema, cfg)
        valid = validity_mask(
            schema, model.scaler, cs, Z_adv, out.candidates, budget, cfg
        )
        mixed = Zb.copy()
        mixed[:n_adv][valid] = out.candidates[valid]
        raw = model.scaler.inverse_transform(mixed)
        assert np.all(check(cs, raw, cfg)), "training batch violates constraints"
        return mixed

    model, history = train(model, dataset, train_cfg, schema=schema, batch_hook=hook)

    if baseline_accuracy is not None:
        preds = model.predict(dataset.X)
        acc = float((preds == dataset.y).mean())
        if acc < baseline_accuracy - at_cfg.clean_accuracy_budget:
            logger.warning(
                "adversarial training dropped clean accuracy to %.3f "
                "(baseline %.3f, budget %.3f)",
                acc, baseline_accuracy, at_cfg.clean_accuracy_budget,
            )
    return model, history
