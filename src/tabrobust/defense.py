"""Defenses: tabular Cutmix augmentation and adversarial training.

Cutmix combines two rows through a random per-slot mask (one-hot
groups move whole); the label follows the majority parent. Mixtures are
drawn in blocks: the block is checked once, the rows that fail are
repaired with assignment-form fix rules and checked again, and a row is
kept only if it then passes the constraint set and fits the schema's
bounds, integrality and one-hot rules (a repair can push a feature out
of its bounds). A rejected draw is replaced by a fresh pair and mask in
the next block, so every augmented row passes both `check` and
`validate_against_schema`.

Adversarial training checks its dataset against the constraints once,
at entry, and rejects a dataset with an invalid row. It then replaces a
fraction of each mini-batch with gradient-attack candidates generated
against the current weights; invalid candidates revert to their clean
originals, so the model never trains on constraint-violating inputs.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .attacks.budget import AttackBudget
from .attacks.capgd import capgd
from .attacks.validation import validity_mask
from .data import (DataError, Dataset, DatasetSchema, fits_schema, is_finite_number,
                   is_int_at_least, is_number)
from .engine import DEFAULT_PENALTY_CONFIG, assignment_fix_rules, check, fix
from .expressions import ConstraintSet
from .mlp import ReferenceModel, TrainConfig, TrainHistory, train

logger = logging.getLogger(__name__)

CUTMIX_MAX_RETRIES = 100

AUGMENT_METHODS = ("none", "cutmix")


@dataclass
class AugmentConfig:
    method: str = "cutmix"
    ratio: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.method not in AUGMENT_METHODS:
            raise ValueError(f"unknown augmentation method {self.method!r}")
        if not (is_finite_number(self.ratio) and self.ratio >= 0):
            raise ValueError(f"ratio must be finite and nonnegative, got {self.ratio!r}")
        if not is_int_at_least(self.seed, 0):
            raise ValueError(f"seed must be an integer in [0, 2**63 - 1], got {self.seed!r}")


@dataclass
class ATConfig:
    inner_budget: AttackBudget = field(
        default_factory=lambda: AttackBudget(n_iter_gradient=5)
    )
    replay_fraction: float = 0.5

    def __post_init__(self):
        if not (is_number(self.replay_fraction) and 0.0 <= self.replay_fraction <= 1.0):
            raise ValueError(f"replay_fraction must be in [0, 1], got {self.replay_fraction!r}")


def cutmix_tabular(
    X: np.ndarray,
    y: np.ndarray,
    count: int,
    rng: np.random.Generator,
    schema: DatasetSchema,
    cs: ConstraintSet,
) -> tuple[np.ndarray, np.ndarray]:
    """Draw a block of `count` mixtures of row pairs of (X, y); returns
    the accepted ones, in draw order.

    Draws, in this order: the (count, 2) parent rows, one p ~ U(0, 1)
    per mixture, and a (count, slots) uniform block; a column slot comes
    from the first parent where its draw is below p. The label is the
    label of the parent giving at least half the columns. The block is
    checked once; only the failing rows are repaired with the derivable
    fix rules and checked again. A mixture is accepted when it passes
    `check` and fits the schema's bounds, integrality and one-hot rules.
    """
    a, b = rng.integers(0, len(X), (count, 2)).T
    p = rng.uniform(0.0, 1.0, count)
    take_a = (rng.random((count, len(schema.slot_sizes))) < p[:, None])[:, schema.slot_of]
    X_mix = np.where(take_a, X[a], X[b])
    y_mix = np.where(take_a.mean(axis=1) >= 0.5, y[a], y[b])
    ok = check(cs, X_mix)
    rules = assignment_fix_rules(cs, schema.mutable)
    bad = ~ok
    if rules and bad.any():
        X_mix[bad] = fix(rules, X_mix[bad])
        ok[bad] = check(cs, X_mix[bad])
    ok &= fits_schema(X_mix, schema, 0.0)
    return X_mix[ok], y_mix[ok]


def augment_dataset(
    dataset: Dataset,
    schema: DatasetSchema,
    cs: ConstraintSet,
    config: AugmentConfig,
) -> Dataset:
    """Append round(config.ratio * n_rows) Cutmix mixtures, each valid.

    Draws blocks of that many mixtures, at most CUTMIX_MAX_RETRIES, and
    keeps the accepted rows in draw order until there are enough.
    """
    if config.method == "none" or config.ratio == 0:
        return dataset
    rng = np.random.default_rng(config.seed)
    target = int(round(config.ratio * dataset.n_rows))
    X_new, y_new = dataset.X[:0], dataset.y[:0]
    for _ in range(CUTMIX_MAX_RETRIES):
        if len(y_new) >= target:
            break
        X_mix, y_mix = cutmix_tabular(dataset.X, dataset.y, target, rng, schema, cs)
        X_new, y_new = np.vstack([X_new, X_mix]), np.concatenate([y_new, y_mix])
    if len(y_new) < target:
        logger.warning(
            "augmentation produced %d/%d rows before giving up", len(y_new), target
        )
    if not len(y_new):
        return dataset
    return Dataset(
        np.vstack([dataset.X, X_new[:target]]), np.concatenate([dataset.y, y_new[:target]])
    )


def adversarial_train(
    model: ReferenceModel,
    dataset: Dataset,
    cs: ConstraintSet,
    at_cfg: ATConfig,
    train_cfg: TrainConfig,
    schema: DatasetSchema,
) -> tuple[ReferenceModel, TrainHistory]:
    """Madry-style training under constraints.

    Per batch, the leading (1 - replay_fraction) share of rows is
    replaced by gradient-attack candidates against the current weights;
    candidates failing validation revert to clean rows. With a zero
    inner eps this reduces exactly to standard training. Every row of
    `dataset` must satisfy `cs`, else a DataError names the first row
    that does not; with the candidates filtered by `validity_mask`,
    every training batch then does.
    """
    ok = check(cs, dataset.X)
    if not ok.all():
        raise DataError(f"row {np.flatnonzero(~ok)[0]} violates the constraints")
    budget = at_cfg.inner_budget

    def hook(Zb: np.ndarray, yb: np.ndarray, epoch: int) -> np.ndarray:
        n_adv = int(round((1.0 - at_cfg.replay_fraction) * len(Zb)))
        if n_adv == 0 or budget.eps == 0:
            return Zb
        Z_adv = Zb[:n_adv]
        out = capgd(model, cs, Z_adv, yb[:n_adv], budget, schema)
        valid = validity_mask(schema, model.scaler, cs, Z_adv, out.candidates, budget,
                              DEFAULT_PENALTY_CONFIG)
        mixed = Zb.copy()
        mixed[:n_adv][valid] = out.candidates[valid]
        return mixed

    return train(model, dataset, train_cfg, schema=schema, batch_hook=hook)
