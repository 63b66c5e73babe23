"""Reference schema consumers: `project`, `validity_mask`,
`validate_against_schema` and the schema's `onehot_groups` and
`column_slots` as they were before the schema built its facts once.
Each rebuilt the masks, bounds and one-hot groups from the feature list
on every call. Kept verbatim, apart from reading the facts through the
copied methods below and fixing a feature whose min equals its max, so
that the tests can hold the cached layout to the same bits and the same
error messages."""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from tabrobust.attacks.budget import AttackBudget
from tabrobust.attacks.projection import _ball_project, distance
from tabrobust.data import DataError, DatasetSchema, MinMaxScaler
from tabrobust.engine import PenaltyConfig, check
from tabrobust.expressions import ConstraintSet

DISTANCE_SLACK = 1e-9


class _Facts:
    """The schema methods of the old `DatasetSchema`, over its features."""

    def __init__(self, schema: DatasetSchema):
        self.features = list(schema.features)
        self.n_features = len(self.features)

    def mutable_mask(self) -> np.ndarray:
        return np.array([f.mutable and f.min != f.max for f in self.features], dtype=bool)

    def integer_mask(self) -> np.ndarray:
        return np.array([f.kind == "integer" for f in self.features], dtype=bool)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([f.min for f in self.features], dtype=float)
        hi = np.array([f.max for f in self.features], dtype=float)
        return lo, hi

    def onehot_groups(self) -> dict[Union[int, str], list[int]]:
        groups: dict[Union[int, str], list[int]] = {}
        for i, f in enumerate(self.features):
            if f.onehot_group is not None:
                groups.setdefault(f.onehot_group, []).append(i)
        return groups

    def column_slots(self) -> list[np.ndarray]:
        """Column groups that change together: each one-hot group whole,
        every other column alone, ordered by first column."""
        groups = self.onehot_groups().values()
        grouped = {i for cols in groups for i in cols}
        slots = [np.array(cols) for cols in groups]
        slots += [np.array([i]) for i in range(self.n_features) if i not in grouped]
        slots.sort(key=lambda c: int(c[0]))
        return slots


def onehot_groups(schema: DatasetSchema) -> dict[Union[int, str], list[int]]:
    return _Facts(schema).onehot_groups()


def column_slots(schema: DatasetSchema) -> list[np.ndarray]:
    return _Facts(schema).column_slots()


def project(
    candidate: np.ndarray,
    original: np.ndarray,
    budget: AttackBudget,
    schema: DatasetSchema,
    scaler: Optional[MinMaxScaler] = None,
) -> np.ndarray:
    """Project candidate rows into the feasible region around originals."""
    facts = _Facts(schema)
    cand = np.atleast_2d(np.asarray(candidate, dtype=float)).copy()
    orig = np.atleast_2d(np.asarray(original, dtype=float))
    single = np.asarray(candidate).ndim == 1

    immutable = ~facts.mutable_mask()
    cand[:, immutable] = orig[:, immutable]

    np.clip(cand, 0.0, 1.0, out=cand)
    cand = _ball_project(cand, orig, budget.eps, budget.norm)
    # The rescale can leave the box by an ulp; re-clip (moves points
    # toward the originals, so the ball constraint is preserved).
    np.clip(cand, 0.0, 1.0, out=cand)

    int_cols = np.where(facts.integer_mask())[0]
    if int_cols.size:
        if scaler is None:
            scaler = MinMaxScaler.from_schema(schema)
        lo, hi = facts.bounds()
        raw = scaler.inverse_transform(cand)
        raw[:, int_cols] = np.clip(
            np.round(raw[:, int_cols]), lo[int_cols], hi[int_cols]
        )
        cand[:, int_cols] = scaler.transform(raw)[:, int_cols]

    for cols in facts.onehot_groups().values():
        block = cand[:, cols]
        winners = block.argmax(axis=1)
        block[:] = 0.0
        block[np.arange(block.shape[0]), winners] = 1.0
        cand[:, cols] = block

    # Re-pin immutables: rounding/snapping must never touch them.
    cand[:, immutable] = orig[:, immutable]
    return cand[0] if single else cand


def validity_mask(
    schema: DatasetSchema,
    scaler: MinMaxScaler,
    cs: ConstraintSet,
    Z_orig: np.ndarray,
    Z_cand: np.ndarray,
    budget: AttackBudget,
    cfg: PenaltyConfig,
    include_constraints: bool = True,
) -> np.ndarray:
    """Per-row validity of scaled candidates against scaled originals.

    With include_constraints=False only the attacker-capability checks
    run (ball, mutability, typing); that is the unconstrained view used
    to quantify how much constraint validation reverts.
    """
    facts = _Facts(schema)
    Z_orig = np.atleast_2d(Z_orig)
    Z_cand = np.atleast_2d(Z_cand)
    ok = distance(Z_cand, Z_orig, budget.norm) <= budget.eps + DISTANCE_SLACK

    immutable = ~facts.mutable_mask()
    if immutable.any():
        ok &= np.all(Z_cand[:, immutable] == Z_orig[:, immutable], axis=1)

    raw = scaler.inverse_transform(Z_cand)
    int_cols = facts.integer_mask()
    if int_cols.any():
        frac = np.abs(raw[:, int_cols] - np.round(raw[:, int_cols]))
        ok &= np.all(frac <= 1e-9, axis=1)
    for cols in facts.onehot_groups().values():
        block = raw[:, cols]
        ok &= np.abs(block.sum(axis=1) - 1.0) <= 1e-9
        ok &= np.all(np.abs(block - np.round(block)) <= 1e-9, axis=1)

    lo, hi = facts.bounds()
    ok &= np.all((raw >= lo - 1e-9) & (raw <= hi + 1e-9), axis=1)

    if include_constraints:
        ok &= check(cs, raw, cfg)
    return ok


def validate_against_schema(X: np.ndarray, schema: DatasetSchema) -> None:
    """Bounds, integrality, and one-hot exclusivity checks.

    Errors name the first offending row and column.
    """
    facts = _Facts(schema)
    if X.shape[1] != schema.n_features:
        raise DataError(
            f"matrix has {X.shape[1]} columns, schema has {schema.n_features}"
        )
    lo, hi = facts.bounds()
    for j, f in enumerate(facts.features):
        col = X[:, j]
        bad = np.where((col < lo[j]) | (col > hi[j]))[0]
        if bad.size:
            raise DataError(
                f"row {bad[0]}, column {f.name!r}: value {col[bad[0]]!r} outside "
                f"[{f.min}, {f.max}]"
            )
        if f.kind in ("integer", "categorical"):
            frac = np.abs(col - np.round(col))
            bad = np.where(frac > 1e-9)[0]
            if bad.size:
                raise DataError(
                    f"row {bad[0]}, column {f.name!r}: value {col[bad[0]]!r} is not "
                    "integral"
                )
    for group, cols in facts.onehot_groups().items():
        sums = X[:, cols].sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > 1e-9)[0]
        if bad.size:
            raise DataError(
                f"row {bad[0]}: one-hot group {group!r} sums to {sums[bad[0]]!r}, "
                "expected exactly one active column"
            )
