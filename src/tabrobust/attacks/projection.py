"""Feasibility projection for attack candidates, in scaled [0, 1] space.

Projection runs, in order: restore immutable coordinates, clip to the
[0, 1] box, project onto the eps-ball around the original point, round
integer features to the nearest feasible value, and snap one-hot groups
to their argmax. The ball projection is exact; rounding and snapping
may re-inflate the distance slightly, which downstream validation
re-checks.

Snapping works over the schema's one-hot layout: one argmax per
distinct group size (first maximum, or first NaN, wins), then each group
column is set to whether its position is its group's winner.

The slacks of the ball and box tests live here: `DISTANCE_SLACK`, which
validation shares, and `BOX_SLACK`. Both attacks test candidates with
`in_ball_and_box`.
"""

from __future__ import annotations

import numpy as np

from ..data import DatasetSchema, MinMaxScaler
from .budget import AttackBudget

DISTANCE_SLACK = 1e-9  # scaled units
BOX_SLACK = 1e-12  # scaled units; validation's BOUNDS_SLACK is in raw units


def distance(a: np.ndarray, b: np.ndarray, norm: str) -> np.ndarray:
    """Row-wise distance between equally shaped matrices (or vectors)."""
    diff = np.atleast_2d(a) - np.atleast_2d(b)
    if norm == "Linf":
        d = np.abs(diff).max(axis=-1)
    elif norm == "L2":
        d = np.sqrt((diff * diff).sum(axis=-1))
    else:
        raise ValueError(f"unsupported norm {norm!r}")
    return d if np.asarray(a).ndim == 2 else d[0]


def in_ball_and_box(Z: np.ndarray, dist: np.ndarray, eps: float) -> np.ndarray:
    """Rows of Z (at distances `dist`) in the eps-ball and [0, 1] box, up to the slacks."""
    in_box = np.all((Z >= -BOX_SLACK) & (Z <= 1.0 + BOX_SLACK), axis=1)
    return (dist <= eps + DISTANCE_SLACK) & in_box


def _ball_project(
    cand: np.ndarray, orig: np.ndarray, eps: float, norm: str
) -> np.ndarray:
    """Project rows of `cand` onto the eps-ball around `orig`.

    Rows/coordinates already inside the ball are passed through
    untouched (not recomputed), so projecting twice is bit-identical
    to projecting once.
    """
    delta = cand - orig
    if norm == "Linf":
        clipped = np.clip(delta, -eps, eps)
        return np.where(clipped == delta, cand, orig + clipped)
    norms = np.sqrt((delta * delta).sum(axis=1, keepdims=True))
    outside = norms > eps * (1.0 + 1e-12)
    factor = eps / np.maximum(norms, 1e-30)
    return np.where(outside, orig + delta * factor, cand)


def project(
    candidate: np.ndarray,
    original: np.ndarray,
    budget: AttackBudget,
    schema: DatasetSchema,
    scaler: MinMaxScaler,
) -> np.ndarray:
    """Project candidate rows into the feasible region around originals."""
    cand = np.atleast_2d(np.asarray(candidate, dtype=float)).copy()
    orig = np.atleast_2d(np.asarray(original, dtype=float))
    single = np.asarray(candidate).ndim == 1

    cand[:, schema.immutable] = orig[:, schema.immutable]

    np.clip(cand, 0.0, 1.0, out=cand)
    cand = _ball_project(cand, orig, budget.eps, budget.norm)
    # The rescale can leave the box by an ulp; re-clip (moves points
    # toward the originals, so the ball constraint is preserved).
    np.clip(cand, 0.0, 1.0, out=cand)

    # Round in raw units: only the integer columns go through the scaler.
    ints = schema.int_cols
    if ints.size:
        low, width = scaler.min_[ints], scaler.width_[ints]
        raw = np.clip(np.round(cand[:, ints] * width + low), schema.lo[ints], schema.hi[ints])
        cand[:, ints] = (raw - low) / width

    winners = schema.per_group(cand, np.argmax)
    cand[:, schema.group_cols] = winners[:, schema.group_of] == schema.group_pos

    # Re-pin immutables: rounding/snapping must never touch them.
    cand[:, schema.immutable] = orig[:, schema.immutable]
    return cand[0] if single else cand
