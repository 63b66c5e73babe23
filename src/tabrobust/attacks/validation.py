"""Independent validity re-check for attack candidates.

A candidate counts as valid only if it stays inside the perturbation
ball, leaves immutable coordinates bit-untouched, respects integer and
one-hot typing, and satisfies the constraint set at the configured
tolerance. Attacks use this to finalize results; the harness re-runs it
on everything reported as a success, so no invalid example can reach a
report.

The ball's tolerance, `DISTANCE_SLACK`, lives in `projection` beside
the attacks' own ball-and-box test; `BOUNDS_SLACK` widens the schema's
bounds in raw feature units.
"""

from __future__ import annotations

import numpy as np

from ..data import DatasetSchema, MinMaxScaler, fits_schema
from ..engine import PenaltyConfig, check
from ..expressions import ConstraintSet
from .budget import AttackBudget
from .projection import DISTANCE_SLACK, distance

BOUNDS_SLACK = 1e-9  # raw feature units


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
    Z_orig = np.atleast_2d(Z_orig)
    Z_cand = np.atleast_2d(Z_cand)
    ok = distance(Z_cand, Z_orig, budget.norm) <= budget.eps + DISTANCE_SLACK
    ok &= np.all(Z_cand[:, schema.immutable] == Z_orig[:, schema.immutable], axis=1)

    raw = scaler.inverse_transform(Z_cand)
    ok &= fits_schema(raw, schema, BOUNDS_SLACK)

    if include_constraints:
        ok &= check(cs, raw, cfg)
    return ok
