"""Reference mutation: the per-slot loop that `tabrobust.attacks.moeva`
ran before mutation drew one block of random numbers per generation.
Kept verbatim so the tests can hold both to the same mutation law."""

from __future__ import annotations

import numpy as np

from tabrobust.attacks.budget import AttackBudget
from tabrobust.attacks.moeva import MUTATION_PROB, SIGMA_FRACTION
from tabrobust.data import MinMaxScaler


def _mutate(
    rng: np.random.Generator,
    off: np.ndarray,
    z0: np.ndarray,
    slots: list[np.ndarray],
    budget: AttackBudget,
    scaler: MinMaxScaler,
    lo: np.ndarray,
    hi: np.ndarray,
    int_mask: np.ndarray,
) -> np.ndarray:
    """Per-slot mutation with probability MUTATION_PROB."""
    sigma = SIGMA_FRACTION * budget.eps
    n = off.shape[0]
    for cols in slots:
        hit = rng.random(n) < MUTATION_PROB
        if not np.any(hit):
            continue
        if len(cols) > 1:
            # One-hot group: resample the active category.
            choice = rng.integers(0, len(cols), size=n)
            block = np.zeros((n, len(cols)))
            block[np.arange(n), choice] = 1.0
            off[np.ix_(hit, cols)] = block[hit]
        elif int_mask[cols[0]]:
            j = cols[0]
            values = rng.integers(int(lo[j]), int(hi[j]) + 1, size=n).astype(float)
            scaled = (values - scaler.min_[j]) / scaler.width_[j]
            off[hit, j] = scaled[hit]
        else:
            j = cols[0]
            noise = rng.normal(0.0, sigma, size=n)
            off[hit, j] += noise[hit]
    return off
