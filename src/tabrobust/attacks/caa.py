"""Two-stage attack ensemble: gradient first, search on the leftovers.

Rows carrying a candidate from an earlier budget are settled first; the
gradient attack then runs batched over the rest, and the search attack
runs row by row (one RNG stream per row) on whatever is still not
attacked; `n_gen` is a maximum, as each row's search stops once it
holds a success the settle step will accept. One settle step judges
every stage's candidates and takes no flag from the stage: one forward
pass scores them by `mlp.misclassified`, one batch validates them, the
attempts are recorded, and a row is finalized by the first stage whose
candidate is misclassified and valid. Rows no stage wins keep the
original input.
Per-stage best attempts are kept so the harness can re-validate the
same outputs under different validation modes (e.g. ignoring domain
constraints).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..data import DatasetSchema
from ..engine import DEFAULT_PENALTY_CONFIG, PenaltyConfig
from ..expressions import ConstraintSet
from ..mlp import ReferenceModel, misclassified
from .budget import AttackBudget
from .capgd import capgd
from .moeva import moeva
from .validation import validity_mask


@dataclass
class SampleResult:
    """Outcome for one attacked row (all vectors in scaled space).

    `candidate` is the finalized output: a fully valid misclassifying
    example when one was found (success True, `stage` names the stage
    that found it), else the original. `attempts` holds each stage's
    best candidate before reversion, in stage order; a carried
    candidate appears only when it won.
    """

    row_index: int
    original: np.ndarray
    candidate: np.ndarray
    success: bool = False
    stage: Optional[str] = None
    attempts: dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class AttackResult:
    samples: list[SampleResult]
    wall_time: float = 0.0

    def success_indices(self) -> set[int]:
        return {s.row_index for s in self.samples if s.success}


def caa(
    model: ReferenceModel,
    cs: ConstraintSet,
    Z: np.ndarray,
    y: np.ndarray,
    budget: AttackBudget,
    schema: DatasetSchema,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
    row_indices: Optional[np.ndarray] = None,
    known_candidates: Optional[dict[int, np.ndarray]] = None,
) -> AttackResult:
    """Attack a batch of scaled rows (assumed correctly classified).

    `known_candidates` maps row index -> previously found candidate;
    rows whose carried candidate still validates as a success are
    finalized without re-attacking (budget sweeps reuse successes from
    smaller budgets this way).
    """
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    if row_indices is None:
        row_indices = np.arange(Z.shape[0])
    start = time.perf_counter()
    samples = [
        SampleResult(row_index=int(r), original=z.copy(), candidate=z.copy())
        for r, z in zip(row_indices, Z)
    ]

    def settle(stage: str, idx: np.ndarray, cands: np.ndarray) -> None:
        """Judge a stage's candidates, record each row's attempt and
        finalize the rows it wins. A carried candidate comes from
        another budget, so it is recorded only when it wins at this one."""
        mis = misclassified(model.predict_proba_scaled(cands), y[idx])
        hits = mis & validity_mask(schema, model.scaler, cs, Z[idx], cands, budget, cfg)
        for i, cand, hit in zip(idx, cands, hits):
            if hit or stage != "carried":
                samples[i].attempts[stage] = cand.copy()
            if hit:
                samples[i].candidate = cand.copy()
                samples[i].success, samples[i].stage = True, stage

    def pending() -> np.ndarray:
        return np.array([i for i, s in enumerate(samples) if not s.success], dtype=int)

    known = known_candidates or {}
    idx = np.array([i for i, r in enumerate(row_indices) if int(r) in known], dtype=int)
    if idx.size:
        settle("carried", idx, np.array([known[int(row_indices[i])] for i in idx], dtype=float))

    idx = pending()
    if idx.size:
        settle("gradient", idx, capgd(model, cs, Z[idx], y[idx], budget, schema, cfg).candidates)

    idx = pending()
    if budget.n_gen > 0 and idx.size:
        settle("search", idx, np.array([
            moeva(model, cs, Z[i], int(y[i]), budget, schema, cfg,
                  row_seed=int(row_indices[i])).candidate
            for i in idx
        ]))

    return AttackResult(samples=samples, wall_time=time.perf_counter() - start)
