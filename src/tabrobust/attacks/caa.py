"""Two-stage attack ensemble: gradient first, search on the leftovers.

Rows carrying a candidate from an earlier budget are settled first; the
gradient attack then runs batched over the rest, and the search attack
runs row by row (one RNG stream per row) on whatever is still not
attacked. Every stage's candidates go through one settle step: one
batched validation, the attempt recorded, and a row finalized by the
first stage whose candidate is misclassified and valid. Rows no stage
wins keep the original input. Per-stage best attempts are kept so the
harness can re-validate the same outputs under different validation
modes (e.g. ignoring domain constraints).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..data import DatasetSchema
from ..engine import DEFAULT_PENALTY_CONFIG, PenaltyConfig
from ..expressions import ConstraintSet
from ..mlp import ReferenceModel
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

    @property
    def success_mask(self) -> np.ndarray:
        return np.array([s.success for s in self.samples], dtype=bool)

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

    def settle(stage: str, idx: np.ndarray, cands: np.ndarray, mis: np.ndarray) -> None:
        """Record each row's attempt and finalize the rows it wins. A
        carried candidate comes from another budget, so it is recorded
        only when it wins at this one."""
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
        cands = np.array([known[int(row_indices[i])] for i in idx], dtype=float)
        settle("carried", idx, cands, model.predict_proba_scaled(cands).argmax(axis=1) != y[idx])

    idx = pending()
    if idx.size:
        out = capgd(model, cs, Z[idx], y[idx], budget, schema, cfg)
        settle("gradient", idx, out.candidates, out.misclassified)

    idx = pending()
    if budget.n_gen > 0 and idx.size:
        outs = [
            moeva(model, cs, Z[i], int(y[i]), budget, schema, cfg, row_seed=int(row_indices[i]))
            for i in idx
        ]
        settle(
            "search", idx,
            np.array([o.candidate for o in outs]),
            np.array([o.misclassified for o in outs]),
        )

    return AttackResult(samples=samples, wall_time=time.perf_counter() - start)
