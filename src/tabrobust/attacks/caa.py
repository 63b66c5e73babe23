"""Two-stage attack ensemble: gradient first, search on the leftovers.

The gradient attack runs batched over every sample; candidates that are
misclassified AND independently validated are finalized. All remaining
samples go to the search attack (parallel per sample, one RNG stream
per row). The final candidate per sample is the first valid success
either stage produced, otherwise the original input. Per-stage best
attempts are kept so the harness can re-validate the same outputs under
different validation modes (e.g. ignoring domain constraints).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..data import DatasetSchema
from ..engine import PenaltyConfig
from ..expressions import ConstraintSet
from ..mlp import ReferenceModel
from ..parallel import seeded_parallel_map
from .budget import AttackBudget
from .capgd import capgd
from .moeva import moeva
from .validation import validity_mask


@dataclass
class SampleResult:
    """Outcome for one attacked row (all vectors in scaled space).

    `candidate` is the finalized output: a fully valid misclassifying
    example when one was found (success True), else the original.
    `attempts` holds each stage's best candidate before reversion;
    `misclassified` and `valid` describe the attempt that decided the
    outcome (so success == misclassified and valid).
    """

    row_index: int
    original: np.ndarray
    candidate: np.ndarray
    success: bool
    misclassified: bool
    valid: bool
    stage: Optional[str]
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

    def candidates(self) -> np.ndarray:
        return np.array([s.candidate for s in self.samples])


def caa(
    model: ReferenceModel,
    cs: ConstraintSet,
    Z: np.ndarray,
    y: np.ndarray,
    budget: AttackBudget,
    schema: DatasetSchema,
    cfg: Optional[PenaltyConfig] = None,
    row_indices: Optional[np.ndarray] = None,
    workers: Optional[int] = None,
    known_candidates: Optional[dict[int, np.ndarray]] = None,
) -> AttackResult:
    """Attack a batch of scaled rows (assumed correctly classified).

    `known_candidates` maps row index -> previously found candidate;
    rows whose carried candidate still validates as a success are
    finalized without re-attacking (budget sweeps reuse successes from
    smaller budgets this way).
    """
    if cfg is None:
        cfg = PenaltyConfig()
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    n = Z.shape[0]
    if row_indices is None:
        row_indices = np.arange(n)
    scaler = model.scaler
    start = time.perf_counter()

    results: list[Optional[SampleResult]] = [None] * n

    carried = [
        i for i in range(n)
        if known_candidates and int(row_indices[i]) in known_candidates
    ]
    if carried:
        idx = np.array(carried)
        cands = np.array(
            [known_candidates[int(row_indices[i])] for i in carried], dtype=float
        )
        hits = validity_mask(schema, scaler, cs, Z[idx], cands, budget, cfg)
        hits &= model.predict_proba_scaled(cands).argmax(axis=1) != y[idx]
        for i, cand, hit in zip(idx, cands, hits):
            if hit:
                results[i] = SampleResult(
                    row_index=int(row_indices[i]),
                    original=Z[i].copy(),
                    candidate=cand.copy(),
                    success=True,
                    misclassified=True,
                    valid=True,
                    stage="carried",
                    attempts={"carried": cand.copy()},
                )
    pending = [i for i in range(n) if results[i] is None]

    if pending:
        idx = np.array(pending)
        grad_out = capgd(model, cs, Z[idx], y[idx], budget, schema, cfg)
        grad_valid = validity_mask(
            schema, scaler, cs, Z[idx], grad_out.candidates, budget, cfg
        )
        for pos, i in enumerate(idx):
            cand = grad_out.candidates[pos]
            mis = bool(grad_out.misclassified[pos])
            valid = bool(grad_valid[pos])
            hit = mis and valid
            results[i] = SampleResult(
                row_index=int(row_indices[i]),
                original=Z[i].copy(),
                candidate=cand.copy() if hit else Z[i].copy(),
                success=hit,
                misclassified=mis,
                valid=valid,
                stage="gradient" if hit else None,
                attempts={"gradient": cand.copy()},
            )

    remaining = [i for i in range(n) if not results[i].success]
    if budget.n_gen > 0 and remaining:

        def run_search(i: int):
            return moeva(
                model,
                cs,
                Z[i],
                int(y[i]),
                budget,
                schema,
                cfg,
                row_seed=int(row_indices[i]),
            )

        outs = seeded_parallel_map(run_search, remaining, workers)
        idx = np.array(remaining)
        cands = np.array([out.candidate for out in outs])
        valid = validity_mask(schema, scaler, cs, Z[idx], cands, budget, cfg)
        for i, search_out, ok in zip(remaining, outs, valid):
            res = results[i]
            res.attempts["search"] = search_out.candidate.copy()
            res.misclassified = search_out.misclassified
            res.valid = bool(ok)
            if search_out.misclassified and ok:
                res.candidate = search_out.candidate.copy()
                res.success = True
                res.stage = "search"

    return AttackResult(samples=results, wall_time=time.perf_counter() - start)
