"""Gradient attack: projected ascent with momentum, checkpointed step
halving, and a constraint-violation penalty folded into the objective.

Per sample, the attack maximizes

    L(z) = CE(model(z), y) - lam * total_penalty(constraints, raw(z))

over the scaled eps-ball, where raw() unscales back to feature units.
The update blends the gradient step with the previous displacement
(weight alpha); at schedule checkpoints the step is halved and the
iterate reset to the best-seen point whenever fewer than rho * interval
iterations improved the objective. The penalty weight doubles at any
checkpoint where the best candidate is still violating, keeping both
objectives active.

Everything is vectorized across samples with per-sample step sizes and
bookkeeping; the attack itself is deterministic (no random start).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data import DatasetSchema, MinMaxScaler
from ..engine import (
    DEFAULT_PENALTY_CONFIG,
    PenaltyConfig,
    assignment_fix_rules,
    fix,
    total_penalty,
    total_penalty_with_gradient,
)
from ..expressions import ConstraintSet
from ..mlp import ReferenceModel, cross_entropy
from .budget import AttackBudget, checkpoint_schedule
from .projection import distance, project

ALPHA_MOMENTUM = 0.75
RHO_HALVING = 0.75


@dataclass
class GradientAttackOutput:
    """Best candidates of the gradient stage, scaled space."""

    candidates: np.ndarray
    misclassified: np.ndarray
    penalties: np.ndarray
    distances: np.ndarray
    loss_trace: list[np.ndarray] = field(default_factory=list)


def _objective_pieces(
    model: ReferenceModel,
    cs: ConstraintSet,
    scaler: MinMaxScaler,
    Z: np.ndarray,
    y: np.ndarray,
    lam: np.ndarray,
    cfg: PenaltyConfig,
):
    """(objective, gradient, penalty, misclassified) at Z."""
    pen, pen_grad_raw = total_penalty_with_gradient(cs, scaler.inverse_transform(Z), cfg)
    probs = model.predict_proba_scaled(Z)
    obj = cross_entropy(probs, y) - lam * pen
    grad = model.input_gradient(Z, y) - lam[:, None] * (pen_grad_raw * scaler.width_)
    return obj, grad, pen, probs.argmax(axis=1) != y


def _step_direction(grad: np.ndarray, norm: str) -> np.ndarray:
    if norm == "Linf":
        return np.sign(grad)
    norms = np.sqrt((grad * grad).sum(axis=1, keepdims=True))
    return np.where(norms > 0, grad / np.maximum(norms, 1e-30), 0.0)


def capgd(
    model: ReferenceModel,
    cs: ConstraintSet,
    Z: np.ndarray,
    y: np.ndarray,
    budget: AttackBudget,
    schema: DatasetSchema,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> GradientAttackOutput:
    """Attack a batch of scaled rows; returns per-sample best candidates.

    Candidates are ranked by (misclassified, lower penalty, smaller
    distance); with eps == 0 or an all-flat model the originals come
    back unchanged.
    """
    Z0 = np.atleast_2d(np.asarray(Z, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    n = Z0.shape[0]
    scaler = model.scaler

    # Candidate ranking key, lexicographic minimization.
    def candidate_key(mis, pen, dist):
        return np.stack([(~mis).astype(float), pen, dist], axis=1)

    pen0 = total_penalty(cs, scaler.inverse_transform(Z0), cfg)
    pen0 = np.atleast_1d(pen0)
    probs0 = model.predict_proba_scaled(Z0)
    mis0 = probs0.argmax(axis=1) != y
    best_cand = Z0.copy()
    best_key = candidate_key(mis0, pen0, np.zeros(n))
    trace: list[np.ndarray] = []

    if budget.eps == 0:
        return GradientAttackOutput(
            candidates=best_cand,
            misclassified=mis0,
            penalties=pen0,
            distances=np.zeros(n),
            loss_trace=trace,
        )

    lam = np.full(n, budget.lam)
    eta = np.full(n, 2.0 * budget.eps / budget.n_iter_gradient)
    checkpoints = checkpoint_schedule(budget.n_iter_gradient)
    rules = assignment_fix_rules(cs, schema.mutable_mask())
    mutable = schema.mutable_mask()

    def offer_repaired(z_batch: np.ndarray) -> None:
        """Let each iterate's repaired variant compete as a candidate.

        The iteration itself is untouched; repair only widens the pool
        the best candidate is drawn from, and only with variants that
        stay inside the ball and box.
        """
        raw_fixed = fix(rules, scaler.inverse_transform(z_batch), cfg)
        z_fixed = scaler.transform(raw_fixed)
        z_fixed[:, ~mutable] = Z0[:, ~mutable]
        changed = np.any(z_fixed != z_batch, axis=1)
        if not np.any(changed):
            return
        dist_f = distance(z_fixed, Z0, budget.norm)
        in_ball = dist_f <= budget.eps + 1e-9
        in_box = np.all((z_fixed >= -1e-12) & (z_fixed <= 1.0 + 1e-12), axis=1)
        eligible = changed & in_ball & in_box
        if not np.any(eligible):
            return
        pen_f = np.atleast_1d(total_penalty(cs, scaler.inverse_transform(z_fixed), cfg))
        mis_f = model.predict_proba_scaled(z_fixed).argmax(axis=1) != y
        key_f = candidate_key(mis_f, pen_f, dist_f)
        better = _lex_less(key_f, best_key) & eligible
        best_cand[better] = z_fixed[better]
        best_key[better] = key_f[better]

    obj, grad, _, _ = _objective_pieces(model, cs, scaler, Z0, y, lam, cfg)
    z_cur = Z0.copy()
    z_prev = Z0.copy()
    obj_cur = obj
    best_obj = obj.copy()
    best_obj_point = Z0.copy()
    improvements = np.zeros(n)
    prev_checkpoint = 0

    for it in range(1, budget.n_iter_gradient + 1):
        step = eta[:, None] * _step_direction(grad, budget.norm)
        blended = z_cur + ALPHA_MOMENTUM * step + (1.0 - ALPHA_MOMENTUM) * (
            z_cur - z_prev
        )
        z_next = project(blended, Z0, budget, schema, scaler)

        obj_next, grad_next, pen_next, mis_next = _objective_pieces(
            model, cs, scaler, z_next, y, lam, cfg
        )
        dist_next = distance(z_next, Z0, budget.norm)
        key_next = candidate_key(mis_next, pen_next, dist_next)
        better = _lex_less(key_next, best_key)
        best_cand[better] = z_next[better]
        best_key[better] = key_next[better]
        if rules:
            offer_repaired(z_next)

        improvements += obj_next > obj_cur
        gained = obj_next > best_obj
        best_obj_point[gained] = z_next[gained]
        best_obj[gained] = obj_next[gained]
        trace.append(obj_next.copy())

        z_prev, z_cur = z_cur, z_next
        obj_cur = obj_next
        grad = grad_next

        if it in checkpoints:
            interval = it - prev_checkpoint
            stalled = improvements < RHO_HALVING * interval
            if np.any(stalled):
                eta[stalled] *= 0.5
                z_cur = z_cur.copy()
                z_cur[stalled] = best_obj_point[stalled]
                z_prev = z_prev.copy()
                z_prev[stalled] = best_obj_point[stalled]
                obj_s, grad_s, _, _ = _objective_pieces(
                    model, cs, scaler, z_cur, y, lam, cfg
                )
                obj_cur = np.where(stalled, obj_s, obj_cur)
                grad = np.where(stalled[:, None], grad_s, grad)
            still_violating = best_key[:, 1] > cfg.tolerance
            lam = np.where(still_violating, lam * 2.0, lam)
            improvements = np.zeros(n)
            prev_checkpoint = it

    final_mis = best_key[:, 0] == 0.0
    return GradientAttackOutput(
        candidates=best_cand,
        misclassified=final_mis,
        penalties=best_key[:, 1].copy(),
        distances=best_key[:, 2].copy(),
        loss_trace=trace,
    )


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic a < b over (n, k) key matrices."""
    out = np.zeros(a.shape[0], dtype=bool)
    decided = np.zeros(a.shape[0], dtype=bool)
    for j in range(a.shape[1]):
        less = (a[:, j] < b[:, j]) & ~decided
        out |= less
        decided |= less | ((a[:, j] > b[:, j]) & ~decided)
    return out
