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
objectives active. The schedule's last checkpoint is the last iteration,
so no restart or doubling happens there: nothing would read it.

Each point is scored once. An evaluation runs the MLP forward once: the
input gradient's pass also gives the loss and the misclassification
mask. It keeps the objective's pieces (cross-entropy, penalty and their
input gradients) apart, and the attack stores them with the best-seen
point, so a restart recombines them with the current penalty weight and
calls neither the model nor the penalty. A stored row was computed at
the same position in a batch of the same size, and no row's pieces
depend on the other rows of its batch, so the recombined objective is
bit-identical to evaluating the restart point again.

Everything is vectorized across samples with per-sample step sizes and
bookkeeping; the attack itself is deterministic (no random start).
"""

from __future__ import annotations

from dataclasses import dataclass

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
from ..mlp import ReferenceModel, cross_entropy, misclassified
from .budget import AttackBudget, checkpoint_schedule
from .projection import distance, in_ball_and_box, project

ALPHA_MOMENTUM = 0.75
RHO_HALVING = 0.75


@dataclass
class GradientAttackOutput:
    """Best candidates of the gradient stage, scaled space."""

    candidates: np.ndarray
    misclassified: np.ndarray


def _objective_pieces(
    model: ReferenceModel,
    cs: ConstraintSet,
    scaler: MinMaxScaler,
    Z: np.ndarray,
    y: np.ndarray,
):
    """(pieces, misclassified, raw Z) at Z, from one penalty call and one
    forward pass. The pieces are per-row cross-entropy, penalty, the
    cross-entropy's input gradient and the penalty's, in scaled space."""
    X = scaler.inverse_transform(Z)
    pen, pen_grad_raw = total_penalty_with_gradient(cs, X)
    ce_grad, probs = model.input_gradient(Z, y, with_proba=True)
    pieces = (cross_entropy(probs, y), pen, ce_grad, pen_grad_raw * scaler.width_)
    return pieces, misclassified(probs, y), X


def _objective(pieces, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(objective, gradient) of CE - lam * penalty from its pieces."""
    ce, pen, ce_grad, pen_grad = pieces
    return ce - lam * pen, ce_grad - lam[:, None] * pen_grad


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
    distance); the first is the start point, scored by the objective
    call that also seeds the ascent. With eps == 0 or an all-flat model
    the originals come back unchanged.
    """
    Z0 = np.atleast_2d(np.asarray(Z, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    n = Z0.shape[0]
    scaler = model.scaler

    lam = np.full(n, budget.lam)
    pieces, mis0, _ = _objective_pieces(model, cs, scaler, Z0, y)
    best_cand = Z0.copy()
    best_key = np.full((n, 3), np.inf)  # above every key: Z0's offer wins

    def offer(z, mis, pen, dist, eligible) -> None:
        """Keep eligible rows of z whose key is lexicographically below the best's."""
        key = np.stack([(~mis).astype(float), pen, dist], axis=1)
        better = _lex_less(key, best_key) & eligible
        best_cand[better] = z[better]
        best_key[better] = key[better]

    offer(Z0, mis0, pieces[1], np.zeros(n), True)
    if budget.eps == 0:
        return GradientAttackOutput(candidates=best_cand, misclassified=mis0)

    eta = np.full(n, 2.0 * budget.eps / budget.n_iter_gradient)
    checkpoints = checkpoint_schedule(budget.n_iter_gradient)[:-1]
    rules = assignment_fix_rules(cs, schema.mutable)

    z_cur = Z0.copy()
    z_prev = Z0.copy()
    obj_cur, grad = _objective(pieces, lam)
    best_obj = obj_cur.copy()
    best_obj_point = Z0.copy()
    best_pieces = [a.copy() for a in pieces]
    improvements = np.zeros(n)
    prev_checkpoint = 0

    for it in range(1, budget.n_iter_gradient + 1):
        step = eta[:, None] * _step_direction(grad, budget.norm)
        blended = z_cur + ALPHA_MOMENTUM * step + (1.0 - ALPHA_MOMENTUM) * (
            z_cur - z_prev
        )
        z_next = project(blended, Z0, budget, schema, scaler)

        pieces, mis_next, x_next = _objective_pieces(model, cs, scaler, z_next, y)
        obj_next, grad_next = _objective(pieces, lam)
        offer(z_next, mis_next, pieces[1], distance(z_next, Z0, budget.norm), True)
        if rules:
            # The repaired iterate competes too if it moved and stays in
            # the ball and box; the ascent goes on from the unrepaired one.
            z_fixed = scaler.transform(fix(rules, x_next))
            z_fixed[:, schema.immutable] = Z0[:, schema.immutable]
            dist_f = distance(z_fixed, Z0, budget.norm)
            moved = np.any(z_fixed != z_next, axis=1)
            eligible = moved & in_ball_and_box(z_fixed, dist_f, budget.eps)
            if np.any(eligible):
                pen_f = total_penalty(cs, scaler.inverse_transform(z_fixed))
                mis_f = misclassified(model.predict_proba_scaled(z_fixed), y)
                offer(z_fixed, mis_f, pen_f, dist_f, eligible)

        improvements += obj_next > obj_cur
        gained = obj_next > best_obj
        best_obj_point[gained] = z_next[gained]
        best_obj[gained] = obj_next[gained]
        for stored, new in zip(best_pieces, pieces):
            stored[gained] = new[gained]

        z_prev, z_cur = z_cur, z_next
        obj_cur = obj_next
        grad = grad_next

        if it in checkpoints:
            interval = it - prev_checkpoint
            stalled = improvements < RHO_HALVING * interval
            if np.any(stalled):
                # Back to the best-seen point, scored from its stored pieces.
                eta[stalled] *= 0.5
                z_cur = z_cur.copy()
                z_cur[stalled] = best_obj_point[stalled]
                z_prev = z_prev.copy()
                z_prev[stalled] = best_obj_point[stalled]
                obj_s, grad_s = _objective(best_pieces, lam)
                obj_cur = np.where(stalled, obj_s, obj_cur)
                grad = np.where(stalled[:, None], grad_s, grad)
            still_violating = best_key[:, 1] > cfg.tolerance
            lam = np.where(still_violating, lam * 2.0, lam)
            improvements = np.zeros(n)
            prev_checkpoint = it

    return GradientAttackOutput(candidates=best_cand, misclassified=best_key[:, 0] == 0.0)


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic a < b over (n, k) key matrices, in the
    order `np.lexsort` sorts by: NaN is above every number and equal to
    NaN. Equal keys are not less, so a tie keeps the earlier candidate.
    Both attacks rank their best candidates by it."""
    a_nan, b_nan = np.isnan(a), np.isnan(b)
    less = (a < b) | (b_nan & ~a_nan)
    differ = less | (a > b) | (a_nan & ~b_nan)
    # The first column that differs decides; in equal keys argmax gives
    # column 0, where `less` is False.
    return less[np.arange(len(a)), differ.argmax(axis=1)]
