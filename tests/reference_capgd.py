"""Reference CAPGD: the gradient attack as it ran before checkpoint
restarts reused the best point's stored objective pieces. Every
objective evaluation here runs the MLP forward twice (probabilities,
then the input gradient's own pass), and each restart evaluates the
whole batch again at the reset iterate. Kept verbatim so the tests can
require bit-identical candidates and misclassification masks."""

from __future__ import annotations

import numpy as np

from tabrobust.attacks.budget import AttackBudget, checkpoint_schedule
from tabrobust.attacks.capgd import (
    ALPHA_MOMENTUM,
    RHO_HALVING,
    GradientAttackOutput,
    _lex_less,
    _step_direction,
)
from tabrobust.attacks.projection import distance, in_ball_and_box, project
from tabrobust.data import DatasetSchema, MinMaxScaler
from tabrobust.engine import (
    DEFAULT_PENALTY_CONFIG,
    PenaltyConfig,
    assignment_fix_rules,
    fix,
    total_penalty,
    total_penalty_with_gradient,
)
from tabrobust.expressions import ConstraintSet
from tabrobust.mlp import ReferenceModel, cross_entropy


def _objective_pieces(
    model: ReferenceModel,
    cs: ConstraintSet,
    scaler: MinMaxScaler,
    Z: np.ndarray,
    y: np.ndarray,
    lam: np.ndarray,
):
    """(objective, gradient, penalty, misclassified) at Z."""
    pen, pen_grad_raw = total_penalty_with_gradient(cs, scaler.inverse_transform(Z))
    probs = model.predict_proba_scaled(Z)
    obj = cross_entropy(probs, y) - lam * pen
    grad = model.input_gradient(Z, y) - lam[:, None] * (pen_grad_raw * scaler.width_)
    return obj, grad, pen, probs.argmax(axis=1) != y


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
    obj, grad, pen0, mis0 = _objective_pieces(model, cs, scaler, Z0, y, lam)
    best_cand = Z0.copy()
    best_key = np.full((n, 3), np.inf)  # above every key: Z0's offer wins

    def offer(z, mis, pen, dist, eligible) -> None:
        """Keep eligible rows of z whose key is lexicographically below the best's."""
        key = np.stack([(~mis).astype(float), pen, dist], axis=1)
        better = _lex_less(key, best_key) & eligible
        best_cand[better] = z[better]
        best_key[better] = key[better]

    offer(Z0, mis0, pen0, np.zeros(n), True)
    if budget.eps == 0:
        return GradientAttackOutput(candidates=best_cand, misclassified=mis0)

    eta = np.full(n, 2.0 * budget.eps / budget.n_iter_gradient)
    checkpoints = checkpoint_schedule(budget.n_iter_gradient)[:-1]
    rules = assignment_fix_rules(cs, schema.mutable)

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
            model, cs, scaler, z_next, y, lam
        )
        offer(z_next, mis_next, pen_next, distance(z_next, Z0, budget.norm), True)
        if rules:
            # The repaired iterate competes too if it moved and stays in
            # the ball and box; the ascent goes on from the unrepaired one.
            z_fixed = scaler.transform(fix(rules, scaler.inverse_transform(z_next)))
            z_fixed[:, schema.immutable] = Z0[:, schema.immutable]
            dist_f = distance(z_fixed, Z0, budget.norm)
            moved = np.any(z_fixed != z_next, axis=1)
            eligible = moved & in_ball_and_box(z_fixed, dist_f, budget.eps)
            if np.any(eligible):
                pen_f = total_penalty(cs, scaler.inverse_transform(z_fixed))
                mis_f = model.predict_proba_scaled(z_fixed).argmax(axis=1) != y
                offer(z_fixed, mis_f, pen_f, dist_f, eligible)

        improvements += obj_next > obj_cur
        gained = obj_next > best_obj
        best_obj_point[gained] = z_next[gained]
        best_obj[gained] = obj_next[gained]

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
                    model, cs, scaler, z_cur, y, lam
                )
                obj_cur = np.where(stalled, obj_s, obj_cur)
                grad = np.where(stalled[:, None], grad_s, grad)
            still_violating = best_key[:, 1] > cfg.tolerance
            lam = np.where(still_violating, lam * 2.0, lam)
            improvements = np.zeros(n)
            prev_checkpoint = it

    return GradientAttackOutput(candidates=best_cand, misclassified=best_key[:, 0] == 0.0)
