"""Search attack: a per-sample multi-objective genetic algorithm.

Each candidate is scored on three objectives, all minimized: the
probability the model assigns to the true class, the perturbation
distance, and the total constraint penalty. Survival is elitist
nondominated sorting with crowding distance; mating is binary
tournament on (front rank, crowding). Offspring come from two-point
crossover over the mutable gene slots plus per-slot mutation (Gaussian
for continuous, uniform resample for integer and one-hot slots), then
are projected into the feasible box/ball and repaired with any
assignment-form fix rules derivable from the constraint set.

The attack is gradient-free and fully reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..data import DatasetSchema, MinMaxScaler
from ..engine import (
    PenaltyConfig,
    assignment_fix_rules,
    fix,
    total_penalty,
)
from ..expressions import ConstraintSet
from ..mlp import ReferenceModel
from .budget import AttackBudget
from .projection import distance, project

MUTATION_PROB = 0.2
SIGMA_FRACTION = 0.1  # Gaussian mutation sigma = eps * fraction


@dataclass
class SearchAttackOutput:
    """Best candidate of the search stage for one sample."""

    candidate: np.ndarray
    misclassified: bool
    penalty: float
    dist: float
    success: bool  # misclassified and feasible (ball + penalty tolerance)
    trace: list[tuple[float, float, float]] = field(default_factory=list)


def nondominated_sort(F: np.ndarray) -> np.ndarray:
    """Front index per row of an (n, m) objective matrix (minimization)."""
    n, m = F.shape
    le = F[:, 0][:, None] <= F[:, 0][None, :]
    lt = F[:, 0][:, None] < F[:, 0][None, :]
    for j in range(1, m):
        le &= F[:, j][:, None] <= F[:, j][None, :]
        lt |= F[:, j][:, None] < F[:, j][None, :]
    dominates = le & lt  # dominates[i, j]: i dominates j
    dom_count = dominates.sum(axis=0)
    rank = np.full(n, -1, dtype=int)
    front = np.where(dom_count == 0)[0]
    level = 0
    while front.size:
        rank[front] = level
        dom_count = dom_count - dominates[front].sum(axis=0)
        dom_count[front] = -1
        front = np.where(dom_count == 0)[0]
        level += 1
    return rank


def crowding_distance(F: np.ndarray) -> np.ndarray:
    """Crowding distance within one front (boundary points infinite)."""
    n, m = F.shape
    if n <= 2:
        return np.full(n, np.inf)
    dist = np.zeros(n)
    for j in range(m):
        order = np.argsort(F[:, j], kind="stable")
        spread = F[order[-1], j] - F[order[0], j]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if spread > 0:
            gaps = (F[order[2:], j] - F[order[:-2], j]) / spread
            dist[order[1:-1]] += gaps
    return dist


def rank_and_crowding(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    rank = nondominated_sort(F)
    crowd = np.zeros(len(F))
    for level in np.unique(rank):
        members = np.where(rank == level)[0]
        crowd[members] = crowding_distance(F[members])
    return rank, crowd


def survival_select(F: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k survivors by (front, crowding desc, index)."""
    rank, crowd = rank_and_crowding(F)
    order = np.lexsort((np.arange(len(F)), -crowd, rank))
    return order[:k]


def _tournament(
    rng: np.random.Generator, rank: np.ndarray, crowd: np.ndarray, count: int
) -> np.ndarray:
    """Binary tournaments: `count` winners by (rank, -crowding, index)."""
    n = len(rank)
    picks = rng.integers(0, n, size=(count, 2))
    a, b = picks[:, 0], picks[:, 1]
    a_wins = (rank[a] < rank[b]) | (
        (rank[a] == rank[b]) & (crowd[a] > crowd[b])
    ) | ((rank[a] == rank[b]) & (crowd[a] == crowd[b]) & (a <= b))
    return np.where(a_wins, a, b)


def moeva(
    model: ReferenceModel,
    cs: ConstraintSet,
    z: np.ndarray,
    y: int,
    budget: AttackBudget,
    schema: DatasetSchema,
    cfg: Optional[PenaltyConfig] = None,
    row_seed: Optional[int] = None,
) -> SearchAttackOutput:
    """Attack one scaled row; `row_seed` overrides the budget seed for
    per-row stream derivation."""
    if cfg is None:
        cfg = PenaltyConfig()
    z0 = np.asarray(z, dtype=float).ravel()
    d = z0.shape[0]
    scaler = model.scaler
    rng = np.random.default_rng(
        np.random.SeedSequence([budget.seed, 0 if row_seed is None else row_seed])
    )

    mutable = schema.mutable_mask()
    slots = [c for c in schema.column_slots() if mutable[c].all()]
    rules = assignment_fix_rules(cs, mutable)
    lo, hi = schema.bounds()
    int_mask = schema.integer_mask()

    def repair(pop: np.ndarray) -> np.ndarray:
        pop = project(pop, np.broadcast_to(z0, pop.shape), budget, schema, scaler)
        if rules:
            raw = fix(rules, scaler.inverse_transform(pop), cfg)
            pop = scaler.transform(raw)
            pop[:, ~mutable] = z0[~mutable]
        return pop

    def evaluate(pop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objectives and the misclassification mask (argmax != y, the
        rule every stage uses)."""
        probs = model.predict_proba_scaled(pop)
        f1 = probs[:, y]
        f2 = distance(pop, np.broadcast_to(z0, pop.shape), budget.norm)
        f3 = total_penalty(cs, scaler.inverse_transform(pop), cfg)
        F = np.stack([f1, np.atleast_1d(f2), np.atleast_1d(f3)], axis=1)
        return F, probs.argmax(axis=1) != y

    # Seed population: the original plus uniform perturbations of
    # radius eps/2 on mutable coordinates, repaired.
    pop = np.tile(z0, (budget.n_pop, 1))
    if budget.n_pop > 1 and budget.eps > 0:
        noise = rng.uniform(-budget.eps / 2, budget.eps / 2, (budget.n_pop - 1, d))
        noise[:, ~mutable] = 0.0
        pop[1:] += noise
        pop[1:] = repair(pop[1:])
    F, mis = evaluate(pop)

    best_key = None
    best = None
    success_found = False

    def consider(pop_arr: np.ndarray, F_arr: np.ndarray, mis: np.ndarray) -> None:
        nonlocal best_key, best, success_found
        in_box = np.all((pop_arr >= -1e-12) & (pop_arr <= 1.0 + 1e-12), axis=1)
        feasible = (
            (F_arr[:, 1] <= budget.eps + 1e-9)
            & (F_arr[:, 2] <= cfg.tolerance)
            & in_box
        )
        succ = mis & feasible
        # Successes rank before everything else, then (f3, f1, f2).
        keys = np.column_stack([~succ, F_arr[:, 2], F_arr[:, 0], F_arr[:, 1]])
        order = np.lexsort((keys[:, 3], keys[:, 2], keys[:, 1], keys[:, 0]))
        top = order[0]
        key = tuple(keys[top])
        if best_key is None or key < best_key:
            best_key = key
            best = pop_arr[top].copy()
            success_found = bool(succ[top])

    consider(pop, F, mis)
    trace = [tuple(F.min(axis=0))]
    rank, crowd = rank_and_crowding(F)

    for _ in range(budget.n_gen):
        n_pairs = (budget.n_off + 1) // 2
        parents_a = _tournament(rng, rank, crowd, n_pairs)
        parents_b = _tournament(rng, rank, crowd, n_pairs)
        off = _crossover_batch(rng, pop[parents_a], pop[parents_b], slots)[
            : budget.n_off
        ]
        off = _mutate(rng, off, z0, slots, budget, scaler, lo, hi, int_mask)
        off = repair(off)
        F_off, mis_off = evaluate(off)
        consider(off, F_off, mis_off)

        merged = np.vstack([pop, off])
        F_merged = np.vstack([F, F_off])
        # One sort per generation: survivors inherit their merged-set
        # rank and crowding for the next mating selection.
        m_rank, m_crowd = rank_and_crowding(F_merged)
        order = np.lexsort((np.arange(len(F_merged)), -m_crowd, m_rank))
        keep = order[: budget.n_pop]
        pop, F = merged[keep], F_merged[keep]
        rank, crowd = m_rank[keep], m_crowd[keep]
        trace.append(tuple(F.min(axis=0)))

    probs_best = model.predict_proba_scaled(best[None, :])[0]
    pen_best = float(total_penalty(cs, scaler.inverse_transform(best[None, :]), cfg)[0])
    dist_best = float(distance(best[None, :], z0[None, :], budget.norm)[0])
    return SearchAttackOutput(
        candidate=best,
        misclassified=bool(probs_best.argmax() != y),
        penalty=pen_best,
        dist=dist_best,
        success=success_found,
        trace=trace,
    )


def _crossover_batch(
    rng: np.random.Generator,
    PA: np.ndarray,
    PB: np.ndarray,
    slots: list[np.ndarray],
) -> np.ndarray:
    """Two-point crossover over gene slots (one-hot groups move whole).

    Takes (k, d) parent arrays, returns the 2k children interleaved as
    (child1_of_pair0, child2_of_pair0, child1_of_pair1, ...).
    """
    k, d = PA.shape
    swap_cols = np.zeros((k, d), dtype=bool)
    n_slots = len(slots)
    if n_slots >= 2:
        pts = np.sort(rng.integers(0, n_slots + 1, size=(k, 2)), axis=1)
        slot_ids = np.arange(n_slots)
        swap = (slot_ids[None, :] >= pts[:, :1]) & (slot_ids[None, :] < pts[:, 1:])
        sizes = [len(cols) for cols in slots]
        swap_cols[:, np.concatenate(slots)] = np.repeat(swap, sizes, axis=1)
    out = np.empty((2 * k, d))
    out[0::2] = np.where(swap_cols, PB, PA)
    out[1::2] = np.where(swap_cols, PA, PB)
    return out


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
