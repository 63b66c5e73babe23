"""Search attack: a per-sample multi-objective genetic algorithm.

Each candidate is scored on three objectives, all minimized: the
probability the model assigns to the true class, the perturbation
distance, and the total constraint penalty. Survival is elitist
nondominated sorting with crowding distance; mating is binary
tournament on (front rank, crowding), and one draw of random numbers
picks both parent sets of a generation (the stream of two draws).

Survival works on whole arrays. Dominance compares dense integer value
ranks of each objective. A row's dominators are the rows nowhere worse
than it less its exact copies, which share its front, so no transposed
dominance matrix is built. Fronts are peeled only until they hold the
survivors; the rows left share one rank past them, since survival
never reads their order. One stable sort per objective by (front,
value, index) then gives every front's crowding at once.

Offspring come from two-point crossover over the mutable gene slots
plus per-slot mutation (Gaussian for continuous, uniform resample for
integer and one-hot slots), then are projected into the feasible
box/ball and repaired with any assignment-form fix rules derivable
from the constraint set.

The slot layout is built once per call. Mutation draws one fixed block
of random numbers per generation, in this order: a hit flag for every
(offspring, slot), Gaussian noise for every continuous slot, a uniform
integer for every integer slot and a category for every one-hot group.
Hits are written back with `np.where` over column blocks, so slots
that are not hit keep their bytes, and how much of the stream a
generation uses depends only on the offspring count and the layout.

`n_gen` is a maximum. A row's search stops once its best candidate is
a success that `validity_mask` accepts, the rule `caa` finalizes by:
once after the seed population, then after each generation. A row won
by its seed population makes no survival sort. The check draws no
random numbers, so a row that is never won runs all `n_gen`
generations exactly as without it.

The attack is gradient-free and fully reproducible from its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..data import DatasetSchema, MinMaxScaler
from ..engine import (
    DEFAULT_PENALTY_CONFIG,
    PenaltyConfig,
    assignment_fix_rules,
    fix,
    total_penalty,
)
from ..expressions import ConstraintSet
from ..mlp import ReferenceModel
from .budget import AttackBudget
from .capgd import _lex_less
from .projection import distance, in_ball_and_box, project
from .validation import validity_mask

MUTATION_PROB = 0.2
SIGMA_FRACTION = 0.1  # Gaussian mutation sigma = eps * fraction


@dataclass
class SearchAttackOutput:
    """Best candidate of the search stage for one sample."""

    candidate: np.ndarray
    misclassified: bool
    success: bool  # misclassified and feasible (ball + penalty tolerance)
    trace: list[tuple[float, float, float]] = field(default_factory=list)


@dataclass(frozen=True)
class SlotLayout:
    """The mutable gene slots of a schema, split by how they mutate.

    Crossover reads `cols` and `sizes`: every slot's columns, slot after
    slot. Mutation reads the three kinds: continuous columns, integer
    columns with their int64 bounds, and one-hot groups, given as their
    columns group after group, each column's group and position in it,
    and the group sizes.
    """

    cols: np.ndarray
    sizes: np.ndarray
    cont: np.ndarray
    ints: np.ndarray
    int_lo: np.ndarray
    int_hi: np.ndarray
    group_cols: np.ndarray
    group_of: np.ndarray
    group_pos: np.ndarray
    group_sizes: np.ndarray


def slot_layout(schema: DatasetSchema) -> SlotLayout:
    """The gene slots of `schema`, read off its layout: the column slots
    with no immutable column, in order of first column."""
    gene_slot = ~np.isin(np.arange(len(schema.slot_sizes)), schema.slot_of[schema.immutable])
    gene = gene_slot[schema.slot_of]
    ints = np.flatnonzero(gene & schema.integer)
    in_gene = gene[schema.group_cols]
    groups, group_of = np.unique(schema.group_of[in_gene], return_inverse=True)
    return SlotLayout(
        cols=schema.slot_cols[gene[schema.slot_cols]],
        sizes=schema.slot_sizes[gene_slot],
        cont=np.flatnonzero(gene & ~schema.typed),
        ints=ints,
        int_lo=schema.lo[ints].astype(np.int64),
        int_hi=schema.hi[ints].astype(np.int64),
        group_cols=schema.group_cols[in_gene],
        group_of=group_of,
        group_pos=schema.group_pos[in_gene],
        group_sizes=schema.group_sizes[groups],
    )


def rank_and_crowding(
    F: np.ndarray, k: Optional[int] = None
) -> tuple[np.ndarray, np.ndarray]:
    """Front index (minimization) and crowding distance per row of an
    (n, m) objective matrix.

    A row with a NaN objective neither dominates nor is dominated.
    Within each front, crowding sums over objectives the normalized gap
    between a row's neighbours in (value, index) order; the first and
    last row of a front are infinite, and an objective with no positive
    spread over the front adds nothing.

    With a survivor count `k`, fronts are peeled only until they hold at
    least `k` rows; those rows get their exact rank and crowding, and
    every other row gets one rank past them (and the crowding of one
    front made of them all).
    """
    n, m = F.shape
    k = n if k is None else min(k, n)
    G = np.ascontiguousarray(F.T)
    itype = np.int16 if n < 2**15 else np.int64
    objs = np.arange(m)[:, None]
    # Per objective: dense value ranks, so that a <= b iff rank(a) <=
    # rank(b). The sort may order ties either way; NaN sorts last and
    # gets a rank of its own.
    by_value = np.argsort(G, axis=1)
    Gs = G[objs, by_value]
    step = np.zeros((m, n), dtype=itype)
    np.not_equal(Gs[:, 1:], Gs[:, :-1], out=step[:, 1:])
    np.cumsum(step, axis=1, out=step)
    R = np.empty_like(step)
    R[objs, by_value] = step

    le = R[0][:, None] <= R[0]  # [i, j]: i is nowhere worse than j
    for j in range(1, m):
        le &= R[j][:, None] <= R[j]
    # i dominates j iff le[i, j] and not le[j, i]. Rows with both are
    # j's exact copies (equal in every rank, j itself included), so j's
    # dominators are its column sum less its copies. A NaN row is given
    # no dominators, so it is peeled first; its NaN rank lies past every
    # value, so its le row counts nothing against rows without NaN.
    isnan = np.isnan(G)
    nan = isnan.any(axis=0)
    joint = np.lexsort(R)
    Rj = R.take(joint, axis=1)
    new = np.ones(n + 1, dtype=bool)
    new[1:-1] = (Rj[:, 1:] != Rj[:, :-1]).any(axis=0)
    copies = np.diff(np.flatnonzero(new))  # per run of equal rows
    le = le.view(np.uint8)
    dom_count = le.sum(axis=0, dtype=itype)
    dom_count[joint] -= np.repeat(copies, copies).astype(itype)
    dom_count[nan] = 0
    # Copies share a front, so le[front] is exactly the front's
    # dominance over the rows not yet peeled.
    rank = np.full(n, -1)
    front = np.flatnonzero(dom_count == 0)
    level = done = 0
    while True:
        rank[front] = level
        done += front.size
        if done >= k:
            break
        dom_count -= le[front].sum(axis=0, dtype=itype)
        dom_count[front] = -1
        front = np.flatnonzero(dom_count == 0)
        level += 1
    rank[rank < 0] = level + 1  # every row not peeled

    # Crowding for all fronts at once, per objective in (front, value,
    # index) order: one stable sort by front and dense rank, with every
    # NaN given the same rank past all values. numpy sorts 16-bit keys
    # by radix.
    key = rank * (n + 1) + np.where(isnan, n, R)
    if (level + 2) * (n + 1) <= 2**15:
        key = key.astype(np.int16)
    order = np.argsort(key, axis=1, kind="stable")
    Gs = G[objs, order]
    # Each front's first and last position, and the front at each position.
    sizes = np.bincount(rank)
    last = np.cumsum(sizes) - 1
    first = last - sizes + 1
    edge = np.zeros(n, dtype=bool)
    edge[first] = edge[last] = True
    spread = (Gs[:, last] - Gs[:, first])[:, rank[order[0]]]
    gaps = np.zeros((m, n))
    inner = gaps[:, 1:-1]
    mask = ~edge[1:-1] & (spread[:, 1:-1] > 0)
    np.subtract(Gs[:, 2:], Gs[:, :-2], out=inner, where=mask)
    np.divide(inner, spread[:, 1:-1], out=inner, where=mask)
    crowd = np.zeros(n)
    # Objective by objective: a boundary's inf replaces what earlier
    # objectives added, which may be NaN, and later gaps add to it.
    for j in range(m):
        crowd[order[j]] += gaps[j]
        crowd[order[j, edge]] = np.inf
    return rank, crowd


def survival_select(
    F: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices of the k survivors by (front, crowding desc, index), with
    the rank and crowding each had in F."""
    rank, crowd = rank_and_crowding(F, k)
    keep = np.lexsort((-crowd, rank))[:k]  # stable: ties keep index order
    return keep, rank[keep], crowd[keep]


def _tournament(
    rng: np.random.Generator, rank: np.ndarray, crowd: np.ndarray, count: int
) -> np.ndarray:
    """Binary tournaments: `count` winners by (rank, -crowding, index)."""
    a, b = rng.integers(0, len(rank), size=(count, 2)).T
    ra, rb, ca, cb = rank[a], rank[b], crowd[a], crowd[b]
    a_wins = (ra < rb) | ((ra == rb) & ((ca > cb) | ((ca == cb) & (a <= b))))
    return np.where(a_wins, a, b)


def moeva(
    model: ReferenceModel,
    cs: ConstraintSet,
    z: np.ndarray,
    y: int,
    budget: AttackBudget,
    schema: DatasetSchema,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
    *,
    row_seed: int,
) -> SearchAttackOutput:
    """Attack one scaled row; the random stream derives from the budget
    seed and `row_seed` (the row's dataset index).

    Runs at most `budget.n_gen` generations and stops after the first
    one (or the seed population) that leaves a validated success as the
    best candidate. The trace holds one entry per evaluated population.
    """
    z0 = np.asarray(z, dtype=float).ravel()
    d = z0.shape[0]
    scaler = model.scaler
    rng = np.random.default_rng(np.random.SeedSequence([budget.seed, row_seed]))

    layout = slot_layout(schema)
    rules = assignment_fix_rules(cs, schema.mutable)

    def repair(pop: np.ndarray) -> np.ndarray:
        pop = project(pop, z0[None, :], budget, schema, scaler)
        if rules:
            raw = fix(rules, scaler.inverse_transform(pop))
            pop = scaler.transform(raw)
            pop[:, schema.immutable] = z0[schema.immutable]
        return pop

    def evaluate(pop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Objectives and the misclassification mask (argmax != y, the
        rule every stage uses)."""
        probs = model.predict_proba_scaled(pop)
        f1 = probs[:, y]
        f2 = distance(pop, z0[None, :], budget.norm)
        f3 = total_penalty(cs, scaler.inverse_transform(pop))
        F = np.stack([f1, f2, f3], axis=1)
        return F, probs.argmax(axis=1) != y

    # Seed population: the original plus uniform perturbations of
    # radius eps/2 on mutable coordinates, repaired.
    pop = np.tile(z0, (budget.n_pop, 1))
    if budget.n_pop > 1 and budget.eps > 0:
        noise = rng.uniform(-budget.eps / 2, budget.eps / 2, (budget.n_pop - 1, d))
        noise[:, schema.immutable] = 0.0
        pop[1:] += noise
        pop[1:] = repair(pop[1:])
    F, mis = evaluate(pop)

    # The best candidate so far, with the objectives `evaluate` gave it.
    best_key = None
    best: Optional[SearchAttackOutput] = None

    def consider(pop_arr: np.ndarray, F_arr: np.ndarray, mis: np.ndarray) -> None:
        nonlocal best_key, best
        feasible = in_ball_and_box(pop_arr, F_arr[:, 1], budget.eps)
        succ = mis & feasible & (F_arr[:, 2] <= cfg.tolerance)
        # Successes rank before everything else, then (f3, f1, f2).
        top = np.lexsort((F_arr[:, 1], F_arr[:, 0], F_arr[:, 2], ~succ))[0]
        key = np.array([[not succ[top], F_arr[top, 2], F_arr[top, 0], F_arr[top, 1]]])
        if best_key is None or _lex_less(key, best_key)[0]:
            best_key = key
            best = SearchAttackOutput(
                candidate=pop_arr[top].copy(),
                misclassified=bool(mis[top]),
                success=bool(succ[top]),
            )

    def won() -> bool:
        """The stop rule: the best candidate is a success that `caa`'s
        settle step will accept."""
        return best.success and bool(
            validity_mask(schema, scaler, cs, z0, best.candidate, budget, cfg)[0]
        )

    consider(pop, F, mis)
    trace = [tuple(F.min(axis=0))]
    if won():
        best.trace = trace
        return best
    rank, crowd = rank_and_crowding(F)

    n_pairs = (budget.n_off + 1) // 2
    for _ in range(budget.n_gen):
        # One draw for both tournaments gives the stream of two draws.
        parents = pop[_tournament(rng, rank, crowd, 2 * n_pairs)]
        off = _crossover_batch(rng, parents[:n_pairs], parents[n_pairs:], layout)[
            : budget.n_off
        ]
        off = _mutate(rng, off, layout, budget, scaler)
        off = repair(off)
        F_off, mis_off = evaluate(off)
        consider(off, F_off, mis_off)

        # One sort per generation: survivors inherit their merged-set
        # rank and crowding for the next mating selection.
        F_merged = np.concatenate([F, F_off])
        keep, rank, crowd = survival_select(F_merged, budget.n_pop)
        pop, F = np.concatenate([pop, off])[keep], F_merged[keep]
        trace.append(tuple(F.min(axis=0)))
        if won():
            break

    best.trace = trace
    return best


def _crossover_batch(
    rng: np.random.Generator,
    PA: np.ndarray,
    PB: np.ndarray,
    layout: SlotLayout,
) -> np.ndarray:
    """Two-point crossover over gene slots (one-hot groups move whole).

    Takes (k, d) parent arrays, returns the 2k children interleaved as
    (child1_of_pair0, child2_of_pair0, child1_of_pair1, ...).
    """
    k, d = PA.shape
    swap_cols = np.zeros((k, d), dtype=bool)
    n_slots = len(layout.sizes)
    if n_slots >= 2:
        pts = np.sort(rng.integers(0, n_slots + 1, size=(k, 2)), axis=1)
        slot_ids = np.arange(n_slots)
        swap = (slot_ids[None, :] >= pts[:, :1]) & (slot_ids[None, :] < pts[:, 1:])
        swap_cols[:, layout.cols] = np.repeat(swap, layout.sizes, axis=1)
    out = np.empty((2 * k, d))
    out[0::2] = np.where(swap_cols, PB, PA)
    out[1::2] = np.where(swap_cols, PA, PB)
    return out


def _mutate(
    rng: np.random.Generator,
    off: np.ndarray,
    layout: SlotLayout,
    budget: AttackBudget,
    scaler: MinMaxScaler,
) -> np.ndarray:
    """Mutate each slot of each row of `off` in place with probability
    MUTATION_PROB: Gaussian noise of SD SIGMA_FRACTION * eps on a
    continuous slot, a uniform integer in the feature's bounds on an
    integer slot, a uniform category on a one-hot group.

    Draws one block per call, whether or not a slot is hit: hits for the
    (n, C + I + G) continuous, integer and group slots in that order,
    then (n, C) normals, (n, I) integers and (n, G) categories.
    """
    n = off.shape[0]
    C, I = len(layout.cont), len(layout.ints)
    hit = rng.random((n, C + I + len(layout.group_sizes))) < MUTATION_PROB
    noise = rng.normal(0.0, SIGMA_FRACTION * budget.eps, (n, C))
    values = rng.integers(layout.int_lo, layout.int_hi + 1, (n, I))
    choice = rng.integers(0, layout.group_sizes, (n, len(layout.group_sizes)))

    block = off[:, layout.cont]
    off[:, layout.cont] = np.where(hit[:, :C], block + noise, block)
    ints = layout.ints
    scaled = (values - scaler.min_[ints]) / scaler.width_[ints]
    off[:, ints] = np.where(hit[:, C : C + I], scaled, off[:, ints])
    onehot = (choice[:, layout.group_of] == layout.group_pos).astype(float)
    group_hit = hit[:, C + I :][:, layout.group_of]
    off[:, layout.group_cols] = np.where(group_hit, onehot, off[:, layout.group_cols])
    return off
