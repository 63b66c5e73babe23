"""Reference survival sort: the per-front nondominated sort and crowding
that `tabrobust.attacks.moeva` ran before survival became a few
whole-array calls, and the survival order built on them. Kept verbatim
so the tests can require the whole-array version to give bit-identical
ranks, crowding distances and survivors."""

from __future__ import annotations

import numpy as np


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
