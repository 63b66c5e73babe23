"""MOEVA's whole-array survival sort against the per-front reference in
`tests/reference_sort.py`: ranks, crowding distances and survivors must
be bit-identical (on the fronts that survive, when the sort is bounded),
on tie-, duplicate-, NaN- and inf-heavy objective matrices and inside a
full MOEVA run."""

import importlib

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_sort
from tabrobust.attacks import AttackBudget
from tabrobust.harness import select_attack_set

moeva_module = importlib.import_module("tabrobust.attacks.moeva")

# A small grid makes equal values and duplicate rows common.
GRID = (0.0, -0.0, 0.25, 0.5, 1.0, 3.0, np.inf, -np.inf, np.nan)


@st.composite
def objective_matrices(draw):
    n = draw(st.integers(0, 320))
    m = draw(st.integers(1, 4))
    values = draw(st.lists(st.sampled_from(GRID), min_size=1, max_size=len(GRID)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    F = rng.choice(np.array(values), size=(n, m))
    if n:
        # Copy some rows over others: exact duplicates across all objectives.
        copies = int(rng.integers(0, n))
        F[rng.integers(0, n, copies)] = F[rng.integers(0, n, copies)]
    return F


@settings(max_examples=150, deadline=None)
@given(objective_matrices(), st.integers(1, 330))
def test_rank_crowding_and_survivors_match_reference(F, k):
    with np.errstate(invalid="ignore"):
        rank, crowd = moeva_module.rank_and_crowding(F)
        ref_rank, ref_crowd = reference_sort.rank_and_crowding(F)
        keep, keep_rank, keep_crowd = moeva_module.survival_select(F, k)
        ref_keep = reference_sort.survival_select(F, k)
    assert rank.dtype == ref_rank.dtype
    assert np.array_equal(rank, ref_rank)
    assert np.array_equal(crowd, ref_crowd, equal_nan=True)
    assert np.array_equal(keep, ref_keep)
    assert np.array_equal(keep_rank, ref_rank[ref_keep])
    assert np.array_equal(keep_crowd, ref_crowd[ref_keep], equal_nan=True)


@settings(max_examples=150, deadline=None)
@given(objective_matrices(), st.integers(1, 330))
# A chain of 300 fronts: the crowding sort's keys outgrow 16 bits.
@example(np.column_stack([np.arange(300.0), -np.arange(300.0)[::-1]]), 300)
def test_bounded_sort_ranks_the_fronts_that_survive(F, k):
    with np.errstate(invalid="ignore"):
        rank, crowd = moeva_module.rank_and_crowding(F, k)
        ref_rank, ref_crowd = reference_sort.rank_and_crowding(F)
    # The first fronts that hold at least k rows, or all of them.
    last = np.searchsorted(np.cumsum(np.bincount(ref_rank, minlength=1)), min(k, len(F)))
    peeled = ref_rank <= last
    assert rank.dtype == ref_rank.dtype
    assert np.array_equal(rank[peeled], ref_rank[peeled])
    assert np.array_equal(crowd[peeled], ref_crowd[peeled], equal_nan=True)
    assert np.all(rank[~peeled] == last + 1)


def test_moeva_run_matches_reference_sort(small_bench, monkeypatch):
    model, dataset, schema, cs = small_bench
    budget = AttackBudget(eps=0.5, n_gen=8, n_pop=30, n_off=20, seed=4)
    idx = select_attack_set(model, dataset, schema, cap=4, seed=4)
    Z = model.scaler.transform(dataset.X[idx])

    def run(sort):
        calls = [0]

        def counting(F, k=None):
            calls[0] += 1
            return sort(F, k)

        monkeypatch.setattr(moeva_module, "rank_and_crowding", counting)
        outs = []
        for i, r in enumerate(idx):
            calls[0] = 0
            out = moeva_module.moeva(model, cs, Z[i], int(dataset.y[r]), budget, schema,
                                     row_seed=int(r))
            # One sort per survival step run, plus the seed population's
            # sort unless the seed population won the row (then the
            # trace has no survival step, as n_gen >= 1).
            survivals = len(out.trace) - 1
            assert calls[0] == survivals + (survivals > 0)
            outs.append(out)
        return outs

    outs = run(moeva_module.rank_and_crowding)
    # The reference ranks every front: survival takes its survivors from
    # the first ones, so bounding the sort must not change a bit.
    refs = run(lambda F, k: reference_sort.rank_and_crowding(F))
    for out, ref in zip(outs, refs):
        assert np.array_equal(out.candidate, ref.candidate)
        assert (out.misclassified, out.success) == (ref.misclassified, ref.success)
        assert out.trace == ref.trace
