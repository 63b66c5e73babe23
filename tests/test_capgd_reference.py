"""`tabrobust.attacks.capgd` against `tests/reference_capgd.py`, the
attack that evaluates the model and the penalty again at every
checkpoint restart. Restarts now recombine the best point's stored
objective pieces with the current penalty weight, which is exact only
because every row's pieces do not depend on the other rows of its
batch; the candidates and misclassification masks must match bit for
bit over batch sizes, norms, iteration counts and constraint sets with
and without repair rules."""

import importlib

import numpy as np
import pytest
import reference_capgd
from hypothesis import given, settings
from hypothesis import strategies as st

from tabrobust.attacks import AttackBudget, capgd
from tabrobust.expressions import ConstraintSet
from tabrobust.mlp import ReferenceModel, TrainConfig, train
from tabrobust.synth import SyntheticSpec, generate_synthetic

capgd_module = importlib.import_module("tabrobust.attacks.capgd")


@pytest.fixture(scope="module")
def wide_bench():
    """A 24-feature benchmark-template model, trained briefly."""
    dataset, schema, cs = generate_synthetic(SyntheticSpec(n_rows=400, n_features=24), seed=5)
    model, _ = train(ReferenceModel(schema.n_features, seed=5), dataset,
                     TrainConfig(epochs=2, seed=5), schema)
    return model, dataset, schema, cs


def attack_inputs(bench, n_rows, noise, rule_set, seed):
    """(model, constraint set, Z, y, schema): `n_rows` rows drawn from
    the bench, moved off the constraints by `noise` (scaled units), with
    all constraints (the sum rule gives a repair rule), all but the sum
    rule (no repair rule) or none."""
    model, dataset, schema, cs = bench
    rng = np.random.default_rng(seed)
    idx = rng.choice(dataset.n_rows, size=n_rows, replace=False)
    Z = model.scaler.transform(dataset.X[idx])
    Z = np.clip(Z + noise * rng.standard_normal(Z.shape), 0.0, 1.0)
    constraints = {"all": list(cs), "no_rules": list(cs)[1:], "none": []}[rule_set]
    return model, ConstraintSet(constraints), Z, dataset.y[idx], schema


@settings(max_examples=100, deadline=None)
@given(
    wide=st.booleans(),
    n_rows=st.sampled_from([1, 3, 5, 63]) | st.integers(1, 64),
    norm=st.sampled_from(["L2", "Linf"]),
    n_iter=st.sampled_from([1, 5, 10, 20]),
    eps=st.sampled_from([0.05, 0.5, 1.0]),
    noise=st.sampled_from([0.0, 0.1, 0.3]),
    rule_set=st.sampled_from(["all", "no_rules", "none"]),
    seed=st.integers(0, 2**16),
)
def test_capgd_matches_reference(small_bench, wide_bench, wide, n_rows, norm, n_iter, eps,
                                 noise, rule_set, seed):
    model, cs, Z, y, schema = attack_inputs(
        wide_bench if wide else small_bench, n_rows, noise, rule_set, seed
    )
    budget = AttackBudget(norm=norm, eps=eps, n_iter_gradient=n_iter)
    got = capgd(model, cs, Z, y, budget, schema)
    want = reference_capgd.capgd(model, cs, Z, y, budget, schema)
    assert np.array_equal(got.candidates, want.candidates)
    assert np.array_equal(got.misclassified, want.misclassified)


def test_reference_cases_restart_and_double_lam(small_bench, monkeypatch):
    # The drawn cases above reach the paths the stored pieces serve:
    # rows restart from them, and rows' penalty weights double between
    # the evaluation that stored them and a restart that reads them.
    weights = []
    objective = capgd_module._objective

    def recording(pieces, lam):
        weights.append(lam.copy())
        return objective(pieces, lam)

    monkeypatch.setattr(capgd_module, "_objective", recording)
    model, cs, Z, y, schema = attack_inputs(small_bench, 63, 0.1, "all", seed=0)
    budget = AttackBudget(n_iter_gradient=20)
    got = capgd(model, cs, Z, y, budget, schema)
    restarts = len(weights) - 1 - budget.n_iter_gradient
    assert restarts >= 2
    assert np.max(weights[-1]) > budget.lam
    want = reference_capgd.capgd(model, cs, Z, y, budget, schema)
    assert np.array_equal(got.candidates, want.candidates)
    assert np.array_equal(got.misclassified, want.misclassified)
