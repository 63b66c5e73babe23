"""Synthetic constrained dataset generation."""

import numpy as np
import pytest

from tabrobust.engine import PenaltyConfig, check
from tabrobust.synth import InfeasibleSpec, SyntheticSpec, generate_synthetic

TOL0 = PenaltyConfig(tolerance=0.0)


class TestGenerate:
    def test_all_rows_satisfy_constraints(self):
        ds, _, cs = generate_synthetic(SyntheticSpec(n_rows=2000), seed=7)
        assert check(cs, ds.X, TOL0).all()

    def test_deterministic_for_fixed_seed(self):
        a, _, _ = generate_synthetic(SyntheticSpec(n_rows=500), seed=7)
        b, _, _ = generate_synthetic(SyntheticSpec(n_rows=500), seed=7)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_different_seed_differs(self):
        a, _, _ = generate_synthetic(SyntheticSpec(n_rows=500), seed=7)
        b, _, _ = generate_synthetic(SyntheticSpec(n_rows=500), seed=8)
        assert not np.array_equal(a.X, b.X)

    def test_implication_template_rows_pass(self):
        ds, _, cs = generate_synthetic(
            SyntheticSpec(n_rows=1000, template="implication"), seed=3
        )
        assert len(cs) == 1
        assert check(cs, ds.X, TOL0).all()
        guard = ds.X[:, 1] > 0
        assert np.all(ds.X[guard, 4] > 0)

    def test_sum_template_emits_one_constraint(self):
        ds, _, cs = generate_synthetic(SyntheticSpec(n_rows=200, template="sum3"), seed=1)
        assert len(cs) == 1
        assert np.allclose(ds.X[:, 0], ds.X[:, 1] + ds.X[:, 2])

    def test_schema_flags(self):
        _, schema, _ = generate_synthetic(SyntheticSpec(n_rows=100), seed=0)
        assert not schema.features[3].mutable
        assert schema.features[5].kind == "integer"
        assert schema.critical_class == 1

    def test_extra_features(self):
        ds, schema, cs = generate_synthetic(
            SyntheticSpec(n_rows=300, n_features=9), seed=2
        )
        assert ds.n_features == 9 and schema.n_features == 9
        assert check(cs, ds.X, TOL0).all()

    def test_labels_balanced_and_learnable_structure(self):
        ds, _, _ = generate_synthetic(SyntheticSpec(n_rows=4000), seed=5)
        assert 0.4 < ds.y.mean() < 0.6


class TestSpecValidation:
    def test_unknown_template(self):
        with pytest.raises(InfeasibleSpec, match="unknown template"):
            SyntheticSpec(template="nope")

    def test_too_few_features(self):
        with pytest.raises(InfeasibleSpec,
                           match=r"n_features must be an integer in \[6, 2\*\*63 - 1\], got 3"):
            SyntheticSpec(n_features=3)

    def test_too_few_rows(self):
        for n_rows in (1, 2**63, 10**400):
            with pytest.raises(InfeasibleSpec, match=r"n_rows must be an integer in \[2, "):
                SyntheticSpec(n_rows=n_rows)

    def test_label_noise_finite_and_nonnegative(self):
        for noise in (-1.0, float("nan"), float("inf")):
            with pytest.raises(InfeasibleSpec, match="label_noise must be finite"):
                SyntheticSpec(label_noise=noise)
