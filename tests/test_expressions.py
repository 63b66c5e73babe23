"""Expression evaluation and reverse-mode differentiation."""

import numpy as np
import pytest

from conftest import (
    finite_difference,
    gradients_close,
    random_expr,
    sample_away_from_kinks,
)
from tabrobust.engine import PenaltyConfig
from tabrobust.expressions import (
    Abs,
    Add,
    Constant,
    Feature,
    Log,
    Max,
    Min,
    Mul,
    Pow,
    SafeDiv,
    Sub,
    eval_with_gradient,
    evaluate_expr,
    features_of,
)


class TestEvaluate:
    def test_add_of_features(self):
        assert evaluate_expr(Add(Feature(1), Feature(2)), np.array([0.0, 1.0, 2.0])) == 3.0

    def test_constant_ignores_input(self):
        assert evaluate_expr(Constant(7.0), np.array([5.0, 5.0])) == 7.0

    def test_min_picks_smaller(self):
        assert evaluate_expr(Min((Feature(0), Feature(1))), np.array([5.0, 3.0])) == 3.0

    def test_matrix_evaluation_matches_rowwise(self):
        rng = np.random.default_rng(0)
        expr = random_expr(rng, 4, depth=3)
        X = rng.uniform(-2, 2, (10, 4))
        batched = evaluate_expr(expr, X)
        rows = np.array([evaluate_expr(expr, x) for x in X])
        assert np.allclose(batched, rows, rtol=0, atol=0)

    def test_safediv_guards_zero_denominator(self):
        expr = SafeDiv(Constant(1.0), Feature(0))
        val = evaluate_expr(expr, np.array([0.0]))
        assert np.isfinite(val) and val == 1e12

    def test_safediv_preserves_denominator_sign(self):
        expr = SafeDiv(Constant(1.0), Feature(0))
        assert evaluate_expr(expr, np.array([-1e-15])) == -1e12

    def test_log_clamps_argument(self):
        val = evaluate_expr(Log(Feature(0)), np.array([-4.0]))
        assert val == np.log(1e-12)


class TestFeaturesOf:
    def test_sum_relation_features(self):
        expr = Add(Feature(1), Feature(2))
        assert features_of(expr) == {1, 2}

    def test_constant_tree_has_none(self):
        assert features_of(Mul(Constant(3.0), Constant(4.0))) == set()

    def test_deep_tree(self):
        expr = Max((Sub(Feature(0), Feature(3)), Log(Feature(5))))
        assert features_of(expr) == {0, 3, 5}

    def test_perturbing_referenced_feature_changes_value(self):
        # Spot check: every reported feature actually influences the
        # value at some input (smooth ASTs without zero-multipliers).
        rng = np.random.default_rng(42)
        expr = Add(Mul(Feature(0), Feature(2)), Pow(Feature(1), Constant(2.0)))
        for idx in features_of(expr):
            moved = False
            for _ in range(10):
                x = rng.uniform(0.5, 2.0, 3)
                x2 = x.copy()
                x2[idx] += 0.25
                if evaluate_expr(expr, x) != evaluate_expr(expr, x2):
                    moved = True
                    break
            assert moved, f"feature {idx} never changed the value"


class TestGradient:
    def test_linear_gradient(self):
        expr = Add(Mul(Constant(2.0), Feature(0)), Feature(1))
        _, g = eval_with_gradient(expr, np.array([1.0, 1.0]))
        assert np.allclose(g, [2.0, 1.0])

    def test_product_rule(self):
        expr = Mul(Feature(0), Feature(1))
        _, g = eval_with_gradient(expr, np.array([3.0, 5.0]))
        assert np.allclose(g, [5.0, 3.0])

    def test_shared_subtree_accumulates(self):
        shared = Feature(0)
        expr = Add(Mul(shared, shared), shared)  # x^2 + x
        _, g = eval_with_gradient(expr, np.array([2.0]))
        assert np.allclose(g, [5.0])

    def test_abs_subgradient_zero_at_kink(self):
        _, g = eval_with_gradient(Abs(Feature(0)), np.array([0.0]))
        assert g[0] == 0.0

    def test_min_tie_breaks_to_first_argument(self):
        expr = Min((Feature(0), Feature(1)))
        _, g = eval_with_gradient(expr, np.array([2.0, 2.0]))
        assert np.allclose(g, [1.0, 0.0])

    def test_max_tie_breaks_to_first_argument(self):
        expr = Max((Feature(0), Feature(1)))
        _, g = eval_with_gradient(expr, np.array([2.0, 2.0]))
        assert np.allclose(g, [1.0, 0.0])

    def test_matches_finite_differences_on_random_trees(self):
        rng = np.random.default_rng(7)
        cfg = PenaltyConfig()
        checked = 0
        while checked < 60:
            expr = random_expr(rng, 5, depth=3)
            x = sample_away_from_kinks(rng, expr, 5, cfg)
            if x is None:
                continue
            value, g = eval_with_gradient(expr, x)
            if not np.isfinite(value) or abs(value) > 1e6:
                continue
            fd = finite_difference(lambda v: evaluate_expr(expr, v), x)
            assert gradients_close(g, fd), f"mismatch for {expr} at {x}"
            checked += 1
