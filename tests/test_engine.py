"""Penalty semantics, checking, repair, and constraint gradients."""

import numpy as np
import pytest

from conftest import (
    finite_difference,
    gradients_close,
    random_constraint,
    sample_away_from_kinks,
)
from tabrobust.data import DatasetSchema
from tabrobust.engine import (
    FixRule,
    FixRuleError,
    PenaltyConfig,
    assignment_fix_rules,
    check,
    fix,
    penalty,
    penalty_gradient,
    total_penalty,
    total_penalty_with_gradient,
)
from tabrobust.expressions import (
    STRICT_MARGIN,
    And,
    Constant,
    ConstraintSet,
    Feature,
    Or,
    Relation,
)
from tabrobust.parser import parse_constraint

SCHEMA = DatasetSchema.generic(5)
CFG = PenaltyConfig()


def c(text, schema=SCHEMA):
    return parse_constraint(text, schema)


class TestPenalty:
    def test_satisfied_equality_is_zero(self):
        assert penalty(c("F0 == F1 + F2"), np.array([3.0, 1.0, 2.0, 0, 0])) == 0.0

    def test_violated_equality_is_absolute_residual(self):
        assert penalty(c("F0 == F1 + F2"), np.array([0.0, 1.0, 2.0, 0, 0])) == 3.0

    def test_vacuous_implication(self):
        imp = c("if F1 > 0 then F4 > 0")
        for f4 in (-10.0, 0.0, 10.0):
            assert penalty(imp, np.array([0, -1.0, 0, 0, f4])) == 0.0

    def test_strict_margin_applies(self):
        assert STRICT_MARGIN == 1e-6
        # F0 < F1 is scored as F0 + STRICT_MARGIN <= F1.
        assert penalty(c("F0 < F1"), np.array([1.0, 1.0, 0, 0, 0])) == STRICT_MARGIN
        assert penalty(c("F0 > F1"), np.array([1.0, 1.0, 0, 0, 0])) == STRICT_MARGIN
        assert penalty(c("F0 < F1"), np.array([1.0, 1.0 + 2 * STRICT_MARGIN, 0, 0, 0])) == 0.0

    def test_le_hinge(self):
        assert penalty(c("F0 <= F1"), np.array([2.0, 0.5, 0, 0, 0])) == 1.5
        assert penalty(c("F0 <= F1"), np.array([0.5, 2.0, 0, 0, 0])) == 0.0

    def test_and_sums_or_takes_min(self):
        a = Relation("<=", Feature(0), Constant(0.0))  # penalty = max(0, F0)
        b = Relation("<=", Feature(1), Constant(0.0))
        x = np.array([3.0, 1.0, 0, 0, 0])
        assert penalty(And((a, b)), x) == 4.0
        assert penalty(Or((a, b)), x) == 1.0

    def test_penalty_nonnegative_and_zero_implies_check(self):
        rng = np.random.default_rng(3)
        cfg = PenaltyConfig(tolerance=0.0)
        for _ in range(100):
            con = random_constraint(rng, 5, depth=2)
            x = rng.uniform(-3, 3, 5)
            p = penalty(con, x, cfg)
            assert np.isnan(p) or p >= 0.0
            if p == 0.0:
                cs = ConstraintSet([con])
                assert check(cs, x, cfg)


class TestCheck:
    def test_tolerance_zero_rejects_violation(self):
        cs = ConstraintSet([c("F0 == F1 + F2")])
        cfg = PenaltyConfig(tolerance=0.0)
        assert not check(cs, np.array([0.0, 1.0, 2.0, 0, 0]), cfg)

    def test_generous_tolerance_accepts(self):
        cs = ConstraintSet([c("F0 == F1 + F2")])
        cfg = PenaltyConfig(tolerance=5.0)
        assert check(cs, np.array([0.0, 1.0, 2.0, 0, 0]), cfg)

    def test_worst_constraint_decides(self):
        cs = ConstraintSet([c("F0 <= 1"), c("F1 <= 1")])
        cfg = PenaltyConfig(tolerance=0.5)
        X = np.array([[1.2, 0.0, 0, 0, 0], [1.2, 1.9, 0, 0, 0]])
        assert check(cs, X, cfg).tolist() == [True, False]

    def test_empty_set_accepts_everything(self):
        assert check(ConstraintSet(), np.zeros((4, 5))).all()

    @pytest.mark.parametrize("field", ["tolerance"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "0.1", True, None,
                                       pytest.param(10**400, id="10**400")])
    def test_non_finite_settings_rejected(self, field, value):
        # A NaN tolerance would make `check` reject every row.
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PenaltyConfig(**{field: value})


class TestFix:
    def test_reference_rows(self):
        X = np.arange(9, dtype=float).reshape(3, 3)
        rule_c = c("F0 == F1 + F2", DatasetSchema.generic(3))
        out = fix([FixRule(rule_c, rule_c)], X)
        assert np.array_equal(out, np.array([[3, 1, 2], [9, 4, 5], [15, 7, 8]]))

    def test_valid_row_untouched(self):
        rule_c = c("F0 == F1 + F2", DatasetSchema.generic(3))
        row = np.array([3.0, 1.0, 2.0])
        assert np.array_equal(fix([FixRule(rule_c, rule_c)], row), row)

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        rule_c = c("F0 == F1 + F2", DatasetSchema.generic(3))
        rules = [FixRule(rule_c, rule_c)]
        X = rng.uniform(-5, 5, (20, 3))
        once = fix(rules, X)
        assert np.array_equal(fix(rules, once), once)

    def test_guards_hold_after_fix(self):
        rng = np.random.default_rng(6)
        schema3 = DatasetSchema.generic(3)
        rule_c = c("F0 == F1 + F2", schema3)
        rules = [FixRule(rule_c, rule_c)]
        X = rng.uniform(-5, 5, (50, 3))
        fixed = fix(rules, X)
        assert check(ConstraintSet([rule_c]), fixed, PenaltyConfig(tolerance=0.0)).all()

    def test_disjoint_rules_commute(self):
        schema4 = DatasetSchema.generic(4)
        r1c = c("F0 == F2 + 1", schema4)
        r2c = c("F1 == F3 * 2", schema4)
        r1, r2 = FixRule(r1c, r1c), FixRule(r2c, r2c)
        X = np.random.default_rng(8).uniform(-4, 4, (30, 4))
        assert np.array_equal(fix([r1, r2], X), fix([r2, r1], X))

    def test_later_rules_see_earlier_fixes(self):
        schema3 = DatasetSchema.generic(3)
        r1c = c("F1 == F2 + 1", schema3)
        r2c = c("F0 == F1 * 2", schema3)
        out = fix(
            [FixRule(r1c, r1c), FixRule(r2c, r2c)], np.array([0.0, 0.0, 3.0])
        )
        assert np.array_equal(out, [8.0, 4.0, 3.0])

    def test_non_assignment_fix_rejected(self):
        bad = c("F0 + F1 == F2", DatasetSchema.generic(3))
        with pytest.raises(FixRuleError):
            FixRule(bad, bad)

    def test_self_referential_fix_rejected(self):
        bad = c("F0 == F0 + 1", DatasetSchema.generic(3))
        with pytest.raises(FixRuleError):
            FixRule(bad, bad)

    def test_guard_must_be_the_fix_constraint(self):
        schema3 = DatasetSchema.generic(3)
        rule_c = c("F0 == F1 + F2", schema3)
        for guard in (c("F1 <= F2", schema3), c("F0 == F1 - F2", schema3)):
            with pytest.raises(FixRuleError, match="guard must be its fix constraint"):
                FixRule(guard, rule_c)
        # An equal tree built apart is the same rule.
        assert FixRule(c("F0 == F1 + F2", schema3), rule_c).guard == rule_c

    def test_assignment_rules_derived_from_set(self):
        cs = ConstraintSet([c("F0 == F1 + F2"), c("F1 <= F2")])
        rules = assignment_fix_rules(cs, np.ones(5, dtype=bool))
        assert len(rules) == 1 and rules[0].target == 0
        mutable = np.array([False, True, True, True, True])
        assert len(assignment_fix_rules(cs, mutable)) == 0


class TestPenaltyGradient:
    def test_violated_equality_gradient(self):
        g = penalty_gradient(c("F0 == F1 + F2"), np.array([0.0, 1.0, 2.0, 0, 0]))
        assert np.allclose(g, [-1.0, 1.0, 1.0, 0.0, 0.0])

    def test_satisfied_inequality_flat(self):
        g = penalty_gradient(c("F1 <= F2"), np.array([0, 1.0, 5.0, 0, 0]))
        assert np.allclose(g, 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 120:
            con = random_constraint(rng, 5, depth=2)
            x = sample_away_from_kinks(rng, con, 5, CFG)
            if x is None:
                continue
            p = penalty(con, x, CFG)
            if not np.isfinite(p) or p > 1e6:
                continue
            g = penalty_gradient(con, x, CFG)
            fd = finite_difference(lambda v: penalty(con, v, CFG), x)
            assert gradients_close(g, fd), f"{con} at {x}"
            checked += 1


class TestTotalPenalty:
    def test_empty_set(self):
        value, grad = total_penalty_with_gradient(ConstraintSet(), np.zeros(5))
        assert value == 0.0 and np.allclose(grad, 0.0)

    def test_singleton_equals_penalty(self):
        con = c("F0 == F1 + F2")
        x = np.array([0.0, 1.0, 2.0, 0, 0])
        assert total_penalty(ConstraintSet([con]), x) == penalty(con, x)

    def test_two_violations_sum(self):
        cs = ConstraintSet([c("F0 <= 0"), c("F1 <= 0")])
        x = np.array([3.0, 1.0, 0, 0, 0])
        assert total_penalty(cs, x) == 4.0

    def test_gradient_sums(self):
        cs = ConstraintSet([c("F0 == F1 + F2"), c("F0 <= 0")])
        x = np.array([3.0, 1.0, 1.0, 0, 0])
        _, grad = total_penalty_with_gradient(cs, x)
        expected = penalty_gradient(cs.constraints[0], x) + penalty_gradient(
            cs.constraints[1], x
        )
        assert np.allclose(grad, expected)
