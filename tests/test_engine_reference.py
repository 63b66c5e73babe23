"""The compiled engine against the tree-walking interpreters it replaced
(`reference_engine`): every entry point must return bit-identical
arrays, NaNs included, on random trees and on inputs placed exactly on
each kink."""

import numpy as np
import pytest

import reference_engine as ref
from conftest import random_constraint, random_expr
from tabrobust import engine
from tabrobust.data import DatasetSchema
from tabrobust.engine import FixRule, PenaltyConfig
from tabrobust.expressions import (
    And,
    ConstraintSet,
    Feature,
    Or,
    Relation,
    eval_with_gradient,
    evaluate_expr,
    features_of,
)
from tabrobust.parser import parse_constraint

N_FEATURES = 5
SCHEMA = DatasetSchema.generic(N_FEATURES)
# A margin of 0.5 puts the strict relations' kink at F1 - F0 == 0.5.
CONFIGS = (PenaltyConfig(), PenaltyConfig(tolerance=0.0, strict_margin=0.5))


def c(text):
    return parse_constraint(text, SCHEMA)


def assert_engines_agree(cs, rules, X):
    for x in (X, X[0]):
        for cfg in CONFIGS:
            with np.errstate(all="ignore"):
                pairs = [
                    (ref.penalty_matrix(cs, x, cfg), engine.penalty_matrix(cs, x, cfg)),
                    (ref.total_penalty(cs, x, cfg), engine.total_penalty(cs, x, cfg)),
                    *zip(
                        ref.total_penalty_with_gradient(cs, x, cfg),
                        engine.total_penalty_with_gradient(cs, x, cfg),
                    ),
                    (ref.check(cs, x, cfg), engine.check(cs, x, cfg)),
                    (ref.fix(rules, x, cfg), engine.fix(rules, x, cfg)),
                ]
            for i, (old, new) in enumerate(pairs):
                assert np.array_equal(old, new, equal_nan=True), (i, cs.constraints, x)


def random_rule(rng, guard):
    target = int(rng.integers(0, N_FEATURES))
    expr = random_expr(rng, N_FEATURES, depth=2)
    while target in features_of(expr):
        expr = random_expr(rng, N_FEATURES, depth=2)
    return FixRule(guard, Relation("==", Feature(target), expr))


def test_random_trees_match_reference():
    rng = np.random.default_rng(23)
    trees = [random_constraint(rng, N_FEATURES, depth=2) for _ in range(300)]
    for start in range(0, len(trees), 3):
        cs = ConstraintSet(trees[start:start + 3])
        rules = [random_rule(rng, tree) for tree in cs]
        X = rng.uniform(-3.0, 3.0, (10, N_FEATURES))
        X[0] = 0.0
        X[1] = 1.0
        X[2] = rng.integers(-2, 3, N_FEATURES)  # ties between features
        assert_engines_agree(cs, rules, X)

        expr = random_expr(rng, N_FEATURES, depth=3)
        with np.errstate(all="ignore"):
            old, new = ref.eval_with_gradient(expr, X), eval_with_gradient(expr, X)
            assert np.array_equal(old[0], evaluate_expr(expr, X), equal_nan=True)
        assert np.array_equal(old[0], new[0], equal_nan=True)
        assert np.array_equal(old[1], new[1], equal_nan=True)


KINK_CONSTRAINTS = [
    "F0 == F1", "F0 <= F1", "F0 < F1", "F0 >= F1", "F0 > F1",
    "F0 + F1 <= F2 - F3", "F0 * F1 >= F2",
    "min(F0, F1) <= F2", "max(F0, F1) >= F2", "min(F0, F1, F2) == max(F3, F4)",
    "F0 / F1 <= F2", "F2 / (F0 - F1) >= F3",
    "log(F0) <= F1", "log(F1 - F0) >= F2",
    "abs(F0 - F1) <= F2", "F0 ^ 2 <= F1", "F1 ^ 0.5 >= F2", "F0 ^ F1 <= F2",
    "if F0 > F1 then F2 <= F3", "if F0 <= F1 then F2 == F3 * F4",
    "if F0 < F1 then log(F2) > F3",
]

KINK_ROWS = [
    [0.0, 0.0, 0.0, 0.0, 0.0],  # ties, r == 0, zero denominators, log(0)
    [1.0, 1.0, 1.0, 1.0, 1.0],
    [0.0, 1e-6, 0.0, 0.0, 0.0],  # r == 0 for "<" at the default margin
    [1e-6, 0.0, 0.0, 0.0, 0.0],  # r == 0 for ">" at the default margin
    [0.0, 0.5, 0.5, 0.5, 0.0],  # r == 0 for "<" at margin 0.5
    [0.5, 0.0, 0.0, 0.0, 0.5],
    [-1.0, -1.0, -2.0, 0.0, 0.0],  # log of negatives, negative base
    [1e-13, -1e-13, 1e-12, -0.0, 0.0],  # inside the division and log clamps
    [3.0, 1.0, 2.0, 2.0, 1.0],  # guard true, body at its kink
    [1.0, 3.0, 2.0, 4.0, 0.5],  # guard false
    [2.0, 2.0, 2.0, -1.0, 2.0],  # three-way min tie equal to max
]


def test_kinks_match_reference():
    singles = [c(text) for text in KINK_CONSTRAINTS]
    # Or of two branches with equal penalties; And sums its children.
    tied_or = Or((c("F0 <= F1"), c("F2 <= F3")))
    nested = And((tied_or, c("if F0 >= F1 then F2 < F3"), Or((singles[5], singles[12]))))
    cs = ConstraintSet([*singles, tied_or, nested])
    rules = [
        FixRule(c("F2 == F0 / F1"), c("F2 == F0 / F1")),
        FixRule(c("F3 == log(F0) + F1"), c("F3 == log(F0) + F1")),
        FixRule(c("if F0 > F1 then F2 <= F3"), c("F2 == F3")),
        FixRule(c("F4 == min(F0, F1) * F2"), c("F4 == min(F0, F1) * F2")),
    ]
    X = np.array(KINK_ROWS)
    assert_engines_agree(cs, rules, X)
    for con in cs:
        assert_engines_agree(ConstraintSet([con]), rules, X)


@pytest.mark.parametrize("text", ["if F0 > F1 then F2 <= F3", "min(F0, F1) <= F2"])
def test_nodes_compile_once(text):
    con = c(text)
    first = con.compiled
    engine.total_penalty_with_gradient(ConstraintSet([con]), np.array(KINK_ROWS))
    assert con.compiled is first
