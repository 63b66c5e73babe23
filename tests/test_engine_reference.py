"""The compiled engine against the tree-walking interpreters it replaced
(`reference_engine`): every entry point must return bit-identical
arrays, NaNs included, on random trees, on inputs placed exactly on
each kink, and on sets whose repeated constraint shapes the engine
fuses into column-block groups (the bench's `wide` set, replicated
random trees and the grouping hazards one by one)."""

import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_engine as ref
from conftest import random_constraint, random_expr
from tabrobust import engine
from tabrobust.data import DatasetSchema
from tabrobust.engine import FixRule, PenaltyConfig
from tabrobust.expressions import (
    And,
    Constant,
    ConstraintSet,
    Feature,
    Or,
    Relation,
    compile_columns,
    eval_with_gradient,
    evaluate_expr,
    features_of,
    shape_key,
)
from tabrobust.parser import parse_constraint
from tabrobust.synth import SyntheticSpec, generate_synthetic

BENCH = Path(__file__).resolve().parent.parent / "bench"

N_FEATURES = 5
SCHEMA = DatasetSchema.generic(N_FEATURES)
CONFIGS = (PenaltyConfig(), PenaltyConfig(tolerance=0.0))


def c(text):
    return parse_constraint(text, SCHEMA)


def rule(text):
    """The fix rule of the assignment `text`."""
    return FixRule(c(text), c(text))


def assert_engines_agree(cs, rules, X):
    for x in (X, X[0]):
        for cfg in CONFIGS:
            with np.errstate(all="ignore"):
                pairs = [
                    (ref.penalty_matrix(cs, x, cfg), engine._walk(cs, np.atleast_2d(x))),
                    (ref.total_penalty(cs, x, cfg), engine.total_penalty(cs, x)),
                    *zip(
                        ref.total_penalty_with_gradient(cs, x, cfg),
                        engine.total_penalty_with_gradient(cs, x),
                    ),
                    (ref.check(cs, x, cfg), engine.check(cs, x, cfg)),
                    (ref.fix(rules, x, cfg), engine.fix(rules, x)),
                ]
                # One constraint alone: its column of the matrix, and the
                # gradient of the set of it.
                columns = ref.penalty_matrix(cs, x, cfg)
                for k, con in enumerate(cs):
                    alone = ConstraintSet([con])
                    pairs += [
                        (columns[:, k] if x.ndim == 2 else columns[0, k],
                         engine.penalty(con, x, cfg)),
                        (ref.total_penalty_with_gradient(alone, x, cfg)[1],
                         engine.penalty_gradient(con, x, cfg)),
                    ]
            for i, (old, new) in enumerate(pairs):
                assert np.array_equal(old, new, equal_nan=True), (i, cs.constraints, x)


def random_rule(rng):
    target = int(rng.integers(0, N_FEATURES))
    expr = random_expr(rng, N_FEATURES, depth=2)
    while target in features_of(expr):
        expr = random_expr(rng, N_FEATURES, depth=2)
    equality = Relation("==", Feature(target), expr)
    return FixRule(equality, equality)


def test_random_trees_match_reference():
    rng = np.random.default_rng(23)
    trees = [random_constraint(rng, N_FEATURES, depth=2) for _ in range(300)]
    for start in range(0, len(trees), 3):
        cs = ConstraintSet(trees[start:start + 3])
        rules = [random_rule(rng) for _ in cs]
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
        with np.errstate(all="ignore"):
            old, new = ref.eval_with_gradient(expr, X[3]), eval_with_gradient(expr, X[3])
            assert np.array_equal(old[0], evaluate_expr(expr, X[3]), equal_nan=True)
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
    [0.0, 0.5, 0.5, 0.5, 0.0],
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
    rules = [rule(t) for t in (
        "F2 == F0 / F1", "F3 == log(F0) + F1", "F2 == F3", "F4 == min(F0, F1) * F2")]
    X = np.array(KINK_ROWS)
    assert_engines_agree(cs, rules, X)
    for con in cs:
        assert_engines_agree(ConstraintSet([con]), rules, X)


def test_fix_non_finite_rows_match_reference():
    # Every row of values below for F0..F4: targets and expressions at
    # NaN, +-inf, -0.0 and +0.0, and zero denominators. A NaN residual
    # (NaN on either side, inf - inf) leaves the target as it is.
    values = [np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5]
    X = np.array(list(itertools.product(values, repeat=N_FEATURES)))
    texts = ("F2 == F0 / F1", "F3 == F0 - F1", "F4 == F0 * F1", "F1 == F3 + F4",
             "F0 == 0 - F2")
    rules = [rule(t) for t in texts]
    assert_engines_agree(ConstraintSet([r.fix for r in rules]), rules, X)
    with np.errstate(all="ignore"):
        for x in X[::97]:
            assert np.array_equal(engine.fix(rules, x), ref.fix(rules, x), equal_nan=True)
        kept = engine.fix([rule("F3 == F0 - F1")], np.array([[np.inf, 0.0, 0.0, np.inf, 0.0],
                                                             [np.inf, np.inf, 0.0, 1.0, 0.0],
                                                             [1.0, -0.0, 0.0, 1.0, 0.0]]))
    assert np.array_equal(kept[:, 3], [np.inf, 1.0, 1.0])


def block_width(block):
    """Columns in a `column_block`: a slice or an int array."""
    return len(range(block.stop)[block]) if isinstance(block, slice) else len(block)


def plan_widths(cs):
    """Members per call of the set's plan, in run order."""
    return [width for _, _, width in engine._plan(cs).calls]


def fix_widths(rules):
    return [block_width(target) for _, target in engine.FixRules(rules).calls]


@pytest.fixture(scope="module")
def wide():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        from wide import generate_wide

        dataset, schema, cs = generate_wide(300, seed=5)
    return dataset, schema, cs


def off_bounds(wide):
    """The `wide` rows, every odd one pushed off the bounds (negative
    `1 + rate` bases under a non-integer `^` give NaN, zero incomes hit
    the division clamp) and every even one scaled by U(0.9, 1.1), which
    leaves it inside the domain but violating some constraints."""
    dataset, schema, _ = wide
    rng = np.random.default_rng(11)
    X = dataset.X.copy()
    off = X[1::2]
    off *= rng.uniform(-1.5, 2.5, off.shape)
    off += rng.normal(0.0, 2.0, off.shape)
    off[:5, schema.resolve("inc_0")] = 0.0
    X[1::2] = off
    X[::2] *= rng.uniform(0.9, 1.1, X[::2].shape)
    return X


def test_wide_set_matches_reference(wide):
    _, schema, cs = wide
    X = off_bounds(wide)
    with np.errstate(all="ignore"):
        assert np.isnan(ref.total_penalty(cs, X)).any()
    every = np.ones(schema.n_features, dtype=bool)
    for rules in (engine.assignment_fix_rules(cs, schema.mutable),
                  engine.assignment_fix_rules(cs, every)):
        # 16 rows: as many as each group has members.
        for n in (300, 16, 2):
            assert_engines_agree(cs, rules, X[:n])
    # A single-row batch and every row alone on the way to cutmix's calls.
    for x in X[:8]:
        assert_engines_agree(cs, engine.assignment_fix_rules(cs, every), x[None, :])


def test_wide_totals_agree(wide):
    # Both totals are the pairwise row sum of one penalty matrix; a sum
    # in constraint order differs from it in the last bits.
    _, _, cs = wide
    X = off_bounds(wide)
    for n in (300, 16, 2, 1):
        with np.errstate(all="ignore"):
            total = engine.total_penalty(cs, X[:n])
            total_with_gradient, _ = engine.total_penalty_with_gradient(cs, X[:n])
        assert np.array_equal(total, total_with_gradient, equal_nan=True), n


def group_columns(cs):
    """The column blocks each group of the set's plan reads."""
    blocks = []
    for _, positions, _ in engine._plan(cs).calls:
        members = [cs.constraints[k] for k in np.arange(len(cs))[positions]]
        leaves = [[] for _ in members]
        for con, into in zip(members, leaves):
            shape_key((con,), into)
        blocks.extend(engine._fuse(leaves).values())
    return blocks


def test_plan_structure(wide):
    _, schema, cs = wide
    assert plan_widths(cs) == [16] * 8
    # Block-major groups read slices, in the matrix and in X.
    assert [positions for _, positions, _ in cs.plan.calls] == [
        slice(g, g + 121, 8) for g in range(8)]
    assert all(isinstance(b, slice) for b in group_columns(cs))
    # 48 fix rules, one level: one fused call per rule shape.
    rules = engine.assignment_fix_rules(cs, schema.mutable)
    assert len(rules) == 48
    targets = [target for _, target in rules.calls]
    assert [block_width(t) for t in targets] == [16, 16, 16]
    assert all(isinstance(t, slice) for t in targets)

    _, _, bench_cs = generate_synthetic(SyntheticSpec(n_rows=50), seed=0)
    assert plan_widths(bench_cs) == [1, 1]
    assert [positions for _, positions, _ in bench_cs.plan.calls] == [
        slice(0, 1, 1), slice(1, 2, 1)]
    assert all(isinstance(b, slice) for b in group_columns(bench_cs))

    grown = ConstraintSet(list(cs.constraints))
    assert plan_widths(grown) == [16] * 8
    first = engine._plan(grown)
    grown.add(grown.constraints[0])  # same shape and columns as the first
    assert engine._plan(grown) is not first
    assert plan_widths(grown) == [16] * 8 + [1]
    assert grown.plan.calls[-1][1] == slice(128, 129, 1)

    # Shuffled, the groups' positions and columns no longer step evenly.
    order = np.random.default_rng(6).permutation(len(cs))
    shuffled = ConstraintSet([cs.constraints[k] for k in order])
    assert max(plan_widths(shuffled)) > 1
    for _, positions, width in engine._plan(shuffled).calls:
        assert isinstance(positions, np.ndarray if width > 1 else slice)
    assert any(isinstance(b, np.ndarray) for b in group_columns(shuffled))
    rules = engine.assignment_fix_rules(shuffled, schema.mutable)
    assert any(isinstance(t, np.ndarray) for _, t in rules.calls)
    assert_engines_agree(shuffled, rules, off_bounds(wide)[:16])


def test_fix_rules_follow_the_set(wide):
    dataset, schema, cs = wide
    cs = ConstraintSet(list(cs.constraints))
    mask = schema.mutable
    first = engine.assignment_fix_rules(cs, mask)
    assert engine.assignment_fix_rules(cs, mask) is first  # one per set and mask
    assert len(engine.assignment_fix_rules(cs, np.zeros_like(mask))) == 0
    extra = parse_constraint("a_0 == c_0 * 2", schema)
    cs.add(extra)
    grown = engine.assignment_fix_rules(cs, mask)
    assert grown[:-1] == first and grown[-1].fix is extra
    # A plain list is planned on every call.
    x = dataset.X[:4] + 1.0
    assert np.array_equal(engine.fix(list(grown), x), ref.fix(grown, x))


def test_fix_runs_each_expression_once(wide, monkeypatch):
    # Each fused call compiles and runs its rules' expression alone: no
    # separate guard closure evaluates it a second time.
    dataset, schema, cs = wide
    every = np.ones(schema.n_features, dtype=bool)
    cases = [
        (list(engine.assignment_fix_rules(ConstraintSet(list(cs)), every)), dataset.X[:8]),
        # Two levels: the third rule reads the first's target.
        ([rule(t) for t in ("F1 == F0 + 1", "F3 == F2 + 1", "F4 == F1 + 1")],
         np.zeros((4, N_FEATURES))),
    ]
    compiled = []

    def counting(node, columns, width):
        run = compile_columns(node, columns, width)
        record = [node, 0]
        compiled.append(record)

        def counted(X):
            record[1] += 1
            return run(X)

        return counted

    monkeypatch.setattr(engine, "compile_columns", counting)
    for rules, X in cases:
        compiled.clear()
        planned = engine.FixRules(rules)
        assert len(compiled) == len(planned.calls)
        for n in (1, 2):
            engine.fix(planned, X)
            assert [count for _, count in compiled] == [n] * len(compiled)
        exprs = {shape_key((r.expr,), []) for r in rules}
        assert {shape_key((node,), []) for node, _ in compiled} == exprs


def relabel(node, features, constants=lambda v: v):
    """Copy of a tree with feature i renamed features[i] and every
    constant v replaced by constants(v)."""
    if isinstance(node, Feature):
        return Feature(features[node.index])
    if isinstance(node, Constant):
        return Constant(constants(node.value))
    values = []
    for f in dataclasses.fields(node):
        v = getattr(node, f.name)
        if isinstance(v, tuple):
            v = tuple(relabel(c, features, constants) for c in v)
        elif not isinstance(v, str):
            v = relabel(v, features, constants)
        values.append(v)
    return type(node)(*values)


LOCAL = 4  # features per block in the replicated sets
SHARED = 2  # features any block may use in place of its own


@st.composite
def replicated_sets(draw):
    """Random constraint and fix-rule templates over LOCAL features, each
    instantiated once per block, in block-major or shuffled order."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = draw(st.integers(2, 5))
    share = draw(st.sampled_from([0.0, 0.25]))  # chance a slot uses a shared feature
    vary = draw(st.booleans())  # constants differ between blocks
    shuffled = draw(st.booleans())
    templates = [random_constraint(rng, LOCAL, depth=2) for _ in range(draw(st.integers(1, 4)))]
    rule_templates = []
    for _ in range(draw(st.integers(0, 4))):
        # Targets repeat across templates often, so rules share targets and
        # read each other's targets: chains of dependent repairs.
        target = int(rng.integers(0, LOCAL))
        expr = random_expr(rng, LOCAL, depth=2)
        rule_templates.append(Relation("==", Feature(target), expr))
    n_features = blocks * LOCAL + SHARED
    maps = []
    for b in range(blocks):
        own = np.arange(b * LOCAL, (b + 1) * LOCAL)
        shared = rng.integers(blocks * LOCAL, n_features, LOCAL)
        maps.append(np.where(rng.random(LOCAL) < share, shared, own))
    order = [(b, t) for b in range(blocks) for t in range(len(templates))]
    if shuffled:
        order = [order[i] for i in rng.permutation(len(order))]
    scale = lambda b: (lambda v: v * (1 + b) if vary else v)  # noqa: E731
    cs = ConstraintSet([relabel(templates[t], maps[b], scale(b)) for b, t in order])
    rules = []
    for b in range(blocks):
        for template in rule_templates:
            fix_ = relabel(template, maps[b], scale(b))
            if fix_.left.index not in features_of(fix_.right):
                rules.append(FixRule(fix_, fix_))
    n = draw(st.sampled_from([1, 2, blocks, 7]))
    X = rng.uniform(-3.0, 3.0, (n, n_features))
    if n > 1:
        X[1] = rng.integers(-2, 3, n_features)  # ties between features
    fuses = share == 0.0 and not vary and not shuffled and len(
        {shape_key((t,), []) for t in templates}) == len(templates)
    return cs, rules, X, fuses, len(templates)


@settings(max_examples=120, deadline=None)
@given(replicated_sets())
def test_replicated_random_trees_match_reference(case):
    cs, rules, X, fuses, n_templates = case
    assert_engines_agree(cs, rules, X)
    if fuses:
        # Block-local features in block-major order: one call per template.
        assert len(plan_widths(cs)) == n_templates


def test_group_as_wide_as_the_batch():
    # A group of 3 on 3 rows: a (rows, 3) block written back untransposed,
    # or a (rows,) array against it, has a valid shape, so only the
    # values show the mistake.
    # F0 is read by the first and the third member, at different leaves.
    cs = ConstraintSet([c(f"F{i} + 1.5 <= F{j} * 2") for i, j in ((0, 1), (2, 3), (4, 0))])
    assert plan_widths(cs) == [3]
    rng = np.random.default_rng(2)
    X = rng.uniform(-3.0, 3.0, (3, N_FEATURES))
    rules = [rule(t) for t in ("F1 == F0 - 1", "F3 == F2 - 1", "F4 == F0 - 1")]
    assert fix_widths(rules) == [3]
    assert_engines_agree(cs, rules, X)


def test_hazards_keep_the_reference_order():
    X = np.vstack([np.array(KINK_ROWS), np.random.default_rng(3).uniform(-3, 3, (6, 5))])
    cases = [
        # F0 shared by both members at the same leaf: one block update
        # would drop a term, so the second stays a singleton.
        (["F0 <= F1", "F0 <= F2"], [1, 1]),
        # Same shape, different constants: two shapes.
        (["F0 <= 1", "F1 <= 2"], [1, 1]),
        # A feature used twice in each member.
        (["F0 * F0 <= F1", "F2 * F2 <= F3"], [2]),
        (["F0 * F1 <= F2", "F3 * F3 <= F4"], [1, 1]),
        # Fusing F4's terms would move the third constraint's ahead of
        # the second's, so the third stays a singleton.
        (["F0 <= 2 * F1", "log(F4) >= F3", "F4 <= 2 * F2"], [1, 1, 1]),
        # The same with no shared feature fuses.
        (["F0 <= 2 * F1", "log(F3) >= F3", "F4 <= 2 * F2"], [2, 1]),
    ]
    for texts, widths in cases:
        cs = ConstraintSet([c(t) for t in texts])
        assert plan_widths(cs) == widths, texts
        assert_engines_agree(cs, [], X)


def test_chained_fix_rules_keep_their_order():
    X = np.vstack([np.array(KINK_ROWS), np.random.default_rng(4).uniform(-3, 3, (6, 5))])
    cases = [
        # The third rule reads the first's target: a second level.
        ([rule("F1 == F0 + 1"), rule("F3 == F2 + 1"), rule("F4 == F1 + 1")], [2, 1]),
        # Two rules write F1: the later one must run after.
        ([rule("F1 == F0 + 1"), rule("F3 == F2 + 1"), rule("F1 == F4 + 1")], [2, 1]),
        # The third rule writes what the first reads.
        ([rule("F1 == F0 + 1"), rule("F3 == F2 + 1"), rule("F0 == F4 + 1")], [2, 1]),
        # Independent rules of one shape in one level.
        ([rule("F1 == F0 + 1"), rule("F3 == F2 + 1"), rule("F4 == F2 * F0")], [2, 1]),
    ]
    for rules, widths in cases:
        assert fix_widths(rules) == widths
        assert_engines_agree(ConstraintSet(), rules, X)
