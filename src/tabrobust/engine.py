"""Constraint evaluation: penalties, satisfaction checks, repair, gradients.

Every constraint maps to a nonnegative, continuous penalty that is zero
exactly when the constraint holds (strict inequalities via a small
margin). Conjunction adds penalties, disjunction and implication take
the minimum branch, which keeps the whole thing piecewise-smooth and
subgradient-friendly. Each constraint node is compiled once into a
closure that returns its penalty and a reverse-mode backward step (see
`tabrobust.expressions`); every function here runs those closures,
vectorized over row-major matrices, with `PenaltyConfig.strict_margin`
passed at call time.

Real domains repeat a few constraint shapes over many feature groups,
so a set is evaluated through a plan, built on first use and kept on
the set until its constraints change. The plan groups constraints with
equal `shape_key`s and compiles each group once over (rows, G) column
blocks, so G constraints cost one closure call. Results are bit-
identical to running the constraints one by one:

- One walk over the plan's groups writes each group's columns of the
  (rows, constraints) penalty matrix back in constraint order, so
  `check`'s max sees the matrix it always saw. Every total is that
  matrix's pairwise row sum, so `total_penalty` and
  `total_penalty_with_gradient` agree bit for bit.
- Asked for a gradient, the walk runs each group's backward step as
  it goes, and every feature receives its gradient terms in the order
  of the one-by-one loop: the plan admits a constraint to a group only
  if that holds, and leaves it a singleton otherwise.
- `fix` applies its rules in dependency levels: a rule goes one level
  above the last earlier rule that writes a feature it reads or
  writes, or reads its target. Rules of one level commute, so each
  level runs one fused call per rule shape and later rules still see
  earlier fixes. `assignment_fix_rules` derives a set's rules once per
  mutable mask and hands them out with that plan.

Singleton groups run the constraint's own cached closure.

Constraints are evaluated in raw (unscaled) feature units; the default
tolerance of 1e-2 absorbs float noise after unscaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .data import is_number
from .expressions import (
    Constraint,
    ConstraintSet,
    Feature,
    NumExpr,
    Relation,
    _as_matrix,
    compile_columns,
    features_of,
    shape_key,
)


@dataclass(frozen=True)
class PenaltyConfig:
    """tolerance: satisfaction threshold in raw feature units;
    strict_margin: slack turning open comparisons into closed ones."""

    tolerance: float = 1e-2
    strict_margin: float = 1e-6

    def __post_init__(self):
        if not (is_number(self.tolerance) and math.isfinite(self.tolerance)
                and self.tolerance >= 0):
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tolerance!r}")
        if not (is_number(self.strict_margin) and math.isfinite(self.strict_margin)
                and self.strict_margin > 0):
            raise ValueError(f"strict_margin must be finite and positive, got {self.strict_margin!r}")


DEFAULT_PENALTY_CONFIG = PenaltyConfig()


def penalty(
    c: Constraint,
    x: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> Union[float, np.ndarray]:
    """Violation penalty of one constraint; zero iff satisfied.

    Accepts a feature vector (returns a scalar) or an (n, d) matrix
    (returns a length-n array).
    """
    X, single = _as_matrix(x)
    val = c.compiled(X, cfg.strict_margin)[0]
    return float(val[0]) if single else val


def penalty_gradient(
    c: Constraint,
    x: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> np.ndarray:
    """Reverse-mode d(penalty)/dx; a valid subgradient at kinks."""
    X, single = _as_matrix(x)
    _, backward = c.compiled(X, cfg.strict_margin)
    grad = np.zeros_like(X)
    backward(np.ones(X.shape[0]), grad)
    return grad[0] if single else grad


def _fuse(members_leaves: list[list[int]]):
    """(compile, column, tail) for one tree shape used by several
    members, given each member's feature leaves. compile(tree) turns the
    first member's tree into one closure for all members, column(i) is
    what its feature i stands for, and tail is () for a singleton (the
    tree's own closure) and (G,) for a group of G (column blocks)."""
    if len(members_leaves) == 1:
        return (lambda tree: tree.compiled), (lambda i: i), ()
    distinct = [list(dict.fromkeys(leaves)) for leaves in members_leaves]
    columns = {fs[0]: np.array(fs) for fs in zip(*distinct)}
    width = len(members_leaves)
    return (lambda tree: compile_columns(tree, columns, width)), columns.__getitem__, (width,)


@dataclass
class _Plan:
    """How a constraint set is evaluated. `calls` holds (closure,
    positions, tail) per group in the order the gradient needs;
    `fix_rules` caches the last mask's assignment rules."""

    constraints: tuple
    calls: list
    fix_rules: Optional[tuple] = None  # (mask key, (rules, fused calls))


def _build_plan(constraints: tuple) -> _Plan:
    """Group `constraints` by shape; see the module docstring."""
    groups: list[list] = []  # [(position, leaves), ...] per call, in run order
    open_group: dict[tuple, int] = {}  # shape -> the group its next member may join
    last: dict[int, tuple] = {}  # feature -> (group, leaf) of its latest gradient term
    for k, c in enumerate(constraints):
        leaves: list[int] = []
        key = shape_key((c,), leaves)
        g = open_group.get(key)
        # Joining group g moves this constraint's gradient terms to
        # (g, leaf); each must stay after every earlier term on its feature.
        if g is None or any(last.get(f, (-1,)) >= (g, j) for j, f in enumerate(leaves)):
            g = len(groups)
            groups.append([])
            open_group.setdefault(key, g)  # a constraint turned away stays alone
        groups[g].append((k, leaves))
        for j, f in enumerate(leaves):
            last[f] = (g, j)
    calls = []
    for members in groups:
        compile_, _, tail = _fuse([leaves for _, leaves in members])
        positions = [k for k, _ in members]
        run = compile_(constraints[positions[0]])
        calls.append((run, np.array(positions) if tail else positions[0], tail))
    return _Plan(constraints, calls)


def _plan(cs: ConstraintSet) -> _Plan:
    snapshot = tuple(cs.constraints)
    if cs.plan is None or cs.plan.constraints != snapshot:
        cs.plan = _build_plan(snapshot)
    return cs.plan


def _walk(cs: ConstraintSet, X: np.ndarray, cfg: PenaltyConfig, grad=None) -> np.ndarray:
    """The (n_rows, n_constraints) penalty matrix of the set on the
    matrix X; with `grad`, each group's penalty gradient is added into it."""
    P = np.empty((X.shape[0], len(cs)))
    for run, positions, tail in _plan(cs).calls:
        P[:, positions], backward = run(X, cfg.strict_margin)
        if grad is not None:
            backward(np.ones((X.shape[0], *tail)), grad)
    return P


def check(
    cs: ConstraintSet,
    X: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> np.ndarray:
    """Row-wise satisfaction: worst per-constraint penalty <= tolerance."""
    Xm, single = _as_matrix(X)
    ok = _walk(cs, Xm, cfg).max(axis=1, initial=0.0) <= cfg.tolerance  # no constraints: ok
    return bool(ok[0]) if single else ok


def total_penalty(
    cs: ConstraintSet,
    x: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> Union[float, np.ndarray]:
    """Sum of per-constraint penalties (the attacks' aggregate loss), the
    same bits as `total_penalty_with_gradient`'s."""
    X, single = _as_matrix(x)
    total = _walk(cs, X, cfg).sum(axis=1)
    return float(total[0]) if single else total


def total_penalty_with_gradient(
    cs: ConstraintSet,
    x: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> tuple[Union[float, np.ndarray], np.ndarray]:
    """(sum of penalties, sum of penalty gradients) over the set; the sum
    is `total_penalty`'s, bit for bit."""
    X, single = _as_matrix(x)
    grad = np.zeros_like(X)
    total = _walk(cs, X, cfg, grad).sum(axis=1)
    return (float(total[0]), grad[0]) if single else (total, grad)


class FixRuleError(ValueError):
    """Raised when a fix constraint is not in assignment form."""


@dataclass(frozen=True)
class FixRule:
    """Repair rule: when `guard` is violated, assign the fix target.

    `fix` must be Relation(==, Feature(i), expr) with i absent from the
    right-hand side.
    """

    guard: Constraint
    fix: Relation

    def __post_init__(self):
        if not isinstance(self.fix, Relation) or self.fix.op != "==":
            raise FixRuleError("fix constraints must be equalities")
        if not isinstance(self.fix.left, Feature):
            raise FixRuleError("fix constraints must assign a single feature")
        if self.fix.left.index in features_of(self.fix.right):
            raise FixRuleError(
                f"fix target F{self.fix.left.index} appears on the right-hand side"
            )

    @property
    def target(self) -> int:
        return self.fix.left.index

    @property
    def expr(self) -> NumExpr:
        return self.fix.right


def _plan_fix(rules: tuple) -> list:
    """Fused calls (guard, expr, target) that apply `rules` the way the
    one-by-one loop does; see the module docstring."""
    levels: list[dict] = []  # per level: shape -> [(rule, leaves), ...]
    written: dict[int, int] = {}  # feature -> last level writing it
    touched: dict[int, int] = {}  # feature -> last level reading or writing it
    for rule in rules:
        leaves: list[int] = []
        key = shape_key((rule.guard, rule.fix), leaves)
        used = set(leaves)  # the target is the fix's first leaf
        level = 1 + max(touched.get(rule.target, -1), *(written.get(f, -1) for f in used))
        if level == len(levels):
            levels.append({})
        levels[level].setdefault(key, []).append((rule, leaves))
        written[rule.target] = level
        for f in used:
            touched[f] = max(touched.get(f, -1), level)
    calls = []
    for level in levels:
        for members in level.values():
            compile_, column, _ = _fuse([leaves for _, leaves in members])
            rule = members[0][0]
            calls.append((compile_(rule.guard), compile_(rule.expr), column(rule.target)))
    return calls


class FixRules(list):
    """A list of fix rules that keeps the fused calls applying it
    (`calls`), planned again if the list has changed since."""

    def __init__(self, rules=(), planned=None):
        super().__init__(rules)
        self._planned = planned  # (rules as planned, calls)

    def calls(self) -> list:
        snapshot = tuple(self)
        if self._planned is None or self._planned[0] != snapshot:
            self._planned = (snapshot, _plan_fix(snapshot))
        return self._planned[1]


def fix(
    rules: list[FixRule],
    X: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> np.ndarray:
    """Apply repair rules in order; later rules see earlier fixes.

    A row's target feature is reassigned only where the rule's guard is
    violated (penalty > 0, i.e. tolerance 0 for the guard test).
    """
    Xm, single = _as_matrix(X)
    out = Xm.copy()
    calls = rules.calls() if isinstance(rules, FixRules) else _plan_fix(tuple(rules))
    for guard, expr, target in calls:
        violated = guard(out, cfg.strict_margin)[0] > 0
        if np.any(violated):
            out[:, target] = np.where(violated, expr(out)[0], out[:, target])
    return out[0] if single else out


def assignment_fix_rules(cs: ConstraintSet, mutable_mask: np.ndarray) -> FixRules:
    """Derive guard==fix rules from assignment-form equality constraints.

    Skips targets flagged immutable; other constraint shapes are not
    repairable this way and are left to search. The rules of the last
    mask asked for are kept with the set's plan, planned for `fix`.
    """
    plan = _plan(cs)
    mask = np.asarray(mutable_mask, dtype=bool).tobytes()
    if plan.fix_rules is None or plan.fix_rules[0] != mask:
        rules = tuple(
            FixRule(guard=c, fix=c)
            for c in cs
            if isinstance(c, Relation) and c.op == "=="
            and isinstance(c.left, Feature)
            and c.left.index not in features_of(c.right)
            and mutable_mask[c.left.index]
        )
        plan.fix_rules = (mask, (rules, _plan_fix(rules)))
    planned = plan.fix_rules[1]
    return FixRules(planned[0], planned)
