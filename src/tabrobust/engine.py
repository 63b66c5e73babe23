"""Constraint evaluation: penalties, satisfaction checks, repair, gradients.

Every constraint maps to a nonnegative, continuous penalty that is zero
exactly when the constraint holds (strict inequalities via the constant
margin `expressions.STRICT_MARGIN`). Conjunction adds penalties,
disjunction and implication take the minimum branch, which keeps the
whole thing piecewise-smooth and subgradient-friendly. Constraints
compile into closures that map a row-major matrix to penalties and a
reverse-mode backward step (see `tabrobust.expressions`); every
function here runs those closures. One constraint alone (`penalty`,
`penalty_gradient`) is the set of that constraint.

Real domains repeat a few constraint shapes over many feature groups,
so a set is evaluated through a plan, built on first use and kept on
the set until its constraints change. The plan groups constraints with
equal `shape_key`s and compiles each group once over (rows, G) column
blocks, G >= 1, so G constraints cost one closure call. A group's
columns, and its positions in the penalty matrix, are a slice when
they step evenly upward (a group of one always does) and an int array
otherwise. Results are bit-identical to running the constraints one by
one:

- One walk over the plan's groups writes each group's columns of the
  (rows, constraints) penalty matrix back in constraint order, so
  `check`'s max sees the matrix it always saw. Every total is that
  matrix's pairwise row sum, so `total_penalty` and
  `total_penalty_with_gradient` agree bit for bit.
- Asked for a gradient, the walk runs each group's backward step as
  it goes, and every feature receives its gradient terms in the order
  of the one-by-one loop: the plan admits a constraint to a group only
  if that holds, and starts a new group for it otherwise.
- A fix rule is the equality `target == expr` it repairs, and reads
  that equality's features. `fix` evaluates each expression once and
  reassigns the target where |target - expr| > 0, applying the rules in
  dependency levels: a rule goes one level above the last earlier rule
  that writes a feature it reads or writes, or reads its target. Rules
  of one level commute, so each level runs one fused call per rule
  shape and later rules still see earlier fixes. A `FixRules` tuple is
  planned once, when it is built; `assignment_fix_rules` keeps one per
  set and mutable mask.

Constraints are evaluated in raw (unscaled) feature units; the default
tolerance of 1e-2 absorbs float noise after unscaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .data import is_finite_number
from .expressions import (
    Constraint,
    ConstraintSet,
    Feature,
    NumExpr,
    Relation,
    _as_matrix,
    column_block,
    compile_columns,
    features_of,
    shape_key,
)


@dataclass(frozen=True)
class PenaltyConfig:
    """tolerance: satisfaction threshold in raw feature units. Only code
    that compares a penalty against it reads it: `check`, CAPGD's
    penalty-weight doubling, MOEVA's success flag, and the report's
    config echo. Penalties themselves take no config (strict comparisons
    close with the constant `expressions.STRICT_MARGIN`)."""

    tolerance: float = 1e-2

    def __post_init__(self):
        if not (is_finite_number(self.tolerance) and self.tolerance >= 0):
            raise ValueError(f"tolerance must be finite and nonnegative, got {self.tolerance!r}")


DEFAULT_PENALTY_CONFIG = PenaltyConfig()


def penalty(
    c: Constraint,
    x: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> Union[float, np.ndarray]:
    """Violation penalty of one constraint; zero iff satisfied.

    Accepts a feature vector (returns a scalar) or an (n, d) matrix
    (returns a length-n array). `cfg` is accepted and not read: no
    penalty depends on the tolerance.
    """
    return total_penalty(ConstraintSet([c]), x)


def penalty_gradient(
    c: Constraint,
    x: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> np.ndarray:
    """Reverse-mode d(penalty)/dx; a valid subgradient at kinks. `cfg`
    is accepted and not read, as in `penalty`."""
    return total_penalty_with_gradient(ConstraintSet([c]), x)[1]


def _fuse(members_leaves: list[list[int]]) -> dict:
    """Columns for one tree shape used by several members, given each
    member's feature leaves: the first member's feature i reads the
    `column_block` of that feature's counterpart in every member."""
    distinct = [list(dict.fromkeys(leaves)) for leaves in members_leaves]
    return {fs[0]: column_block(fs) for fs in zip(*distinct)}


@dataclass
class _Plan:
    """How a constraint set is evaluated. `calls` holds (closure,
    positions, width) per group in the order the gradient needs;
    `fix_rules` caches the last mask's assignment rules."""

    constraints: tuple
    calls: list
    fix_rules: Optional[tuple] = None  # (mask key, FixRules)


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
        positions = [k for k, _ in members]
        columns = _fuse([leaves for _, leaves in members])
        run = compile_columns(constraints[positions[0]], columns, len(members))
        calls.append((run, column_block(positions), len(members)))
    return _Plan(constraints, calls)


def _plan(cs: ConstraintSet) -> _Plan:
    snapshot = tuple(cs.constraints)
    if cs.plan is None or cs.plan.constraints != snapshot:
        cs.plan = _build_plan(snapshot)
    return cs.plan


def _walk(cs: ConstraintSet, X: np.ndarray, grad=None) -> np.ndarray:
    """The (n_rows, n_constraints) penalty matrix of the set on the
    matrix X; with `grad`, each group's penalty gradient is added into it."""
    P = np.empty((X.shape[0], len(cs)))
    for run, positions, width in _plan(cs).calls:
        P[:, positions], backward = run(X)
        if grad is not None:
            backward(np.ones((X.shape[0], width)), grad)
    return P


def check(
    cs: ConstraintSet,
    X: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> np.ndarray:
    """Row-wise satisfaction: worst per-constraint penalty <= tolerance."""
    Xm, single = _as_matrix(X)
    ok = _walk(cs, Xm).max(axis=1, initial=0.0) <= cfg.tolerance  # no constraints: ok
    return bool(ok[0]) if single else ok


def total_penalty(cs: ConstraintSet, x: np.ndarray) -> Union[float, np.ndarray]:
    """Sum of per-constraint penalties (the attacks' aggregate loss), the
    same bits as `total_penalty_with_gradient`'s."""
    X, single = _as_matrix(x)
    total = _walk(cs, X).sum(axis=1)
    return float(total[0]) if single else total


def total_penalty_with_gradient(
    cs: ConstraintSet, x: np.ndarray
) -> tuple[Union[float, np.ndarray], np.ndarray]:
    """(sum of penalties, sum of penalty gradients) over the set; the sum
    is `total_penalty`'s, bit for bit."""
    X, single = _as_matrix(x)
    grad = np.zeros_like(X)
    total = _walk(cs, X, grad).sum(axis=1)
    return (float(total[0]), grad[0]) if single else (total, grad)


class FixRuleError(ValueError):
    """Raised when a fix constraint is not in assignment form."""


def _is_assignment(c: Constraint) -> bool:
    """Whether `c` is Feature(i) == expr with i absent from expr."""
    return (isinstance(c, Relation) and c.op == "==" and isinstance(c.left, Feature)
            and c.left.index not in features_of(c.right))


@dataclass(frozen=True)
class FixRule:
    """Repair rule: where the equality `fix`, Feature(i) == expr with i
    absent from expr, is violated, assign expr to feature i. A rule is
    guarded by the equality it repairs, so `guard` must equal `fix`.
    """

    guard: Constraint
    fix: Relation

    def __post_init__(self):
        if not _is_assignment(self.fix):
            raise FixRuleError("fix constraints must be Feature(i) == expr, i absent from expr")
        if self.guard != self.fix:
            raise FixRuleError("a fix rule's guard must be its fix constraint")

    @property
    def target(self) -> int:
        return self.fix.left.index

    @property
    def expr(self) -> NumExpr:
        return self.fix.right


def _plan_fix(rules: tuple) -> list:
    """Fused calls (expr, target) that apply `rules` the way the
    one-by-one loop does; see the module docstring."""
    levels: list[dict] = []  # per level: shape -> [(rule, leaves), ...]
    written: dict[int, int] = {}  # feature -> last level writing it
    touched: dict[int, int] = {}  # feature -> last level reading or writing it
    for rule in rules:
        leaves: list[int] = []
        key = shape_key((rule.fix,), leaves)
        used = set(leaves)  # the target is the first leaf
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
            columns = _fuse([leaves for _, leaves in members])
            rule, width = members[0][0], len(members)
            calls.append((compile_columns(rule.expr, columns, width), columns[rule.target]))
    return calls


class FixRules(tuple):
    """An immutable sequence of fix rules with the fused calls that apply
    it (`calls`), planned once, when it is built."""

    def __new__(cls, rules):
        self = super().__new__(cls, rules)
        self.calls = _plan_fix(self)
        return self


def fix(rules: list[FixRule], X: np.ndarray) -> np.ndarray:
    """Apply repair rules in order; later rules see earlier fixes.

    A row's target feature is reassigned only where the rule's equality
    is violated: |target - expr| > 0, its penalty at tolerance 0. A NaN
    residual (NaN on either side, or inf - inf) leaves the row as it is.
    """
    Xm, single = _as_matrix(X)
    out = Xm.copy()
    calls = rules.calls if isinstance(rules, FixRules) else _plan_fix(tuple(rules))
    for expr, target in calls:
        value = expr(out)[0]
        current = out[:, target]
        violated = np.abs(current - value) > 0
        if np.any(violated):
            out[:, target] = np.where(violated, value, current)
    return out[0] if single else out


def assignment_fix_rules(cs: ConstraintSet, mutable_mask: np.ndarray) -> FixRules:
    """The fix rules of the set's assignment-form equalities.

    Skips targets flagged immutable; other constraint shapes are not
    repairable this way and are left to search. The rules of the last
    mask asked for are kept with the set's plan and handed out again.
    """
    plan = _plan(cs)
    mask = np.asarray(mutable_mask, dtype=bool).tobytes()
    if plan.fix_rules is None or plan.fix_rules[0] != mask:
        rules = FixRules(
            FixRule(c, c) for c in cs
            if _is_assignment(c) and mutable_mask[c.left.index]
        )
        plan.fix_rules = (mask, rules)
    return plan.fix_rules[1]
