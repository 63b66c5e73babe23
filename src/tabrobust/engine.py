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

Constraints are evaluated in raw (unscaled) feature units; the default
tolerance of 1e-2 absorbs float noise after unscaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .expressions import (
    Constraint,
    ConstraintSet,
    Feature,
    NumExpr,
    Relation,
    _as_matrix,
    features_of,
)


@dataclass(frozen=True)
class PenaltyConfig:
    """tolerance: satisfaction threshold in raw feature units;
    strict_margin: slack turning open comparisons into closed ones."""

    tolerance: float = 1e-2
    strict_margin: float = 1e-6

    def __post_init__(self):
        if self.tolerance < 0:
            raise ValueError("tolerance must be nonnegative")
        if self.strict_margin <= 0:
            raise ValueError("strict_margin must be positive")


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


def penalty_matrix(
    cs: ConstraintSet,
    X: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> np.ndarray:
    """Per-row, per-constraint penalties, shape (n_rows, n_constraints)."""
    X, _ = _as_matrix(X)
    if len(cs) == 0:
        return np.zeros((X.shape[0], 0))
    return np.stack([c.compiled(X, cfg.strict_margin)[0] for c in cs], axis=1)


def check(
    cs: ConstraintSet,
    X: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> np.ndarray:
    """Row-wise satisfaction: worst per-constraint penalty <= tolerance."""
    Xm, single = _as_matrix(X)
    pen = penalty_matrix(cs, Xm, cfg)
    ok = np.ones(Xm.shape[0], dtype=bool) if pen.shape[1] == 0 else (
        pen.max(axis=1) <= cfg.tolerance
    )
    return bool(ok[0]) if single else ok


def total_penalty(
    cs: ConstraintSet,
    x: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> Union[float, np.ndarray]:
    """Sum of per-constraint penalties (the attacks' aggregate loss)."""
    X, single = _as_matrix(x)
    total = penalty_matrix(cs, X, cfg).sum(axis=1)
    return float(total[0]) if single else total


def total_penalty_with_gradient(
    cs: ConstraintSet,
    x: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> tuple[Union[float, np.ndarray], np.ndarray]:
    """(sum of penalties, sum of penalty gradients) over the set."""
    X, single = _as_matrix(x)
    total = np.zeros(X.shape[0])
    grad = np.zeros_like(X)
    for c in cs:
        value, backward = c.compiled(X, cfg.strict_margin)
        total += value
        backward(np.ones(X.shape[0]), grad)
    if single:
        return float(total[0]), grad[0]
    return total, grad


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
    for rule in rules:
        violated = rule.guard.compiled(out, cfg.strict_margin)[0] > 0
        if np.any(violated):
            values = rule.expr.compiled(out)[0]
            out[violated, rule.target] = values[violated]
    return out[0] if single else out


def assignment_fix_rules(
    cs: ConstraintSet, mutable_mask: Union[np.ndarray, None] = None
) -> list[FixRule]:
    """Derive guard==fix rules from assignment-form equality constraints.

    Skips targets flagged immutable; other constraint shapes are not
    repairable this way and are left to search.
    """
    rules = []
    for c in cs:
        if not isinstance(c, Relation) or c.op != "==":
            continue
        if not isinstance(c.left, Feature):
            continue
        if c.left.index in features_of(c.right):
            continue
        if mutable_mask is not None and not mutable_mask[c.left.index]:
            continue
        rules.append(FixRule(guard=c, fix=c))
    return rules
