"""Reference penalty engine: the tree-walking interpreters that
`tabrobust.expressions` and `tabrobust.engine` used before each node was
compiled into a value-and-backward closure. Kept verbatim so the tests
can require the compiled engine to give bit-identical results."""

from __future__ import annotations

import numpy as np

from tabrobust.engine import DEFAULT_PENALTY_CONFIG, PenaltyConfig
from tabrobust.expressions import (
    DIV_EPS,
    LOG_EPS,
    STRICT_MARGIN,
    Abs,
    Add,
    And,
    Constant,
    Constraint,
    ConstraintSet,
    Feature,
    Implies,
    Log,
    Max,
    Min,
    Mul,
    NumExpr,
    Or,
    Pow,
    Relation,
    SafeDiv,
    Sub,
)


def _as_matrix(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise ValueError(f"expected vector or matrix, got ndim={x.ndim}")


def _forward(expr: NumExpr, X: np.ndarray, memo: dict) -> np.ndarray:
    """Forward pass; memoizes per-node values (keyed by identity) so a
    subsequent backward pass can reuse them."""
    key = id(expr)
    if key in memo:
        return memo[key]
    if isinstance(expr, Constant):
        val = np.full(X.shape[0], expr.value, dtype=float)
    elif isinstance(expr, Feature):
        val = X[:, expr.index].astype(float, copy=True)
    elif isinstance(expr, Add):
        val = _forward(expr.left, X, memo) + _forward(expr.right, X, memo)
    elif isinstance(expr, Sub):
        val = _forward(expr.left, X, memo) - _forward(expr.right, X, memo)
    elif isinstance(expr, Mul):
        val = _forward(expr.left, X, memo) * _forward(expr.right, X, memo)
    elif isinstance(expr, SafeDiv):
        num = _forward(expr.left, X, memo)
        den = _clamp_denominator(_forward(expr.right, X, memo))
        val = num / den
    elif isinstance(expr, Pow):
        base = _forward(expr.base, X, memo)
        exp = _forward(expr.exponent, X, memo)
        val = np.power(base, exp)
    elif isinstance(expr, Log):
        val = np.log(np.maximum(_forward(expr.arg, X, memo), LOG_EPS))
    elif isinstance(expr, Abs):
        val = np.abs(_forward(expr.arg, X, memo))
    elif isinstance(expr, Min):
        val = np.min(np.stack([_forward(a, X, memo) for a in expr.args]), axis=0)
    elif isinstance(expr, Max):
        val = np.max(np.stack([_forward(a, X, memo) for a in expr.args]), axis=0)
    else:
        raise TypeError(f"unknown expression node {type(expr).__name__}")
    memo[key] = val
    return val


def _clamp_denominator(den: np.ndarray) -> np.ndarray:
    sign = np.where(den < 0, -1.0, 1.0)
    return sign * np.maximum(np.abs(den), DIV_EPS)


def eval_with_gradient(expr: NumExpr, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and d(value)/dx of an expression, reverse mode.

    Works row-wise on an (n, d) matrix: returns ((n,), (n, d)). At
    non-differentiable points the subgradient convention follows the
    first argument attaining the extremum (min/max) and sign(0) = 0
    for abs.
    """
    X, single = _as_matrix(x)
    memo: dict = {}
    value = _forward(expr, X, memo)
    grad = np.zeros_like(X)
    _backward(expr, X, memo, np.ones(X.shape[0]), grad)
    if single:
        return value[0], grad[0]
    return value, grad


def _backward(
    expr: NumExpr, X: np.ndarray, memo: dict, adj: np.ndarray, grad: np.ndarray
) -> None:
    if isinstance(expr, Constant):
        return
    if isinstance(expr, Feature):
        grad[:, expr.index] += adj
        return
    if isinstance(expr, Add):
        _backward(expr.left, X, memo, adj, grad)
        _backward(expr.right, X, memo, adj, grad)
        return
    if isinstance(expr, Sub):
        _backward(expr.left, X, memo, adj, grad)
        _backward(expr.right, X, memo, -adj, grad)
        return
    if isinstance(expr, Mul):
        lv = memo[id(expr.left)]
        rv = memo[id(expr.right)]
        _backward(expr.left, X, memo, adj * rv, grad)
        _backward(expr.right, X, memo, adj * lv, grad)
        return
    if isinstance(expr, SafeDiv):
        num = memo[id(expr.left)]
        den_raw = memo[id(expr.right)]
        den = _clamp_denominator(den_raw)
        _backward(expr.left, X, memo, adj / den, grad)
        # Inside the clamp the output is constant in the denominator.
        active = (np.abs(den_raw) >= DIV_EPS).astype(float)
        _backward(expr.right, X, memo, -adj * num / (den * den) * active, grad)
        return
    if isinstance(expr, Pow):
        base = memo[id(expr.base)]
        exp = memo[id(expr.exponent)]
        val = memo[id(expr)]
        with np.errstate(divide="ignore", invalid="ignore"):
            dbase = np.where(base != 0.0, exp * val / base, 0.0)
            # d/d_exp needs log(base); undefined for base <= 0.
            dexp = np.where(base > 0.0, val * np.log(np.maximum(base, LOG_EPS)), 0.0)
        _backward(expr.base, X, memo, adj * np.nan_to_num(dbase), grad)
        _backward(expr.exponent, X, memo, adj * dexp, grad)
        return
    if isinstance(expr, Log):
        arg = memo[id(expr.arg)]
        active = (arg >= LOG_EPS).astype(float)
        _backward(expr.arg, X, memo, adj * active / np.maximum(arg, LOG_EPS), grad)
        return
    if isinstance(expr, Abs):
        arg = memo[id(expr.arg)]
        _backward(expr.arg, X, memo, adj * np.sign(arg), grad)
        return
    if isinstance(expr, (Min, Max)):
        stacked = np.stack([memo[id(a)] for a in expr.args])
        # argmin/argmax pick the first index on ties.
        sel = np.argmin(stacked, axis=0) if isinstance(expr, Min) else np.argmax(
            stacked, axis=0
        )
        for i, a in enumerate(expr.args):
            _backward(a, X, memo, adj * (sel == i).astype(float), grad)
        return
    raise TypeError(f"unknown expression node {type(expr).__name__}")


def _relation_residual(
    c: Relation, X: np.ndarray, memo: dict, cfg: PenaltyConfig
) -> np.ndarray:
    """Signed residual r with penalty = |r| for == and max(0, r) otherwise."""
    a = _forward(c.left, X, memo)
    b = _forward(c.right, X, memo)
    if c.op == "==":
        return a - b
    if c.op == "<=":
        return a - b
    if c.op == "<":
        return a - b + STRICT_MARGIN
    if c.op == ">=":
        return b - a
    return b - a + STRICT_MARGIN  # ">"


def _penalty_forward(
    c: Constraint, X: np.ndarray, memo: dict, cfg: PenaltyConfig
) -> np.ndarray:
    if isinstance(c, Relation):
        r = _relation_residual(c, X, memo, cfg)
        return np.abs(r) if c.op == "==" else np.maximum(0.0, r)
    if isinstance(c, And):
        return sum(_penalty_forward(ch, X, memo, cfg) for ch in c.children)
    if isinstance(c, Or):
        stacked = np.stack([_penalty_forward(ch, X, memo, cfg) for ch in c.children])
        return np.min(stacked, axis=0)
    if isinstance(c, Implies):
        return _penalty_forward(Or((c.guard.negated(), c.body)), X, memo, cfg)
    raise TypeError(f"unknown constraint node {type(c).__name__}")


def _penalty_backward(
    c: Constraint,
    X: np.ndarray,
    memo: dict,
    adj: np.ndarray,
    grad: np.ndarray,
    cfg: PenaltyConfig,
) -> None:
    if isinstance(c, Relation):
        r = _relation_residual(c, X, memo, cfg)
        if c.op == "==":
            d = np.sign(r)
        else:
            # Hinge: flat at the kink (the constant branch wins ties).
            d = (r > 0).astype(float)
        sign = 1.0 if c.op in ("==", "<=", "<") else -1.0
        _backward(c.left, X, memo, adj * d * sign, grad)
        _backward(c.right, X, memo, -adj * d * sign, grad)
        return
    if isinstance(c, And):
        for ch in c.children:
            _penalty_backward(ch, X, memo, adj, grad, cfg)
        return
    if isinstance(c, Or):
        stacked = np.stack([_penalty_forward(ch, X, memo, cfg) for ch in c.children])
        sel = np.argmin(stacked, axis=0)  # first child wins ties
        for i, ch in enumerate(c.children):
            _penalty_backward(ch, X, memo, adj * (sel == i).astype(float), grad, cfg)
        return
    if isinstance(c, Implies):
        _penalty_backward(Or((c.guard.negated(), c.body)), X, memo, adj, grad, cfg)
        return
    raise TypeError(f"unknown constraint node {type(c).__name__}")


def penalty_matrix(
    cs: ConstraintSet,
    X: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
) -> np.ndarray:
    """Per-row, per-constraint penalties, shape (n_rows, n_constraints)."""
    X, _ = _as_matrix(X)
    if len(cs) == 0:
        return np.zeros((X.shape[0], 0))
    return np.stack([_penalty_forward(c, X, {}, cfg) for c in cs], axis=1)


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
):
    """Sum of per-constraint penalties (the attacks' aggregate loss)."""
    X, single = _as_matrix(x)
    total = penalty_matrix(cs, X, cfg).sum(axis=1)
    return float(total[0]) if single else total


def total_penalty_with_gradient(
    cs: ConstraintSet,
    x: np.ndarray,
    cfg: PenaltyConfig = DEFAULT_PENALTY_CONFIG,
):
    """(sum of penalties, sum of penalty gradients) over the set; the sum
    is `total_penalty`'s."""
    X, single = _as_matrix(x)
    total = penalty_matrix(cs, X, cfg).sum(axis=1)
    grad = np.zeros_like(X)
    for c in cs:
        memo: dict = {}
        _penalty_forward(c, X, memo, cfg)
        _penalty_backward(c, X, memo, np.ones(X.shape[0]), grad, cfg)
    if single:
        return float(total[0]), grad[0]
    return total, grad


def fix(
    rules,
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
        violated = _penalty_forward(rule.guard, out, {}, cfg) > 0
        if np.any(violated):
            values = _forward(rule.expr, out, {})
            out[violated, rule.target] = values[violated]
    return out[0] if single else out
