"""Expression trees for feature constraints.

Numeric expressions (`NumExpr`) are arithmetic trees over named dataset
features; constraints combine them with relational and boolean nodes.
All nodes are immutable value objects, so trees can be shared freely
across threads.

A tree runs as a closure that `compile_columns` builds over column
blocks. Called on a row-major feature matrix, the closure returns the
node's values (a constraint's: its penalty), of shape (rows, G),
together with a backward step that adds adj * d(value)/dX into a
gradient matrix. Each node type's value rule and derivative rule sit
together in its `_compile`. The penalty engine (`tabrobust.engine`)
compiles each constraint set once, in blocks; `evaluate_expr` and
`eval_with_gradient` compile a block of width 1 on every call.

`shape_key` gives trees that are equal once feature indices are
renumbered in order of first use (constants included) one key, and
`compile_columns` compiles one such tree so that its feature i reads
the block X[:, columns[i]]: G trees of one shape run as one closure.
Every rule is elementwise, so each column of a block gets the values
its own tree would. `column_block` holds a block's columns as a slice
when they step evenly upward, which every block of one column does,
and as an int array otherwise: basic indexing reads a view, so narrow
blocks cost no more than a tree reading its own columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Union

import numpy as np

# Guards for operations with restricted domains. Division clamps the
# denominator to +/- DIV_EPS (sign preserved), log clamps its argument
# from below. Both keep penalties and their gradients finite everywhere.
DIV_EPS = 1e-12
LOG_EPS = 1e-12
# Strict comparisons close with a margin: a < b is scored as a + STRICT_MARGIN <= b.
STRICT_MARGIN = 1e-6


@dataclass(frozen=True)
class _Layout:
    """Where a compiled tree reads its features: feature i is the block
    X[:, columns[i]], and every value has shape (rows, width)."""

    columns: dict
    width: int


class _Node:
    __slots__ = ()


def _no_backward(adj, grad):
    pass


def _binary(layout, left, right, value, derivs):
    """Closure of a two-child node: `value(a, b)` is its value and
    `derivs(adj, a, b, out)` the adjoints of its children, which only
    the backward step computes."""
    left, right = left._compile(layout), right._compile(layout)

    def run(X):
        a, back_a = left(X)
        b, back_b = right(X)
        out = value(a, b)

        def backward(adj, grad):
            adj_a, adj_b = derivs(adj, a, b, out)
            back_a(adj_a, grad)
            back_b(adj_b, grad)

        return out, backward

    return run


def _unary(layout, arg, value, deriv):
    arg = arg._compile(layout)

    def run(X):
        a, back = arg(X)
        return value(a), lambda adj, grad: back(deriv(adj, a), grad)

    return run


def _extremum(layout, children, reduce, select):
    """Closure of Min, Max and a constraint Or: `reduce` over the
    children's values, with the derivative flowing to the first child
    that `select` picks (argmin/argmax take the first index on ties)."""
    children = [c._compile(layout) for c in children]

    def run(X):
        vals, backs = zip(*(c(X) for c in children))
        stacked = np.stack(vals)

        def backward(adj, grad):
            sel = select(stacked, axis=0)
            for i, back in enumerate(backs):
                back(adj * (sel == i).astype(float), grad)

        return reduce(stacked, axis=0), backward

    return run


def _clamp_denominator(den: np.ndarray) -> np.ndarray:
    sign = np.where(den < 0, -1.0, 1.0)
    return sign * np.maximum(np.abs(den), DIV_EPS)


class NumExpr(_Node):
    """Base class for numeric expression nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Constant(NumExpr):
    value: float

    def _compile(self, layout):
        value, width = self.value, layout.width
        return lambda X: (np.full((X.shape[0], width), value, dtype=float), _no_backward)


@dataclass(frozen=True)
class Feature(NumExpr):
    index: int

    def _compile(self, layout):
        i = layout.columns[self.index]

        def backward(adj, grad):
            grad[:, i] += adj

        return lambda X: (X[:, i].astype(float, copy=True), backward)


@dataclass(frozen=True)
class Add(NumExpr):
    left: NumExpr
    right: NumExpr

    def _compile(self, layout):
        return _binary(layout, self.left, self.right, np.add, lambda adj, a, b, out: (adj, adj))


@dataclass(frozen=True)
class Sub(NumExpr):
    left: NumExpr
    right: NumExpr

    def _compile(self, layout):
        return _binary(
            layout, self.left, self.right, np.subtract, lambda adj, a, b, out: (adj, -adj)
        )


@dataclass(frozen=True)
class Mul(NumExpr):
    left: NumExpr
    right: NumExpr

    def _compile(self, layout):
        return _binary(
            layout, self.left, self.right, np.multiply, lambda adj, a, b, out: (adj * b, adj * a)
        )


@dataclass(frozen=True)
class SafeDiv(NumExpr):
    left: NumExpr
    right: NumExpr

    def _compile(self, layout):
        def derivs(adj, num, den_raw, out):
            den = _clamp_denominator(den_raw)
            # Inside the clamp the output is constant in the denominator.
            active = (np.abs(den_raw) >= DIV_EPS).astype(float)
            return adj / den, -adj * num / (den * den) * active

        return _binary(
            layout, self.left, self.right, lambda num, den: num / _clamp_denominator(den),
            derivs,
        )


@dataclass(frozen=True)
class Pow(NumExpr):
    base: NumExpr
    exponent: NumExpr

    def _compile(self, layout):
        def derivs(adj, base, exp, val):
            with np.errstate(divide="ignore", invalid="ignore"):
                dbase = np.where(base != 0.0, exp * val / base, 0.0)
                # d/d_exp needs log(base); undefined for base <= 0.
                dexp = np.where(base > 0.0, val * np.log(np.maximum(base, LOG_EPS)), 0.0)
            return adj * np.nan_to_num(dbase), adj * dexp

        return _binary(layout, self.base, self.exponent, np.power, derivs)


@dataclass(frozen=True)
class Log(NumExpr):
    arg: NumExpr

    def _compile(self, layout):
        return _unary(
            layout, self.arg,
            lambda a: np.log(np.maximum(a, LOG_EPS)),
            lambda adj, a: adj * (a >= LOG_EPS).astype(float) / np.maximum(a, LOG_EPS),
        )


@dataclass(frozen=True)
class Abs(NumExpr):
    arg: NumExpr

    def _compile(self, layout):
        return _unary(layout, self.arg, np.abs, lambda adj, a: adj * np.sign(a))


@dataclass(frozen=True)
class Min(NumExpr):
    args: tuple[NumExpr, ...]

    def __post_init__(self):
        if len(self.args) < 1:
            raise ValueError("Min needs at least one argument")
        object.__setattr__(self, "args", tuple(self.args))

    def _compile(self, layout):
        return _extremum(layout, self.args, np.min, np.argmin)


@dataclass(frozen=True)
class Max(NumExpr):
    args: tuple[NumExpr, ...]

    def __post_init__(self):
        if len(self.args) < 1:
            raise ValueError("Max needs at least one argument")
        object.__setattr__(self, "args", tuple(self.args))

    def _compile(self, layout):
        return _extremum(layout, self.args, np.max, np.argmax)


RELATION_OPS = ("==", "<=", "<", ">=", ">")

# Negation of a relation is the relation with the flipped operator.
# Equality has no complement in the operator set, so it cannot appear
# where a negation is required (implication guards).
FLIPPED_OP = {"<=": ">", "<": ">=", ">=": "<", ">": "<="}


class Constraint(_Node):
    """Base class for constraint nodes."""

    __slots__ = ()


@dataclass(frozen=True)
class Relation(Constraint):
    op: str
    left: NumExpr
    right: NumExpr

    def __post_init__(self):
        if self.op not in RELATION_OPS:
            raise ValueError(f"unknown relational operator {self.op!r}")

    def negated(self) -> "Relation":
        if self.op == "==":
            raise ValueError("equality relations cannot be negated")
        return Relation(FLIPPED_OP[self.op], self.left, self.right)

    def _compile(self, layout):
        # Signed residual r: the penalty is |r| for == and the hinge
        # max(0, r) otherwise; `sign` is dr/d(left).
        left, right = self.left._compile(layout), self.right._compile(layout)
        equality, strict = self.op == "==", self.op in ("<", ">")
        sign = 1.0 if self.op in ("==", "<=", "<") else -1.0

        def run(X):
            a, back_a = left(X)
            b, back_b = right(X)
            r = a - b if sign > 0 else b - a
            if strict:
                r = r + STRICT_MARGIN

            def backward(adj, grad):
                # Hinge: flat at the kink (the constant branch wins ties).
                d = np.sign(r) if equality else (r > 0).astype(float)
                back_a(adj * d * sign, grad)
                back_b(-adj * d * sign, grad)

            return (np.abs(r) if equality else np.maximum(0.0, r)), backward

        return run


@dataclass(frozen=True)
class And(Constraint):
    children: tuple[Constraint, ...]

    def __post_init__(self):
        if len(self.children) < 1:
            raise ValueError("And needs at least one child")
        object.__setattr__(self, "children", tuple(self.children))

    def _compile(self, layout):
        children = [c._compile(layout) for c in self.children]

        def run(X):
            vals, backs = zip(*(c(X) for c in children))

            def backward(adj, grad):
                for back in backs:
                    back(adj, grad)

            return sum(vals), backward

        return run


@dataclass(frozen=True)
class Or(Constraint):
    children: tuple[Constraint, ...]

    def __post_init__(self):
        if len(self.children) < 1:
            raise ValueError("Or needs at least one child")
        object.__setattr__(self, "children", tuple(self.children))

    def _compile(self, layout):
        return _extremum(layout, self.children, np.min, np.argmin)


@dataclass(frozen=True)
class Implies(Constraint):
    guard: Relation
    body: Constraint

    def __post_init__(self):
        if not isinstance(self.guard, Relation):
            raise ValueError("implication guards must be plain relations")
        if self.guard.op == "==":
            raise ValueError("equality guards are not supported in implications")

    def _compile(self, layout):
        return Or((self.guard.negated(), self.body))._compile(layout)


@dataclass
class ConstraintSet:
    """Ordered, flat collection of constraints.

    `source_text` keeps the original line for each parsed constraint
    (None for one built in code); `parser.save_constraints` writes it.
    """

    constraints: list[Constraint] = field(default_factory=list)
    source_text: list[Union[str, None]] = field(default_factory=list)
    # The engine's evaluation plan, kept with the constraints it was
    # built from (`tabrobust.engine`).
    plan: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.source_text:
            self.source_text = [None] * len(self.constraints)
        if len(self.source_text) != len(self.constraints):
            raise ValueError("source_text length must match constraints")

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def add(self, constraint: Constraint, source: Union[str, None] = None) -> None:
        self.constraints.append(constraint)
        self.source_text.append(source)


def shape_key(nodes: tuple, leaves: list[int]) -> tuple:
    """Structure of the trees `nodes`, with their constants, and with
    feature indices renumbered in order of first use. Appends every
    feature leaf's index to `leaves`, left to right; that is the order
    in which the compiled trees read their features and in which their
    backward steps add into the gradient. Trees with equal keys compute
    the same function of their features."""
    numbering: dict[int, int] = {}

    def walk(node):
        if isinstance(node, Feature):
            leaves.append(node.index)
            return numbering.setdefault(node.index, len(numbering))
        key = [type(node).__name__]
        for f in fields(node):
            v = getattr(node, f.name)
            if isinstance(v, tuple):
                key.append(tuple(map(walk, v)))
            elif isinstance(v, _Node):
                key.append(walk(v))
            else:  # an operator name or a constant; -0.0 and 0.0 differ
                key.append(v if isinstance(v, str) else float(v).hex())
        return tuple(key)

    return tuple(map(walk, nodes))


def features_of(node: Union[NumExpr, Constraint]) -> set[int]:
    """Set of feature indices referenced anywhere in the tree."""
    leaves: list[int] = []
    shape_key((node,), leaves)
    return set(leaves)


def column_block(indices: list[int]) -> Union[slice, np.ndarray]:
    """The columns `indices` as one block's index: a slice when they step
    evenly upward (one column always does), else an int array."""
    first, last = indices[0], indices[-1]
    step = indices[1] - first if len(indices) > 1 else 1
    if step > 0 and list(indices) == list(range(first, last + 1, step)):
        return slice(first, last + 1, step)
    return np.array(indices)


def compile_columns(node: _Node, columns: dict, width: int):
    """The closure of `node` run on column blocks: feature i of the tree
    reads X[:, columns[i]] (a `column_block` of `width` columns), so
    values, adjoints and the backward step's gradient updates are
    (rows, width). Every closure maps X to (values, backward), a
    constraint's values being its penalty; backward(adj, grad) adds
    adj * d(value)/dX into grad. The columns of one block must differ,
    or the updates overwrite."""
    return node._compile(_Layout(columns, width))


def _as_matrix(x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        return x[None, :], True
    if x.ndim == 2:
        return x, False
    raise ValueError(f"expected vector or matrix, got ndim={x.ndim}")


def _compile_alone(expr: NumExpr):
    """`expr` as a block of width 1 reading its own columns."""
    return compile_columns(expr, {i: column_block([i]) for i in features_of(expr)}, 1)


def evaluate_expr(expr: NumExpr, x: np.ndarray) -> Union[float, np.ndarray]:
    """Evaluate an expression on a feature vector or row-major matrix.

    Returns a scalar for a single vector, a length-n array for an
    (n, d) matrix.
    """
    X, single = _as_matrix(x)
    values = _compile_alone(expr)(X)[0][:, 0]
    return float(values[0]) if single else values


def eval_with_gradient(expr: NumExpr, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and d(value)/dx of an expression, reverse mode.

    Works row-wise on an (n, d) matrix: returns ((n,), (n, d)). At
    non-differentiable points the subgradient convention follows the
    first argument attaining the extremum (min/max) and sign(0) = 0
    for abs.
    """
    X, single = _as_matrix(x)
    value, backward = _compile_alone(expr)(X)
    grad = np.zeros_like(X)
    backward(np.ones((X.shape[0], 1)), grad)
    return (value[0, 0], grad[0]) if single else (value[:, 0], grad)
