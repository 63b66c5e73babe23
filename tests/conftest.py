"""Shared test helpers: random constraint trees, finite-difference
oracles, kink-distance rejection sampling, a schema's one-hot groups
and slots as column lists, and a small trained benchmark fixture."""

from __future__ import annotations

import numpy as np
import pytest

from tabrobust.engine import PenaltyConfig
from tabrobust.expressions import (
    Abs,
    Add,
    And,
    Constant,
    Constraint,
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
    STRICT_MARGIN,
    SafeDiv,
    Sub,
)

# Denominators must sit well away from zero: the finite-difference
# oracle's truncation error for 1/u grows like 1/u^4.
MIN_DENOMINATOR = 0.05


def onehot_groups(schema) -> list[np.ndarray]:
    """Each one-hot group's columns, read from the schema's layout arrays."""
    return np.split(schema.group_cols, np.cumsum(schema.group_sizes))[: len(schema.group_sizes)]


def column_slots(schema) -> list[np.ndarray]:
    """Each slot's columns (a one-hot group whole, any other column
    alone), read from the schema's layout arrays."""
    return np.split(schema.slot_cols, np.cumsum(schema.slot_sizes))[:-1]


def finite_difference(fn, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    g = np.zeros_like(x, dtype=float)
    for i in range(len(x)):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (fn(xp) - fn(xm)) / (2.0 * h)
    return g


def gradients_close(analytic: np.ndarray, numeric: np.ndarray, tol: float = 1e-4) -> bool:
    """Hybrid relative/absolute agreement, per coordinate."""
    scale = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return bool(np.all(np.abs(analytic - numeric) <= tol * scale))


def random_expr(
    rng: np.random.Generator, n_features: int, depth: int = 3
) -> NumExpr:
    """Random expression tree over a smooth-friendly operator set."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return Constant(float(np.round(rng.uniform(-4.0, 4.0), 3)))
        return Feature(int(rng.integers(0, n_features)))
    kind = rng.integers(0, 9)
    sub = lambda: random_expr(rng, n_features, depth - 1)  # noqa: E731
    if kind == 0:
        return Add(sub(), sub())
    if kind == 1:
        return Sub(sub(), sub())
    if kind == 2:
        return Mul(sub(), sub())
    if kind == 3:
        return SafeDiv(sub(), sub())
    if kind == 4:
        return Pow(sub(), Constant(float(rng.integers(2, 4))))
    if kind == 5:
        return Log(sub())
    if kind == 6:
        return Abs(sub())
    if kind == 7:
        return Min(tuple(sub() for _ in range(int(rng.integers(2, 4)))))
    return Max(tuple(sub() for _ in range(int(rng.integers(2, 4)))))


def random_relation(
    rng: np.random.Generator, n_features: int, depth: int = 3
) -> Relation:
    op = ("==", "<=", "<", ">=", ">")[int(rng.integers(0, 5))]
    return Relation(op, random_expr(rng, n_features, depth),
                    random_expr(rng, n_features, depth))


def random_constraint(
    rng: np.random.Generator, n_features: int, depth: int = 3
) -> Constraint:
    roll = rng.random()
    if roll < 0.55:
        return random_relation(rng, n_features, depth)
    if roll < 0.75:
        guard = random_relation(rng, n_features, depth=1)
        while guard.op == "==":
            guard = random_relation(rng, n_features, depth=1)
        return Implies(guard, random_relation(rng, n_features, depth))
    if roll < 0.9:
        k = int(rng.integers(2, 4))
        return And(tuple(random_relation(rng, n_features, depth) for _ in range(k)))
    k = int(rng.integers(2, 4))
    return Or(tuple(random_relation(rng, n_features, depth) for _ in range(k)))


def kink_gap(node, x: np.ndarray) -> float:
    """Smallest distance (in value space) to any non-smooth switch.

    Used for rejection sampling: points with a small gap sit too close
    to an abs/min/max/hinge kink (or a division/log guard) for a
    finite-difference comparison to be meaningful.
    """
    gaps: list[float] = []

    def visit_expr(e: NumExpr) -> float:
        if isinstance(e, Constant):
            return e.value
        if isinstance(e, Feature):
            return float(x[e.index])
        if isinstance(e, (Add, Sub, Mul, SafeDiv)):
            a, b = visit_expr(e.left), visit_expr(e.right)
            if isinstance(e, Add):
                return a + b
            if isinstance(e, Sub):
                return a - b
            if isinstance(e, Mul):
                return a * b
            gaps.append(abs(b) - MIN_DENOMINATOR + 1e-3)
            den = np.sign(b) * max(abs(b), 1e-12) if b != 0 else 1e-12
            return a / den
        if isinstance(e, Pow):
            a = visit_expr(e.base)
            b = visit_expr(e.exponent)
            # Integer exponents only in generated trees; base 0 is the
            # only rough point for the derivative.
            gaps.append(abs(a))
            return float(np.power(a, b))
        if isinstance(e, Log):
            a = visit_expr(e.arg)
            gaps.append(abs(a))
            return float(np.log(max(a, 1e-12)))
        if isinstance(e, Abs):
            a = visit_expr(e.arg)
            gaps.append(abs(a))
            return abs(a)
        if isinstance(e, (Min, Max)):
            values = sorted(visit_expr(a) for a in e.args)
            if isinstance(e, Max):
                values = values[::-1]
            gaps.append(abs(values[1] - values[0]))
            return values[0]
        raise TypeError(type(e))

    def visit_constraint(c: Constraint) -> float:
        if isinstance(c, Relation):
            a = visit_expr(c.left)
            b = visit_expr(c.right)
            if c.op == "==":
                r = a - b
            elif c.op in ("<=", "<"):
                r = a - b + (STRICT_MARGIN if c.op == "<" else 0.0)
            else:
                r = b - a + (STRICT_MARGIN if c.op == ">" else 0.0)
            gaps.append(abs(r))
            return abs(r) if c.op == "==" else max(0.0, r)
        if isinstance(c, And):
            return sum(visit_constraint(ch) for ch in c.children)
        if isinstance(c, Or):
            values = sorted(visit_constraint(ch) for ch in c.children)
            gaps.append(abs(values[1] - values[0]) if len(values) > 1 else np.inf)
            return values[0]
        if isinstance(c, Implies):
            return visit_constraint(Or((c.guard.negated(), c.body)))
        raise TypeError(type(c))

    if isinstance(node, (Relation, And, Or, Implies)):
        visit_constraint(node)
    else:
        visit_expr(node)
    return min(gaps) if gaps else np.inf


def sample_away_from_kinks(
    rng: np.random.Generator,
    node,
    n_features: int,
    cfg: PenaltyConfig,
    min_gap: float = 1e-3,
    tries: int = 200,
):
    """A random point whose kink gap exceeds min_gap, or None. `cfg`
    is not read: kinks do not depend on the tolerance, and criterion 2
    passes one."""
    for _ in range(tries):
        x = rng.uniform(-3.0, 3.0, n_features)
        gap = kink_gap(node, x)
        value_ok = True
        try:
            value_ok = np.isfinite(gap)
        except TypeError:
            value_ok = False
        if value_ok and gap >= min_gap:
            return x
    return None


def pytest_terminal_summary(terminalreporter):
    """Print one line per acceptance criterion after the run."""
    try:
        from test_acceptance import ACCEPTANCE_LOG
    except ImportError:
        return
    if ACCEPTANCE_LOG:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LOG:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def small_bench():
    """A small trained benchmark: (model, dataset, schema, constraints).

    1500 rows, 25 training epochs; enough signal for attacks to find
    successes while staying fast.
    """
    from tabrobust.mlp import ReferenceModel, TrainConfig, train
    from tabrobust.synth import SyntheticSpec, generate_synthetic

    dataset, schema, cs = generate_synthetic(SyntheticSpec(n_rows=1500), seed=7)
    model = ReferenceModel(schema.n_features, seed=1)
    model, _ = train(model, dataset, TrainConfig(epochs=25, seed=1), schema=schema)
    return model, dataset, schema, cs
