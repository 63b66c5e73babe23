"""A wide constrained dataset shaped like the TabularBench credit domains.

The `synth` templates have 2 constraints over 6 features, too few for the
constraint engine's cost to show. This generator builds BLOCKS repeated
loan blocks plus a few shared one-hot groups: 16 x 13 + 16 = 224 features
and 16 x 8 = 128 constraints, using the constraint shapes real domains
use (sums, ratios, an amortization power term, orderings, implications).
Rows satisfy every constraint by construction: derived columns are
computed with the engine's own expression evaluator, so the equalities
hold exactly and check at tolerance 0.

Per block b (raw units; "int" = integer kind; "imm" = immutable):

    a_b, c_b    continuous [0, 100]     balances
    tot_b       continuous [0, 200]     tot_b == a_b + c_b
    loan_b      continuous [1, 40]
    inc_b       continuous [10, 200]    imm
    ratio_b     continuous [0, 4]       ratio_b == loan_b / inc_b
    rate_b      continuous [0.05, 0.3]
    term_b      int [1, 6]
    inst_b      continuous [0, 60]      amortized installment
    open_b      int [0, 20]             open_b <= acc_b
    acc_b       int [0, 40]
    delinq_b    int [0, 4]              rate_b >= 0.05 + 0.02 * delinq_b
    pub_b       int [0, 4]              if delinq_b > 0 then pub_b >= 1

Shared one-hot groups: home (4, imm), purpose (6), verif (3), grade (3, imm).
The bounds of tot, ratio and inst contain every value their assignment
can produce from in-bound inputs, so repairs never leave the box.

Generated rows sit inside narrower ranges than the bounds (open <= 10 <=
acc, pub >= 1), so an attacker can still break the orderings and the
implication, but mixing two valid rows column-wise (cutmix) breaks only
the rate floor. Retries stay common without a heavy tail of pairs that
almost never mix, which would make the cost of augmentation depend on
a few unlucky draws.
"""

from __future__ import annotations

import numpy as np

from tabrobust.data import (
    Dataset,
    DatasetSchema,
    FeatureMetadata,
    MinMaxScaler,
    validate_against_schema,
)
from tabrobust.engine import PenaltyConfig, check
from tabrobust.expressions import ConstraintSet, Relation, evaluate_expr
from tabrobust.parser import parse_constraint

BLOCKS = 16

_BLOCK_FEATURES = [
    # name, kind, min, max, mutable
    ("a", "continuous", 0.0, 100.0, True),
    ("c", "continuous", 0.0, 100.0, True),
    ("tot", "continuous", 0.0, 200.0, True),
    ("loan", "continuous", 1.0, 40.0, True),
    ("inc", "continuous", 10.0, 200.0, False),
    ("ratio", "continuous", 0.0, 4.0, True),
    ("rate", "continuous", 0.05, 0.3, True),
    ("term", "integer", 1.0, 6.0, True),
    ("inst", "continuous", 0.0, 60.0, True),
    ("open", "integer", 0.0, 20.0, True),
    ("acc", "integer", 0.0, 40.0, True),
    ("delinq", "integer", 0.0, 4.0, True),
    ("pub", "integer", 0.0, 4.0, True),
]

_BLOCK_CONSTRAINTS = [
    "tot_{b} == a_{b} + c_{b}",
    "ratio_{b} == loan_{b} / inc_{b}",
    "inst_{b} == loan_{b} * rate_{b} / (1 - (1 + rate_{b}) ^ (0 - term_{b}))",
    "open_{b} <= acc_{b}",
    "rate_{b} >= 0.05 + 0.02 * delinq_{b}",
    "if delinq_{b} > 0 then pub_{b} >= 1",
    "loan_{b} / inc_{b} <= 2",
    "max(a_{b}, c_{b}) <= tot_{b}",
]

# name, categories, mutable
_ONEHOT_GROUPS = [("home", 4, False), ("purpose", 6, True), ("verif", 3, True), ("grade", 3, False)]


def wide_schema() -> DatasetSchema:
    feats = [
        FeatureMetadata(f"{name}_{b}", kind, lo, hi, mutable=mut)
        for b in range(BLOCKS)
        for name, kind, lo, hi, mut in _BLOCK_FEATURES
    ]
    for group, k, mut in _ONEHOT_GROUPS:
        feats += [
            FeatureMetadata(f"{group}_{j}", "categorical", 0.0, 1.0, mutable=mut, onehot_group=group)
            for j in range(k)
        ]
    return DatasetSchema(feats, critical_class=1)


def wide_constraints(schema: DatasetSchema) -> ConstraintSet:
    cs = ConstraintSet()
    for b in range(BLOCKS):
        for template in _BLOCK_CONSTRAINTS:
            line = template.format(b=b)
            cs.add(parse_constraint(line, schema), source=line)
    return cs


def generate_wide(
    n_rows: int, seed: int
) -> tuple[Dataset, DatasetSchema, ConstraintSet]:
    """Build (dataset, schema, constraints); every row checks at tolerance 0."""
    schema = wide_schema()
    cs = wide_constraints(schema)
    rng = np.random.default_rng(seed)
    n = n_rows
    X = np.zeros((n, schema.n_features))

    def put(name: str, values: np.ndarray) -> None:
        X[:, schema.resolve(name)] = values

    for b in range(BLOCKS):
        inc = rng.uniform(10.0, 200.0, n)
        delinq = np.where(rng.random(n) < 0.7, 0, rng.integers(1, 5, n)).astype(float)
        put(f"a_{b}", rng.uniform(0.0, 100.0, n))
        put(f"c_{b}", rng.uniform(0.0, 100.0, n))
        put(f"loan_{b}", rng.uniform(1.0, np.minimum(40.0, 1.9 * inc)))
        put(f"inc_{b}", inc)
        # Risk-based pricing: the floor grows with delinquencies.
        put(f"rate_{b}", 0.05 + 0.02 * delinq + rng.uniform(0.001, 0.25 - 0.02 * delinq))
        put(f"term_{b}", rng.integers(1, 7, n).astype(float))
        put(f"open_{b}", rng.integers(0, 11, n).astype(float))
        put(f"acc_{b}", rng.integers(10, 41, n).astype(float))
        put(f"delinq_{b}", delinq)
        put(f"pub_{b}", rng.integers(1, 5, n).astype(float))
    for group, k, _ in _ONEHOT_GROUPS:
        active = rng.integers(0, k, n)
        for j in range(k):
            put(f"{group}_{j}", (active == j).astype(float))
    # Derived columns, in constraint order, with the engine's evaluator
    # so that the equalities hold bit-exactly.
    for c in cs:
        if isinstance(c, Relation) and c.op == "==":
            X[:, c.left.index] = evaluate_expr(c.right, X)

    # Hidden risk score over scaled coordinates, median-centred so the
    # classes balance; the interaction keeps it non-linear.
    Z = MinMaxScaler.from_schema(schema).transform(X)
    col = lambda name: Z[:, schema.resolve(name)]  # noqa: E731
    score = np.zeros(n)
    for b in range(4):
        score += (
            1.0 * col(f"delinq_{b}")
            + 0.8 * col(f"acc_{b}")
            + 1.0 * col(f"ratio_{b}")
            + 0.6 * col(f"rate_{b}")
            - 0.8 * col(f"a_{b}")
            + 0.8 * col(f"rate_{b}") * col(f"ratio_{b}")
        )
    score += 0.6 * col("grade_2") - 0.4 * col("home_0")
    score -= np.median(score)
    y = (score + rng.normal(0.0, 0.05, n) > 0).astype(int)

    dataset = Dataset(X, y)
    validate_against_schema(dataset.X, schema)
    if not np.all(check(cs, dataset.X, PenaltyConfig(tolerance=0.0))):
        raise AssertionError("wide generator produced constraint-violating rows")
    return dataset, schema, cs
