"""Synthetic constrained datasets for desk-scale benchmarking.

Each template emits a 6+ feature schema, a generating process whose
rows satisfy the emitted constraints exactly, and labels from a noisy
threshold on a hidden score, so a small classifier can exceed 0.95
accuracy while a meaningful fraction of rows sits near the decision
boundary (otherwise there would be nothing to attack).

Feature layout (raw units):

    F0  continuous [-10, 10]  mutable    sum templates force F0 = F1 + F2
    F1  continuous [-5, 5]    mutable
    F2  continuous [-5, 5]    mutable
    F3  continuous [0, 1]     immutable
    F4  continuous [-5, 5]    mutable    implication: if F1 > 0 then F4 > 0
    F5  integer    [0, 10]    mutable
    F6+ continuous [0, 1]     mutable    filler noise when n_features > 6
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, DatasetSchema, FeatureMetadata, MinMaxScaler, is_finite_number, is_int_at_least
from .engine import PenaltyConfig, check
from .expressions import ConstraintSet
from .parser import parse_constraint

TEMPLATES = ("sum3", "implication", "benchmark")

_SUM_LINE = "F0 == F1 + F2"
_IMPLICATION_LINE = "if F1 > 0 then F4 > 0"


class InfeasibleSpec(ValueError):
    """Raised when a synthetic spec cannot produce valid rows."""


@dataclass
class SyntheticSpec:
    n_rows: int = 5000
    n_features: int = 6
    template: str = "benchmark"
    label_noise: float = 0.05

    def __post_init__(self):
        if self.template not in TEMPLATES:
            raise InfeasibleSpec(
                f"unknown template {self.template!r}; pick one of {TEMPLATES}"
            )
        # The templates need 6 features, and a split needs 2 rows.
        for name, low in (("n_rows", 2), ("n_features", 6)):
            if not is_int_at_least(getattr(self, name), low):
                raise InfeasibleSpec(f"{name} must be an integer in [{low}, 2**63 - 1], "
                                     f"got {getattr(self, name)!r}")
        if not (is_finite_number(self.label_noise) and self.label_noise >= 0):
            raise InfeasibleSpec(
                f"label_noise must be finite and nonnegative, got {self.label_noise}"
            )


def _schema(spec: SyntheticSpec) -> DatasetSchema:
    feats = [
        FeatureMetadata("F0", "continuous", -10.0, 10.0, mutable=True),
        FeatureMetadata("F1", "continuous", -5.0, 5.0, mutable=True),
        FeatureMetadata("F2", "continuous", -5.0, 5.0, mutable=True),
        FeatureMetadata("F3", "continuous", 0.0, 1.0, mutable=False),
        FeatureMetadata("F4", "continuous", -5.0, 5.0, mutable=True),
        FeatureMetadata("F5", "integer", 0.0, 10.0, mutable=True),
    ]
    for i in range(6, spec.n_features):
        feats.append(FeatureMetadata(f"F{i}", "continuous", 0.0, 1.0, mutable=True))
    return DatasetSchema(feats, critical_class=1)


def generate_synthetic(
    spec: SyntheticSpec, seed: int
) -> tuple[Dataset, DatasetSchema, ConstraintSet]:
    """Build (dataset, schema, constraints); every row checks at tolerance 0."""
    schema = _schema(spec)
    rng = np.random.default_rng(seed)
    n = spec.n_rows

    enforce_sum = spec.template in ("sum3", "benchmark")
    enforce_impl = spec.template in ("implication", "benchmark")

    f1 = rng.uniform(-5.0, 5.0, n)
    f2 = rng.uniform(-5.0, 5.0, n)
    f0 = f1 + f2 if enforce_sum else rng.uniform(-10.0, 10.0, n)
    f3 = rng.uniform(0.0, 1.0, n)
    f4 = rng.uniform(-5.0, 5.0, n)
    if enforce_impl:
        positive_guard = f1 > 0
        f4 = np.where(positive_guard, rng.uniform(0.1, 5.0, n), f4)
    f5 = rng.integers(0, 11, n).astype(float)

    X = np.column_stack([f0, f1, f2, f3, f4, f5])
    if spec.n_features > 6:
        X = np.column_stack([X, rng.uniform(0.0, 1.0, (n, spec.n_features - 6))])

    # Hidden score over scaled coordinates, centered at its median so
    # the classes balance; the interaction term keeps it non-linear.
    Z = MinMaxScaler.from_schema(schema).transform(X)
    score = (
        1.0 * Z[:, 0]
        + 0.5 * Z[:, 1]
        + 0.5 * Z[:, 2]
        - 1.0 * Z[:, 3]
        + 1.5 * Z[:, 4]
        + 0.8 * Z[:, 5]
        + 0.5 * Z[:, 1] * Z[:, 4]
    )
    score = score - np.median(score)
    noisy = score + rng.normal(0.0, spec.label_noise, n)
    y = (noisy > 0).astype(int)
    if len(np.unique(y)) < 2:
        raise InfeasibleSpec("degenerate labels; increase n_rows")

    lines = []
    if enforce_sum:
        lines.append(_SUM_LINE)
    if enforce_impl:
        lines.append(_IMPLICATION_LINE)
    cs = ConstraintSet()
    for line in lines:
        cs.add(parse_constraint(line, schema), source=line)

    dataset = Dataset(X, y)
    ok = check(cs, dataset.X, PenaltyConfig(tolerance=0.0))
    if not np.all(ok):
        raise InfeasibleSpec("generator produced constraint-violating rows")
    return dataset, schema, cs
