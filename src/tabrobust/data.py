"""Dataset schema, ingestion, and min-max scaling.

A schema describes each feature's name, kind (continuous / integer /
categorical one-hot column), bounds, and whether an attacker may alter
it. Datasets are row-major float matrices with binary labels. Schemas
and datasets round-trip through JSON + RFC-4180 CSV.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

KINDS = ("continuous", "integer", "categorical")


class DataError(ValueError):
    """Raised for schema violations and malformed dataset files."""


@dataclass(frozen=True)
class FeatureMetadata:
    name: str
    kind: str = "continuous"
    min: float = 0.0
    max: float = 1.0
    mutable: bool = True
    onehot_group: Optional[Union[int, str]] = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise DataError(f"unknown feature kind {self.kind!r}")
        if self.min > self.max:
            raise DataError(f"feature {self.name!r}: min {self.min} > max {self.max}")
        if self.kind == "integer":
            # Bounds must be integers that float64 holds exactly, so that
            # projection can round onto them and mutation can draw in them.
            for bound in (self.min, self.max):
                if not (float(bound).is_integer() and abs(bound) <= 2**53):
                    raise DataError(
                        f"integer feature {self.name!r}: bound {bound!r} is not a "
                        "finite integer"
                    )
        if self.kind == "categorical" and self.onehot_group is None:
            raise DataError(f"categorical feature {self.name!r} needs an onehot_group")


@dataclass
class DatasetSchema:
    features: list[FeatureMetadata]
    critical_class: int = 1

    def __post_init__(self):
        names = [f.name for f in self.features]
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")
        self._index = {name: i for i, name in enumerate(names)}

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def names(self) -> list[str]:
        return [f.name for f in self.features]

    def resolve(self, name: str) -> int:
        """Feature name -> column index. Declared names win over the
        generic F<k> fallback."""
        if name in self._index:
            return self._index[name]
        if name.startswith("F") and name[1:].isdigit():
            idx = int(name[1:])
            if 0 <= idx < self.n_features:
                return idx
        raise KeyError(name)

    def mutable_mask(self) -> np.ndarray:
        return np.array([f.mutable for f in self.features], dtype=bool)

    def integer_mask(self) -> np.ndarray:
        return np.array([f.kind == "integer" for f in self.features], dtype=bool)

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([f.min for f in self.features], dtype=float)
        hi = np.array([f.max for f in self.features], dtype=float)
        return lo, hi

    def onehot_groups(self) -> dict[Union[int, str], list[int]]:
        groups: dict[Union[int, str], list[int]] = {}
        for i, f in enumerate(self.features):
            if f.onehot_group is not None:
                groups.setdefault(f.onehot_group, []).append(i)
        return groups

    def column_slots(self) -> list[np.ndarray]:
        """Column groups that change together: each one-hot group whole,
        every other column alone, ordered by first column."""
        groups = self.onehot_groups().values()
        grouped = {i for cols in groups for i in cols}
        slots = [np.array(cols) for cols in groups]
        slots += [np.array([i]) for i in range(self.n_features) if i not in grouped]
        slots.sort(key=lambda c: int(c[0]))
        return slots

    @classmethod
    def generic(cls, n_features: int, critical_class: int = 1) -> "DatasetSchema":
        """Schema of n unconstrained continuous features named F0..F{n-1}."""
        return cls(
            [FeatureMetadata(name=f"F{i}", min=-np.inf, max=np.inf) for i in range(n_features)],
            critical_class=critical_class,
        )

    def to_dict(self) -> dict:
        feats = []
        for f in self.features:
            d = {
                "name": f.name,
                "kind": f.kind,
                "min": f.min,
                "max": f.max,
                "mutable": f.mutable,
            }
            if f.onehot_group is not None:
                d["onehot_group"] = f.onehot_group
            feats.append(d)
        return {"features": feats, "critical_class": self.critical_class}

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSchema":
        try:
            feats = [
                FeatureMetadata(
                    name=f["name"],
                    kind=f.get("kind", "continuous"),
                    min=float(f["min"]),
                    max=float(f["max"]),
                    mutable=bool(f.get("mutable", True)),
                    onehot_group=f.get("onehot_group"),
                )
                for f in d["features"]
            ]
        except KeyError as e:
            raise DataError(f"schema missing field {e}") from e
        return cls(feats, critical_class=int(d.get("critical_class", 1)))

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path: Union[str, Path]) -> "DatasetSchema":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)
        self.y = np.asarray(self.y, dtype=int)
        if self.X.ndim != 2:
            raise DataError("X must be a 2-d matrix")
        if self.y.shape != (self.X.shape[0],):
            raise DataError("y length must match X rows")
        labels = set(np.unique(self.y).tolist())
        if not labels <= {0, 1}:
            raise DataError(f"labels must be binary, got {sorted(labels)}")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


def validate_against_schema(X: np.ndarray, schema: DatasetSchema) -> None:
    """Bounds, integrality, and one-hot exclusivity checks.

    Errors name the first offending row and column.
    """
    if X.shape[1] != schema.n_features:
        raise DataError(
            f"matrix has {X.shape[1]} columns, schema has {schema.n_features}"
        )
    lo, hi = schema.bounds()
    for j, f in enumerate(schema.features):
        col = X[:, j]
        bad = np.where((col < lo[j]) | (col > hi[j]))[0]
        if bad.size:
            raise DataError(
                f"row {bad[0]}, column {f.name!r}: value {col[bad[0]]!r} outside "
                f"[{f.min}, {f.max}]"
            )
        if f.kind in ("integer", "categorical"):
            frac = np.abs(col - np.round(col))
            bad = np.where(frac > 1e-9)[0]
            if bad.size:
                raise DataError(
                    f"row {bad[0]}, column {f.name!r}: value {col[bad[0]]!r} is not "
                    "integral"
                )
    for group, cols in schema.onehot_groups().items():
        sums = X[:, cols].sum(axis=1)
        bad = np.where(np.abs(sums - 1.0) > 1e-9)[0]
        if bad.size:
            raise DataError(
                f"row {bad[0]}: one-hot group {group!r} sums to {sums[bad[0]]!r}, "
                "expected exactly one active column"
            )


def load_dataset(
    csv_path: Union[str, Path], schema_path: Union[str, Path]
) -> tuple[Dataset, DatasetSchema]:
    """Load a CSV (header = feature names + 'label') against a JSON schema."""
    schema = DatasetSchema.load(schema_path)
    rows = []
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{csv_path}: empty file") from None
        expected = schema.names + ["label"]
        if header != expected:
            missing = [c for c in expected if c not in header]
            if missing:
                raise DataError(f"{csv_path}: missing columns {missing}")
            raise DataError(
                f"{csv_path}: header {header} does not match schema columns {expected}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(expected):
                raise DataError(f"{csv_path}:{lineno}: expected {len(expected)} fields")
            try:
                rows.append([float(v) for v in row])
            except ValueError as e:
                raise DataError(f"{csv_path}:{lineno}: {e}") from None
    if not rows:
        raise DataError(f"{csv_path}: no rows")
    arr = np.array(rows, dtype=float)
    X, y_raw = arr[:, :-1], arr[:, -1]
    if np.any(np.abs(y_raw - np.round(y_raw)) > 0) or not set(
        np.unique(y_raw.astype(int)).tolist()
    ) <= {0, 1}:
        raise DataError(f"{csv_path}: labels must be 0 or 1")
    validate_against_schema(X, schema)
    return Dataset(X, y_raw.astype(int)), schema


def save_dataset(
    dataset: Dataset, schema: DatasetSchema, csv_path: Union[str, Path]
) -> None:
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.names + ["label"])
        for x, label in zip(dataset.X, dataset.y):
            writer.writerow([repr(float(v)) for v in x] + [int(label)])


class MinMaxScaler:
    """Per-feature linear map to [0, 1].

    Constant features (zero width) map to 0; the width is clamped to 1
    so transform/inverse stay finite.
    """

    def __init__(self):
        self.min_: Optional[np.ndarray] = None
        self.width_: Optional[np.ndarray] = None

    def fit(self, X: np.ndarray) -> "MinMaxScaler":
        X = np.asarray(X, dtype=float)
        lo = X.min(axis=0)
        hi = X.max(axis=0)
        return self.fit_bounds(lo, hi)

    def fit_bounds(self, lo: np.ndarray, hi: np.ndarray) -> "MinMaxScaler":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if np.any(hi < lo):
            raise DataError("scaler bounds must satisfy min <= max")
        self.min_ = lo
        width = hi - lo
        self.width_ = np.where(width > 0, width, 1.0)
        return self

    @classmethod
    def from_schema(cls, schema: DatasetSchema) -> "MinMaxScaler":
        lo, hi = schema.bounds()
        return cls().fit_bounds(lo, hi)

    def _check(self) -> None:
        if self.min_ is None:
            raise DataError("scaler used before fit")

    def transform(self, X: np.ndarray) -> np.ndarray:
        self._check()
        return (np.asarray(X, dtype=float) - self.min_) / self.width_

    def inverse_transform(self, Z: np.ndarray) -> np.ndarray:
        self._check()
        return np.asarray(Z, dtype=float) * self.width_ + self.min_

    def to_dict(self) -> dict:
        self._check()
        return {"min": self.min_.tolist(), "width": self.width_.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "MinMaxScaler":
        s = cls()
        s.min_ = np.array(d["min"], dtype=float)
        s.width_ = np.array(d["width"], dtype=float)
        return s
