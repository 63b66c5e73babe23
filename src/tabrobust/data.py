"""Dataset schema, ingestion, and min-max scaling.

A schema describes each feature's name, kind (continuous / integer /
categorical one-hot column), bounds, and whether an attacker may alter
it. Datasets are row-major float matrices with binary labels. Schemas
and datasets round-trip through JSON + RFC-4180 CSV.

A schema reads its features once, when it is built: the masks, bounds,
column slots and one-hot layout that the attacks and Cutmix use are
read-only arrays on it, and its features are a tuple, so none go stale.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Union

import numpy as np

KINDS = ("continuous", "integer", "categorical")


class DataError(ValueError):
    """Raised for schema violations and malformed dataset files."""


_REQUIRED = object()


def json_field(d, key: str, types, what: str, default=_REQUIRED):
    """d[key] of the JSON object `d` (a `what`), of one of `types` (bool
    only if named), or `default` if given and the key is absent; else a
    DataError naming the field."""
    if not isinstance(d, dict):
        raise DataError(f"{what} must be a JSON object, got {type(d).__name__}")
    if key not in d:
        if default is _REQUIRED:
            raise DataError(f"{what} missing field {key!r}")
        return default
    value = d[key]
    types = types if isinstance(types, tuple) else (types,)
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        names = " or ".join(t.__name__ for t in types)
        raise DataError(f"{what} field {key!r} must be {names}, got {type(value).__name__}")
    return value


def is_number(value, kind=numbers.Real) -> bool:
    """`value` is a `kind` number (numpy's included), not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """`value` is a finite real number (see `is_number`); an integer too
    large to convert to a float is not."""
    try:
        return is_number(value) and math.isfinite(value)
    except OverflowError:
        return False


def is_int_at_least(value, low: int) -> bool:
    """`value` is an integer (see `is_number`) in [low, 2**63 - 1], the
    range of the 64-bit integers numpy takes for counts and seeds."""
    return is_number(value, numbers.Integral) and low <= value <= 2**63 - 1


def json_array(value, ndim: int, what: str) -> np.ndarray:
    """The parsed JSON `value` as a float array: `ndim` levels of nested
    lists, none ragged, of finite numbers (not bools or null); else a
    DataError naming `what`."""

    def numbers(v, depth: int) -> bool:
        if depth == 0:
            return is_number(v)
        return isinstance(v, list) and all(numbers(e, depth - 1) for e in v)

    try:
        a = np.array(value, dtype=float) if numbers(value, ndim) else None
    except (ValueError, OverflowError):  # ragged, or an int past float's range
        a = None
    if a is None or not np.all(np.isfinite(a)):
        lists = "a list of " + "equal-length lists of " * (ndim - 1)
        raise DataError(f"{what} must be {lists}finite numbers")
    return a


def _json_bound(f, key: str, what: str) -> float:
    """Bound `key` of the JSON feature object `f` (a `what`) as a float;
    an integer too large to convert is a DataError naming the field."""
    value = json_field(f, key, (int, float), what)
    if isinstance(value, int) and not is_finite_number(value):
        raise DataError(f"{what} field {key!r} is an integer too large for a float")
    return float(value)


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
        if self.kind == "integer":
            # Bounds must be integers that float64 holds exactly, so that
            # projection can round onto them and mutation can draw in them.
            for bound in (self.min, self.max):
                if not (is_finite_number(bound) and float(bound).is_integer()
                        and abs(bound) <= 2**53):
                    raise DataError(
                        f"integer feature {self.name!r}: bound {bound!r} is not a "
                        "finite integer"
                    )
        if not self.min <= self.max:  # also false for a NaN bound
            raise DataError(f"feature {self.name!r}: need min <= max, got {self.min}, {self.max}")
        if (self.kind == "categorical") != (self.onehot_group is not None):
            raise DataError(f"feature {self.name!r}: onehot_group set iff kind is categorical")
        # Projection and mutation write a one-hot column as scaled 0 or
        # 1, which is the raw min or max.
        if self.kind == "categorical" and (self.min, self.max) != (0, 1):
            raise DataError(
                f"categorical feature {self.name!r}: bounds must be [0, 1], "
                f"got [{self.min}, {self.max}]"
            )


@dataclass
class DatasetSchema:
    """Features and the critical class, plus the column facts the attacks
    and Cutmix read, built once as read-only arrays: per column the
    `mutable` (declared mutable, with min < max), `integer` and `typed`
    (integer or categorical) masks, bounds `lo`, `hi` and `slot_of`;
    column indices `immutable` and `int_cols`; the slots (each one-hot
    group whole, every other column alone) and groups in order of first
    column, as their columns one after another (`slot_cols`,
    `group_cols`) and sizes (`slot_sizes`, `group_sizes`); the
    `group_keys`; and each group column's group and position in it
    (`group_of`, `group_pos`).
    """

    features: tuple[FeatureMetadata, ...]
    critical_class: int = 1

    def __post_init__(self):
        if self.critical_class not in (0, 1):
            raise DataError(f"critical_class must be 0 or 1, got {self.critical_class!r}")
        feats = self.features = tuple(self.features)
        self._index = {f.name: i for i, f in enumerate(feats)}
        if len(self._index) != len(feats):
            raise DataError("feature names must be unique")
        groups: dict[Union[int, str, None], list[int]] = {}
        for i, f in enumerate(feats):
            groups.setdefault(f.onehot_group, []).append(i)
        slots = sorted([[i] for i in groups.pop(None, [])] + list(groups.values()))
        cols, sizes = list(groups.values()), [len(c) for c in groups.values()]
        # A feature with one legal value is fixed: the scaler clamps its
        # width to 1, so any move would leave that value.
        self.mutable = np.array([f.mutable and f.min != f.max for f in feats], dtype=bool)
        self.integer = np.array([f.kind == "integer" for f in feats], dtype=bool)
        self.typed = np.array([f.kind != "continuous" for f in feats], dtype=bool)
        self.lo = np.array([f.min for f in feats], dtype=float)
        self.hi = np.array([f.max for f in feats], dtype=float)
        self.immutable = np.flatnonzero(~self.mutable)
        self.int_cols = np.flatnonzero(self.integer)
        self.slot_cols = np.array([i for c in slots for i in c], dtype=np.intp)
        self.slot_sizes = np.array([len(c) for c in slots], dtype=np.intp)
        slot_ids = np.repeat(np.arange(len(slots)), self.slot_sizes)
        self.slot_of = slot_ids[np.argsort(self.slot_cols)]
        self.group_keys = tuple(groups)
        self.group_sizes = np.array(sizes, dtype=np.int64)
        self.group_cols = np.array([i for c in cols for i in c], dtype=np.intp)
        self.group_of = np.repeat(np.arange(len(sizes)), self.group_sizes)
        self.group_pos = np.array([p for k in sizes for p in range(k)], dtype=np.intp)
        # One (groups, k) block of columns per distinct group size k.
        by_size = [[g for g, k in enumerate(sizes) if k == n] for n in sorted(set(sizes))]
        self._blocks = tuple(np.array([cols[g] for g in gs], dtype=np.intp) for gs in by_size)
        self._block_order = np.argsort([g for gs in by_size for g in gs])
        for a in [*vars(self).values(), *self._blocks]:
            if isinstance(a, np.ndarray):
                a.flags.writeable = False

    def per_group(self, X: np.ndarray, reduce) -> np.ndarray:
        """`reduce(block, axis=2)` over each one-hot group's columns of X,
        as an (n, groups) array. One call per distinct group size reduces
        each group exactly as `X[:, cols]` alone would; zero-padding to the
        widest group would regroup numpy's pairwise sums from 8 columns on.
        """
        parts = [reduce(X[:, cols], axis=2) for cols in self._blocks]
        return np.concatenate(parts, axis=1)[:, self._block_order] if parts else X[:, :0]

    @property
    def n_features(self) -> int:
        return len(self.features)

    @property
    def names(self) -> list[str]:
        return list(self._index)

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

    @classmethod
    def generic(cls, n_features: int) -> "DatasetSchema":
        """Schema of n unconstrained continuous features named F0..F{n-1}."""
        return cls(
            [FeatureMetadata(name=f"F{i}", min=-np.inf, max=np.inf) for i in range(n_features)]
        )

    def to_dict(self) -> dict:
        feats = [
            {k: v for k, v in asdict(f).items() if k != "onehot_group" or v is not None}
            for f in self.features
        ]
        return {"features": feats, "critical_class": self.critical_class}

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSchema":
        feats = []
        for i, f in enumerate(json_field(d, "features", list, "schema")):
            what = f"schema feature {i}"
            feats.append(FeatureMetadata(
                json_field(f, "name", str, what),
                json_field(f, "kind", str, what, "continuous"),
                _json_bound(f, "min", what),
                _json_bound(f, "max", what),
                json_field(f, "mutable", bool, what, True),
                json_field(f, "onehot_group", (int, str, type(None)), what, None),
            ))
        return cls(feats, critical_class=json_field(d, "critical_class", int, "schema", 1))

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
        y = np.asarray(self.y, dtype=float)
        if self.X.ndim != 2:
            raise DataError("X must be a 2-d matrix")
        if y.shape != (self.X.shape[0],):
            raise DataError("y length must match X rows")
        bad = (y != 0) & (y != 1)
        if bad.any():
            raise DataError(f"labels must be binary, 0 or 1, got {float(y[bad][0])}")
        self.y = y.astype(int)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]


def _faults(
    X: np.ndarray, schema: DatasetSchema, slack: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The schema's per-cell rules over X: bad[row, column, (bounds,
    integrality)], with bounds widened by `slack` and NaN out of bounds,
    and each one-hot group's sums with whether they are off one. A NaN
    or infinite value is never integral, and a NaN sum is off one."""
    bad = np.zeros(X.shape + (2,), dtype=bool)
    bad[:, :, 0] = ~((X >= schema.lo - slack) & (X <= schema.hi + slack))
    typed = X[:, schema.typed]
    bad[:, schema.typed, 1] = ~(np.abs(typed - np.round(typed)) <= 1e-9)
    sums = schema.per_group(X, np.sum)
    return bad, sums, ~(np.abs(sums - 1.0) <= 1e-9)


def fits_schema(X: np.ndarray, schema: DatasetSchema, slack: float) -> np.ndarray:
    """Row mask: True where no value breaks the schema's integrality and
    one-hot rules or its bounds widened by `slack`; at slack 0, where
    `validate_against_schema` finds no fault."""
    bad, _, off = _faults(X, schema, slack)
    return ~bad.any(axis=(1, 2)) & ~off.any(axis=1)


def validate_against_schema(X: np.ndarray, schema: DatasetSchema) -> None:
    """Bounds, integrality, and one-hot exclusivity checks.

    Errors name the first offending row and column: column by column,
    bounds before integrality, then the one-hot groups in order. NaN is
    out of bounds.
    """
    if X.shape[1] != schema.n_features:
        raise DataError(f"matrix has {X.shape[1]} columns, schema has {schema.n_features}")
    bad, sums, off = _faults(X, schema, 0.0)
    first = np.flatnonzero(bad.any(axis=0))
    if first.size:
        j, integral = divmod(int(first[0]), 2)
        i = np.flatnonzero(bad[:, j, integral])[0]
        f = schema.features[j]
        what = "is not integral" if integral else f"outside [{f.min}, {f.max}]"
        raise DataError(f"row {i}, column {f.name!r}: value {X[i, j]!r} {what}")
    if off.any():
        g = np.flatnonzero(off.any(axis=0))[0]
        i = np.flatnonzero(off[:, g])[0]
        raise DataError(
            f"row {i}: one-hot group {schema.group_keys[g]!r} sums to {sums[i, g]!r}, "
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
    try:
        dataset = Dataset(arr[:, :-1], arr[:, -1])
    except DataError as e:
        raise DataError(f"{csv_path}: {e}") from None
    validate_against_schema(dataset.X, schema)
    return dataset, schema


def save_dataset(
    dataset: Dataset, schema: DatasetSchema, csv_path: Union[str, Path]
) -> None:
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.names + ["label"])
        for x, label in zip(dataset.X, dataset.y):
            writer.writerow([repr(float(v)) for v in x] + [int(label)])


@dataclass(frozen=True, eq=False)
class MinMaxScaler:
    """Per-feature linear map to [0, 1]: `(X - min_) / width_`.

    Built from finite bounds (`from_bounds`, `from_schema`) or a saved
    checkpoint (`from_dict`). Constant features (zero width) map to 0;
    the width is clamped to 1 so transform/inverse stay finite.
    """

    min_: np.ndarray
    width_: np.ndarray

    @classmethod
    def from_bounds(cls, lo: np.ndarray, hi: np.ndarray) -> "MinMaxScaler":
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise DataError("scaler bounds must be finite")
        if np.any(hi < lo):
            raise DataError("scaler bounds must satisfy min <= max")
        width = hi - lo
        return cls(lo, np.where(width > 0, width, 1.0))

    @classmethod
    def from_schema(cls, schema: DatasetSchema) -> "MinMaxScaler":
        return cls.from_bounds(schema.lo, schema.hi)

    def transform(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.min_) / self.width_

    def inverse_transform(self, Z: np.ndarray) -> np.ndarray:
        return np.asarray(Z, dtype=float) * self.width_ + self.min_

    def to_dict(self) -> dict:
        return {"min": self.min_.tolist(), "width": self.width_.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "MinMaxScaler":
        min_, width = (json_array(json_field(d, k, list, "scaler"), 1, f"scaler field {k!r}")
                       for k in ("min", "width"))
        if np.any(width <= 0):
            raise DataError("scaler field 'width' must be positive")
        return cls(min_, width)
