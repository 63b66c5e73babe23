"""The schema's cached layout against the per-call code it replaced, in
`tests/reference_schema.py`: projections bit-identical, validity masks
identical, `validate_against_schema` raising the same messages, over
random schemas that mix continuous, integer and one-hot features. Also
that a schema's facts are built once and cannot be written."""

import numpy as np
import pytest
import reference_schema
from conftest import column_slots, onehot_groups
from hypothesis import given, settings
from hypothesis import strategies as st

from tabrobust.attacks import AttackBudget, caa, project, validity_mask
from tabrobust.data import (
    DataError,
    Dataset,
    DatasetSchema,
    FeatureMetadata,
    MinMaxScaler,
    validate_against_schema,
)
from tabrobust.defense import AugmentConfig, augment_dataset
from tabrobust.engine import PenaltyConfig
from tabrobust.expressions import ConstraintSet
from tabrobust.mlp import ReferenceModel
from tabrobust.parser import parse_constraint

CONTINUOUS_BOUNDS = [(0.0, 1.0), (-5.0, 5.0), (2.0, 2.0), (0.0, 100.0), (-1.5, 0.25)]


@st.composite
def schemas(draw):
    """Continuous and integer features and one-hot groups of 1-12
    columns, at least one of 8 or more, in shuffled column order, with
    immutable columns anywhere, inside groups too."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=4))
    if max(sizes) < 8:
        sizes[draw(st.integers(0, len(sizes) - 1))] = draw(st.integers(8, 12))
    kinds = ["continuous"] * draw(st.integers(0, 5)) + ["integer"] * draw(st.integers(0, 4))
    kinds += [g for g, k in enumerate(sizes) for _ in range(k)]
    kinds = draw(st.permutations(kinds))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    feats = []
    for i, kind in enumerate(kinds):
        mutable = bool(rng.random() < 0.75)
        if kind == "continuous":
            lo, hi = CONTINUOUS_BOUNDS[rng.integers(len(CONTINUOUS_BOUNDS))]
            feats.append(FeatureMetadata(f"c{i}", kind, lo, hi, mutable))
        elif kind == "integer":
            lo = int(rng.integers(-3, 4))
            hi = lo + int(rng.integers(0, 7))
            feats.append(FeatureMetadata(f"i{i}", kind, lo, hi, mutable))
        else:
            key = kind if kind % 2 else f"g{kind}"
            feats.append(FeatureMetadata(f"g{kind}_{i}", "categorical", 0, 1, mutable, key))
    return DatasetSchema(feats)


def onehot_rows(schema, rng, n):
    """Scaled rows in the box with every one-hot group one-hot."""
    Z = rng.uniform(0.0, 1.0, (n, schema.n_features))
    for cols in onehot_groups(schema):
        Z[:, cols] = np.eye(len(cols))[rng.integers(0, len(cols), n)]
    return Z


def perturb(schema, rng, Z):
    """Candidates around Z: noise, box overshoot, one-hot ties (group
    values from a coarse grid), near-integral group values and a NaN."""
    n, d = Z.shape
    C = Z + rng.normal(0.0, rng.choice([0.0, 0.05, 0.5]), (n, d))
    tied = rng.random(n) < 1 / 3
    for cols in onehot_groups(schema):
        C[np.ix_(tied, cols)] = rng.choice([0.0, 0.5, 1.0], (tied.sum(), len(cols)))
    near = rng.random(n) < 0.2
    cols = schema.group_cols
    noise = rng.uniform(-4e-10, 4e-10, (near.sum(), len(cols)))
    C[np.ix_(near, cols)] = Z[np.ix_(near, cols)] + noise
    if rng.random() < 0.2:
        C[rng.integers(n), rng.integers(d)] = np.nan
    return C


def scalers(schema, rng):
    lo, hi = schema.lo, schema.hi
    widths = np.where(rng.random(len(lo)) < 0.5, hi - lo, rng.uniform(0.5, 3.0, len(lo)))
    yield MinMaxScaler.from_schema(schema)
    yield MinMaxScaler.from_bounds(lo - rng.uniform(0, 1, len(lo)), lo + widths)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


def raised(fn, *args):
    try:
        fn(*args)
    except DataError as e:
        return str(e)
    return None


@settings(max_examples=120, deadline=None)
@given(schemas(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_project_and_validity_match_reference(schema, n, seed):
    rng = np.random.default_rng(seed)
    Z = onehot_rows(schema, rng, n)
    C = perturb(schema, rng, Z)
    budget = AttackBudget(
        eps=float(rng.choice([0.0, 0.05, 0.3, 1.0])), norm=str(rng.choice(["Linf", "L2"]))
    )
    a, b = rng.integers(0, schema.n_features, 2)
    cs = ConstraintSet([parse_constraint(f"F{a} <= F{b} + 0.5", schema)])
    cfg = PenaltyConfig()
    for scaler in scalers(schema, rng):
        for c, z in ((C, Z), (C[:1], Z[:1]), (C[0], Z[0])):
            with np.errstate(invalid="ignore"):
                new = project(c, z, budget, schema, scaler)
                ref = reference_schema.project(c, z, budget, schema, scaler)
            assert same_bits(new, ref)
            for cand in (c, new):
                for with_cs in (True, False):
                    with np.errstate(invalid="ignore"):
                        got = validity_mask(schema, scaler, cs, z, cand, budget, cfg, with_cs)
                        want = reference_schema.validity_mask(
                            schema, scaler, cs, z, cand, budget, cfg, with_cs
                        )
                    assert np.array_equal(got, want)


def raw_rows(schema, rng, n):
    """Raw rows in bounds, integral where typed and one-hot, a share of
    them with near-integral group values whose sums depend on the order
    of the additions; then a few broken cells or groups: out of bounds,
    fractional, or with two active columns or none."""
    lo, hi = schema.lo, schema.hi
    X = lo + rng.uniform(0.0, 1.0, (n, schema.n_features)) * (hi - lo)
    ints = schema.int_cols
    X[:, ints] = np.round(X[:, ints])
    X[:, schema.group_cols] = onehot_rows(schema, rng, n)[:, schema.group_cols]
    cols = schema.group_cols
    near = rng.random(n) < 0.3
    eps = rng.uniform(0.0, 4e-10, (near.sum(), len(cols)))
    X[np.ix_(near, cols)] = np.abs(X[np.ix_(near, cols)] - eps)
    groups = onehot_groups(schema)
    for _ in range(rng.integers(0, 4)):
        i, j = rng.integers(n), rng.integers(schema.n_features)
        how = rng.integers(4)
        if how == 0:
            X[i, j] = hi[j] + rng.choice([1e-12, 1.0])
        elif how == 1:
            X[i, j] = lo[j] + 0.5
        else:
            # A group with two active columns, or none, near-integral.
            group = groups[rng.integers(len(groups))]
            values = np.zeros(len(group))
            if how == 2:
                values[rng.permutation(len(group))[:2]] = 1.0
            X[i, group] = np.abs(values - rng.uniform(0.0, 4e-10, len(group)))
    return X


@settings(max_examples=150, deadline=None)
@given(schemas(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_validate_against_schema_matches_reference(schema, n, seed):
    rng = np.random.default_rng(seed)
    X = raw_rows(schema, rng, n)
    for x in (X, X[:1], np.asfortranarray(X)):
        assert raised(validate_against_schema, x, schema) == raised(
            reference_schema.validate_against_schema, x, schema
        )


@settings(max_examples=100, deadline=None)
@given(schemas(), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_layout_matches_reference(schema, n, seed):
    ref_groups = reference_schema.onehot_groups(schema)
    assert schema.group_keys == tuple(ref_groups)
    assert [c.tolist() for c in onehot_groups(schema)] == list(ref_groups.values())
    slots, ref = column_slots(schema), reference_schema.column_slots(schema)
    assert len(slots) == len(ref)
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(slots, ref))
    # Group sums and argmaxes, bit for bit against one group at a time.
    X = np.random.default_rng(seed).uniform(-1.0, 1.0, (n, schema.n_features)) ** 3
    groups = list(reference_schema.onehot_groups(schema).values())
    assert same_bits(
        schema.per_group(X, np.sum),
        np.column_stack([X[:, cols].sum(axis=1) for cols in groups]),
    )
    assert np.array_equal(
        schema.per_group(X, np.argmax),
        np.column_stack([X[:, cols].argmax(axis=1) for cols in groups]),
    )


class _Unreadable:
    """A feature list of the right length that cannot be read."""

    def __init__(self, n):
        self.n = n

    def __len__(self):
        return self.n

    def __iter__(self):
        raise AssertionError("features read after the schema was built")

    def __getitem__(self, i):
        raise AssertionError("features read after the schema was built")


def guarded_setup():
    schema = DatasetSchema([
        FeatureMetadata("a", "continuous", 0.0, 10.0),
        FeatureMetadata("b", "continuous", 0.0, 10.0),
        FeatureMetadata("s", "continuous", 0.0, 20.0),
        FeatureMetadata("n", "integer", 0, 5),
        FeatureMetadata("imm", "continuous", 0.0, 1.0, mutable=False),
        FeatureMetadata("g_0", "categorical", 0, 1, onehot_group="g"),
        FeatureMetadata("g_1", "categorical", 0, 1, onehot_group="g"),
        FeatureMetadata("g_2", "categorical", 0, 1, onehot_group="g", mutable=False),
        FeatureMetadata("h_0", "categorical", 0, 1, onehot_group="h"),
        FeatureMetadata("h_1", "categorical", 0, 1, onehot_group="h"),
    ])
    cs = ConstraintSet([parse_constraint("s == a + b", schema)])
    rng = np.random.default_rng(0)
    n = 40
    X = np.zeros((n, schema.n_features))
    X[:, :2] = rng.uniform(0, 10, (n, 2))
    X[:, 2] = X[:, 0] + X[:, 1]
    X[:, 3] = rng.integers(0, 6, n)
    X[:, 4] = rng.uniform(0, 1, n)
    X[np.arange(n), 5 + rng.integers(0, 3, n)] = 1.0
    X[np.arange(n), 8 + rng.integers(0, 2, n)] = 1.0
    y = (X[:, 0] > X[:, 1]).astype(int)
    validate_against_schema(X, schema)
    return schema, cs, Dataset(X, y)


def test_facts_are_built_once():
    schema, cs, data = guarded_setup()
    scaler = MinMaxScaler.from_schema(schema)
    model = ReferenceModel(schema.n_features, hidden=(8,), seed=0, scaler=scaler)
    Z = model.scaler.transform(data.X[:6])
    budget = AttackBudget(eps=0.3, n_iter_gradient=5, n_gen=3, n_pop=10, n_off=8, seed=1)
    schema.features = _Unreadable(schema.n_features)
    result = caa(model, cs, Z, data.y[:6], budget, schema)
    assert len(result.samples) == 6
    augmented = augment_dataset(data, schema, cs, AugmentConfig(ratio=0.5, seed=3))
    assert augmented.n_rows == 60


def test_cached_arrays_are_read_only():
    schema, _, _ = guarded_setup()
    arrays = [schema.lo, schema.hi, schema.mutable, schema.integer, *column_slots(schema)]
    arrays += [v for v in vars(schema).values() if isinstance(v, np.ndarray)]
    arrays += list(schema._blocks)
    assert len(arrays) >= 20
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0
    assert schema.lo[0] == 0.0
    assert isinstance(schema.features, tuple)
