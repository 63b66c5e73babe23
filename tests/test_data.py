"""Schema handling, dataset ingestion, and min-max scaling."""

import re

import numpy as np
import pytest

from tabrobust.data import (
    DataError,
    Dataset,
    DatasetSchema,
    FeatureMetadata,
    MinMaxScaler,
    fits_schema,
    is_finite_number,
    load_dataset,
    save_dataset,
    validate_against_schema,
)


def small_schema():
    return DatasetSchema(
        [
            FeatureMetadata("a", "continuous", 0.0, 10.0),
            FeatureMetadata("b", "continuous", -1.0, 1.0, mutable=False),
            FeatureMetadata("c", "integer", 0.0, 5.0),
        ],
        critical_class=1,
    )


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(DataError, match="unique"):
            DatasetSchema([FeatureMetadata("x"), FeatureMetadata("x")])

    def test_resolve_declared_and_canonical(self):
        schema = small_schema()
        assert schema.resolve("b") == 1
        assert schema.resolve("F2") == 2
        with pytest.raises(KeyError):
            schema.resolve("F9")

    def test_masks(self):
        schema = small_schema()
        assert schema.mutable.tolist() == [True, False, True]
        assert schema.integer.tolist() == [False, False, True]

    def test_json_round_trip(self, tmp_path):
        schema = small_schema()
        path = tmp_path / "schema.json"
        schema.save(path)
        loaded = DatasetSchema.load(path)
        assert loaded.features == schema.features
        assert loaded.critical_class == schema.critical_class

    def test_onehot_groups(self):
        schema = DatasetSchema(
            [
                FeatureMetadata("x", "continuous", 0, 1),
                FeatureMetadata("c_a", "categorical", 0, 1, onehot_group="color"),
                FeatureMetadata("c_b", "categorical", 0, 1, onehot_group="color"),
            ]
        )
        assert schema.group_keys == ("color",)
        assert schema.group_cols.tolist() == [1, 2] and schema.group_sizes.tolist() == [2]

    def test_min_above_max_rejected(self):
        with pytest.raises(DataError, match="min"):
            FeatureMetadata("x", min=2.0, max=1.0)

    @pytest.mark.parametrize("lo,hi", [(np.nan, 1.0), (0.0, np.nan), (np.nan, np.nan)])
    def test_nan_bounds_rejected(self, lo, hi):
        with pytest.raises(DataError, match="min"):
            FeatureMetadata("x", min=lo, max=hi)
        with pytest.raises(DataError, match="min"):
            DatasetSchema.from_dict({"features": [{"name": "x", "min": lo, "max": hi}]})

    def test_infinite_bounds_accepted(self):
        schema = DatasetSchema.generic(2)
        assert schema.lo.tolist() == [-np.inf, -np.inf]
        assert FeatureMetadata("x", min=-np.inf, max=np.inf).max == np.inf

    @pytest.mark.parametrize("kind", ["continuous", "integer"])
    def test_onehot_group_only_on_categorical(self, kind):
        with pytest.raises(DataError, match="onehot_group"):
            FeatureMetadata("x", kind, 0, 1, onehot_group="g")
        with pytest.raises(DataError, match="onehot_group"):
            FeatureMetadata("x", "categorical", 0, 1)

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (0.5, 3.5),
            (0.0, 2.5),
            (np.nan, 3.0),
            (0.0, np.nan),
            (-np.inf, 3.0),
            (0.0, np.inf),
            (0.0, 1e300),
        ],
    )
    def test_integer_bounds_must_be_finite_integers(self, lo, hi):
        with pytest.raises(DataError, match="finite integer"):
            FeatureMetadata("k", "integer", lo, hi)
        with pytest.raises(DataError, match="finite integer"):
            DatasetSchema.from_dict(
                {"features": [{"name": "k", "kind": "integer", "min": lo, "max": hi}]}
            )

    @pytest.mark.parametrize("d,message", [
        ([], "schema must be a JSON object, got list"),
        ({"features": 3}, "schema field 'features' must be list, got int"),
        ({"features": [3]}, "schema feature 0 must be a JSON object, got int"),
        ({"features": [{"name": "x", "min": None, "max": 1}]},
         "schema feature 0 field 'min' must be int or float, got NoneType"),
        ({"features": [{"name": "x", "min": 0}]}, "schema feature 0 missing field 'max'"),
        ({"features": [{"name": 5, "min": 0, "max": 1}]},
         "schema feature 0 field 'name' must be str, got int"),
        ({"features": [{"name": "x", "kind": 1, "min": 0, "max": 1}]},
         "schema feature 0 field 'kind' must be str, got int"),
        ({"features": [{"name": "x", "min": 0, "max": 1, "mutable": "false"}]},
         "schema feature 0 field 'mutable' must be bool, got str"),
        ({"features": [{"name": "x", "kind": "categorical", "min": 0, "max": 1,
                        "onehot_group": True}]},
         "schema feature 0 field 'onehot_group' must be int or str or NoneType, got bool"),
        ({"features": [], "critical_class": "1"},
         "schema field 'critical_class' must be int, got str"),
        ({"features": [], "critical_class": 5}, "critical_class must be 0 or 1, got 5"),
        ({"features": [{"name": "x", "min": 0, "max": 10**400}]},
         "schema feature 0 field 'max' is an integer too large for a float"),
        ({"features": [{"name": "k", "kind": "integer", "min": -(10**400), "max": 0}]},
         "schema feature 0 field 'min' is an integer too large for a float"),
    ])
    def test_malformed_schema_names_the_field(self, d, message):
        with pytest.raises(DataError, match=re.escape(message)):
            DatasetSchema.from_dict(d)

    def test_from_dict_reads_typed_fields(self):
        schema = DatasetSchema.from_dict({"critical_class": 0, "features": [
            {"name": "x", "min": 0, "max": 2},
            {"name": "y", "min": -1.5, "max": 1, "mutable": False},
            {"name": "c", "kind": "categorical", "min": 0, "max": 1, "onehot_group": 3},
        ]})
        assert schema.critical_class == 0
        assert schema.mutable.tolist() == [True, False, True]
        assert [type(f.min) for f in schema.features] == [float] * 3
        assert schema.group_keys == (3,)

    def test_oversized_integer_bound_rejected(self):
        with pytest.raises(DataError, match="finite integer"):
            FeatureMetadata("k", "integer", 0, 10**400)

    def test_integer_bounds_accepted(self):
        assert FeatureMetadata("k", "integer", np.int64(1), 6).max == 6
        assert FeatureMetadata("k", "integer", -3.0, 2.0**53).min == -3.0
        # Only integer features are held to it.
        assert FeatureMetadata("x", "continuous", 0.5, np.inf).max == np.inf


class TestDataset:
    def test_non_binary_labels_rejected(self):
        with pytest.raises(DataError, match="binary"):
            Dataset(np.zeros((3, 2)), np.array([0, 1, 2]))

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            Dataset(np.zeros((3, 2)), np.array([0, 1]))

    def test_labels_must_be_exactly_zero_or_one(self):
        # Nothing is truncated to 0 or 1 before the check.
        for labels in ([0.7, 1.2], [0.0, 1.5], [1.0, float("nan")], [0, -1]):
            with pytest.raises(DataError, match="0 or 1"):
                Dataset(np.zeros((2, 1)), labels)
        data = Dataset(np.zeros((3, 1)), [1.0, 0.0, True])
        assert data.y.tolist() == [1, 0, 1] and data.y.dtype.kind == "i"


class TestValidation:
    def test_bounds_violation_names_row_and_column(self):
        X = np.array([[1.0, 0.0, 2.0], [11.0, 0.0, 1.0]])
        with pytest.raises(DataError, match=r"row 1, column 'a'"):
            validate_against_schema(X, small_schema())

    def test_non_integral_integer_rejected(self):
        X = np.array([[1.0, 0.0, 2.5]])
        with pytest.raises(DataError, match="not integral"):
            validate_against_schema(X, small_schema())

    @pytest.mark.parametrize("j,name", [(0, "a"), (1, "c"), (3, "g_b")])
    def test_nan_is_out_of_bounds(self, j, name):
        # NaN fails every comparison: it must still count as out of
        # bounds, in a continuous, an integer and a one-hot column.
        schema = DatasetSchema(
            [
                FeatureMetadata("a", "continuous", 0.0, 10.0),
                FeatureMetadata("c", "integer", 0.0, 5.0),
                FeatureMetadata("g_a", "categorical", 0, 1, onehot_group="g"),
                FeatureMetadata("g_b", "categorical", 0, 1, onehot_group="g"),
            ]
        )
        X = np.array([[1.0, 2.0, 1.0, 0.0], [3.0, 4.0, 0.0, 1.0]])
        validate_against_schema(X, schema)
        X[1, j] = np.nan
        with pytest.raises(DataError, match=rf"row 1, column '{name}': value \S*nan\S* outside"):
            validate_against_schema(X, schema)

    def test_fits_schema_marks_the_rows_validation_rejects(self):
        schema = DatasetSchema(
            [
                FeatureMetadata("a", "continuous", 0.0, 10.0),
                FeatureMetadata("c", "integer", 0.0, 5.0),
                FeatureMetadata("g_a", "categorical", 0, 1, onehot_group="g"),
                FeatureMetadata("g_b", "categorical", 0, 1, onehot_group="g"),
            ]
        )
        X = np.array(
            [
                [1.0, 2.0, 1.0, 0.0],
                [11.0, 2.0, 1.0, 0.0],  # out of bounds
                [1.0, 2.5, 1.0, 0.0],  # not integral
                [1.0, 2.0, 1.0, 1.0],  # two active group columns
                [np.nan, 2.0, 0.0, 1.0],
                [0.0, 5.0, 0.0, 1.0],
            ]
        )
        fits = fits_schema(X, schema, 0.0)
        assert fits.tolist() == [True, False, False, False, False, True]
        for row, ok in zip(X, fits):
            if ok:
                validate_against_schema(row[None], schema)
            else:
                with pytest.raises(DataError):
                    validate_against_schema(row[None], schema)
        # The slack widens the bounds only, both ways.
        near = np.array([[10.0 + 5e-10, 0.0, 1.0, 0.0], [-5e-10, 5.0, 0.0, 1.0]])
        assert fits_schema(near, schema, 1e-9).tolist() == [True, True]
        assert fits_schema(near, schema, 0.0).tolist() == [False, False]
        assert not fits_schema(X[2:5], schema, 1e-9).any()

    def test_onehot_exclusivity(self):
        schema = DatasetSchema(
            [
                FeatureMetadata("c_a", "categorical", 0, 1, onehot_group=0),
                FeatureMetadata("c_b", "categorical", 0, 1, onehot_group=0),
            ]
        )
        validate_against_schema(np.array([[1.0, 0.0]]), schema)
        with pytest.raises(DataError, match="one-hot"):
            validate_against_schema(np.array([[1.0, 1.0]]), schema)


class TestLoadDataset:
    def write(self, tmp_path, body):
        csv_path = tmp_path / "data.csv"
        csv_path.write_text(body)
        schema_path = tmp_path / "schema.json"
        small_schema().save(schema_path)
        return csv_path, schema_path

    def test_happy_path(self, tmp_path):
        csv_path, schema_path = self.write(
            tmp_path, "a,b,c,label\n1.0,0.5,2,1\n2.0,-0.5,0,0\n"
        )
        dataset, schema = load_dataset(csv_path, schema_path)
        assert dataset.n_rows == 2 and dataset.n_features == 3
        assert dataset.y.tolist() == [1, 0]

    def test_missing_column(self, tmp_path):
        csv_path, schema_path = self.write(tmp_path, "a,b,label\n1.0,0.5,1\n")
        with pytest.raises(DataError, match="missing columns"):
            load_dataset(csv_path, schema_path)

    def test_out_of_bounds_value_reports_row(self, tmp_path):
        csv_path, schema_path = self.write(
            tmp_path, "a,b,c,label\n1.0,0.5,2,1\n99.0,0.0,1,0\n"
        )
        with pytest.raises(DataError, match=r"row 1, column 'a'"):
            load_dataset(csv_path, schema_path)

    def test_nan_value_reports_row(self, tmp_path):
        csv_path, schema_path = self.write(
            tmp_path, "a,b,c,label\n1.0,0.5,2,1\n2.0,0.0,nan,0\n"
        )
        with pytest.raises(DataError, match=r"row 1, column 'c': value \S*nan\S* outside"):
            load_dataset(csv_path, schema_path)

    def test_empty_body(self, tmp_path):
        csv_path, schema_path = self.write(tmp_path, "a,b,c,label\n")
        with pytest.raises(DataError, match="no rows"):
            load_dataset(csv_path, schema_path)

    def test_non_binary_label(self, tmp_path):
        csv_path, schema_path = self.write(tmp_path, "a,b,c,label\n1.0,0.5,2,3\n")
        with pytest.raises(DataError, match="labels"):
            load_dataset(csv_path, schema_path)

    def test_fractional_label_names_the_file(self, tmp_path):
        csv_path, schema_path = self.write(tmp_path, "a,b,c,label\n1.0,0.5,2,0.5\n")
        with pytest.raises(DataError, match=r"data\.csv: labels must be binary, 0 or 1, got 0\.5"):
            load_dataset(csv_path, schema_path)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        X = np.column_stack(
            [rng.uniform(0, 10, 20), rng.uniform(-1, 1, 20), rng.integers(0, 6, 20)]
        ).astype(float)
        dataset = Dataset(X, rng.integers(0, 2, 20))
        schema = small_schema()
        save_dataset(dataset, schema, tmp_path / "data.csv")
        schema.save(tmp_path / "schema.json")
        loaded, _ = load_dataset(tmp_path / "data.csv", tmp_path / "schema.json")
        assert np.array_equal(loaded.X, dataset.X)
        assert np.array_equal(loaded.y, dataset.y)


class TestScaler:
    def test_midpoint_maps_to_half(self):
        s = MinMaxScaler.from_bounds([0.0], [10.0])
        assert s.transform(np.array([[5.0]]))[0, 0] == 0.5

    def test_constant_feature_maps_to_zero(self):
        s = MinMaxScaler.from_bounds([2.0], [2.0])
        assert s.transform(np.array([[2.0]]))[0, 0] == 0.0
        assert s.inverse_transform(np.array([[0.0]]))[0, 0] == 2.0

    def test_round_trip_within_1e9(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(-100, 100, (50, 4))
        s = MinMaxScaler.from_bounds(X.min(axis=0), X.max(axis=0))
        back = s.inverse_transform(s.transform(X))
        assert np.max(np.abs(back - X)) <= 1e-9

    def test_from_schema_bounds(self):
        s = MinMaxScaler.from_schema(small_schema())
        z = s.transform(np.array([[10.0, -1.0, 5.0]]))
        assert np.allclose(z, [[1.0, 0.0, 1.0]])

    @pytest.mark.parametrize("lo,hi", [(-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)])
    def test_non_finite_bounds_rejected(self, lo, hi):
        # An infinite width would map every value to NaN.
        with pytest.raises(DataError, match="finite"):
            MinMaxScaler.from_bounds([0.0, lo], [1.0, hi])

    def test_bounds_out_of_order_rejected(self):
        with pytest.raises(DataError, match="min <= max"):
            MinMaxScaler.from_bounds([0.0, 2.0], [1.0, 1.0])

    def test_infinite_schema_bounds_rejected(self):
        with pytest.raises(DataError, match="finite"):
            MinMaxScaler.from_schema(DatasetSchema.generic(2))


def test_is_finite_number():
    for value in (0, -3, 2.5, np.float32(1.5), np.int64(7), 10**300):
        assert is_finite_number(value), value
    for value in (10**400, -(10**400), np.inf, np.nan, True, "1", None):
        assert not is_finite_number(value), value
