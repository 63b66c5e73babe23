"""Cutmix augmentation and adversarial training."""

import numpy as np
import pytest

from tabrobust import defense
from tabrobust.attacks import AttackBudget
from tabrobust.data import (
    DataError,
    Dataset,
    DatasetSchema,
    FeatureMetadata,
    fits_schema,
    validate_against_schema,
)
from tabrobust.defense import (
    ATConfig,
    AugmentConfig,
    adversarial_train,
    augment_dataset,
    cutmix_tabular,
)
from tabrobust.engine import assignment_fix_rules, check, fix
from tabrobust.expressions import ConstraintSet
from tabrobust.parser import parse_constraint
from tabrobust.mlp import ReferenceModel, TrainConfig, train
from tabrobust.synth import SyntheticSpec, generate_synthetic


@pytest.fixture(scope="module")
def bench():
    dataset, schema, cs = generate_synthetic(SyntheticSpec(n_rows=800), seed=4)
    return dataset, schema, cs


def replay_cutmix(X, y, count, rng, schema, cs):
    """The same draws as `cutmix_tabular`, mixed and repaired one row at
    a time the way the per-pair loop did: `np.where` over the slot mask,
    then `check`, `fix` and `check` again on the single row."""
    pairs = rng.integers(0, len(X), (count, 2))
    p = rng.uniform(0.0, 1.0, count)
    draws = rng.random((count, len(schema.slot_sizes)))
    rules = assignment_fix_rules(cs, schema.mutable)
    rows, labels = [], []
    for (i, j), p_k, draw in zip(pairs, p, draws):
        mask = (draw < p_k)[schema.slot_of]
        x = np.where(mask, X[i], X[j])
        label = y[i] if mask.mean() >= 0.5 else y[j]
        if not check(cs, x):
            if rules:
                x = fix(rules, x)
            if not check(cs, x):
                continue
        if fits_schema(x[None], schema, 0.0)[0]:
            rows.append(x)
            labels.append(label)
    return np.array(rows).reshape(-1, X.shape[1]), np.array(labels, dtype=int)


def sum_schema():
    """F0, F1, F2 in [0, 1] under F0 == F1 + F2, with 200 valid rows:
    repairing a mixture can set F0 above 1."""
    schema = DatasetSchema([FeatureMetadata(f"F{i}", "continuous", 0, 1) for i in range(3)])
    cs = ConstraintSet([parse_constraint("F0 == F1 + F2", schema)])
    rng = np.random.default_rng(0)
    F1 = rng.uniform(0, 1, 200)
    F2 = rng.uniform(0, 1, 200) * (1 - F1)
    X = np.column_stack([F1 + F2, F1, F2])
    return Dataset(X, (F1 > F2).astype(int)), schema, cs


class TestMixWithMask:
    """The per-slot mask mixing inside the block `cutmix_tabular`."""

    @staticmethod
    def zeros_and_ones():
        # Two parents over five one-column slots, 0s labelled 1 and 1s
        # labelled 0: with an odd width the label is the majority value.
        schema = DatasetSchema([FeatureMetadata(f"F{i}") for i in range(5)])
        X = np.array([np.zeros(5), np.ones(5)])
        return cutmix_tabular(
            X, np.array([1, 0]), 500, np.random.default_rng(2), schema, ConstraintSet()
        )

    def test_all_from_first_parent(self):
        out, y = self.zeros_and_ones()
        copies = (out == 0).all(axis=1) | (out == 1).all(axis=1)
        assert {0.0, 5.0} <= set(out[copies].sum(axis=1).tolist())
        assert np.array_equal(y[copies], (out[copies, 0] == 0).astype(int))

    def test_identical_parents(self):
        schema = DatasetSchema([FeatureMetadata(f"F{i}", "continuous", 0, 5) for i in range(3)])
        xa = np.array([1.0, 2.0, 3.0])
        out, _ = cutmix_tabular(
            np.tile(xa, (4, 1)), np.array([0, 1, 0, 1]), 50, np.random.default_rng(3),
            schema, ConstraintSet(),
        )
        assert len(out) == 50
        assert (out == xa).all()

    def test_label_follows_majority(self):
        out, y = self.zeros_and_ones()
        assert len(out) == 500
        assert np.array_equal(y, (out.sum(axis=1) < 2.5).astype(int))


class TestCutmix:
    def test_mixtures_pass_checker(self, bench):
        dataset, schema, cs = bench
        X, y = cutmix_tabular(dataset.X, dataset.y, 1000, np.random.default_rng(0), schema, cs)
        assert len(X) >= 900
        assert check(cs, X).all()
        validate_against_schema(X, schema)
        assert set(y.tolist()) <= {0, 1}

    def test_onehot_groups_move_whole(self):
        schema = DatasetSchema(
            [
                FeatureMetadata("x", "continuous", 0, 1),
                FeatureMetadata("g_a", "categorical", 0, 1, onehot_group="g"),
                FeatureMetadata("g_b", "categorical", 0, 1, onehot_group="g"),
            ]
        )
        X = np.array([[0.2, 1.0, 0.0], [0.8, 0.0, 1.0]])
        out, _ = cutmix_tabular(
            X, np.array([0, 1]), 50, np.random.default_rng(1), schema, ConstraintSet()
        )
        assert len(out) == 50
        assert {tuple(r) for r in out[:, 1:].tolist()} == {(1.0, 0.0), (0.0, 1.0)}
        assert set(out[:, 0].tolist()) == {0.2, 0.8}

    @pytest.mark.parametrize("make", ["bench", "sum"])
    def test_block_matches_per_row_replay(self, bench, make):
        dataset, schema, cs = bench if make == "bench" else sum_schema()
        for seed in range(3):
            got = cutmix_tabular(
                dataset.X, dataset.y, 300, np.random.default_rng(seed), schema, cs
            )
            want = replay_cutmix(
                dataset.X, dataset.y, 300, np.random.default_rng(seed), schema, cs
            )
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert 0 < len(got[0]) < 300  # both outcomes occur

    def test_block_makes_two_checks_and_one_fix(self, bench, monkeypatch):
        dataset, schema, cs = bench
        calls = {"check": 0, "fix": 0, "cutmix_tabular": 0}

        def counting(name):
            inner = getattr(defense, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(defense, name, wrapper)

        for name in calls:
            counting(name)
        augment_dataset(dataset, schema, cs, AugmentConfig(ratio=0.25, seed=3))
        blocks = calls["cutmix_tabular"]
        assert blocks >= 1
        assert calls["check"] <= 2 * blocks and calls["fix"] <= blocks
        assert calls["fix"] >= 1  # the bench set needs repairs

    def test_augment_dataset_appends_valid_rows(self, bench):
        dataset, schema, cs = bench
        config = AugmentConfig(method="cutmix", ratio=0.25, seed=3)
        augmented = augment_dataset(dataset, schema, cs, config)
        added = augmented.n_rows - dataset.n_rows
        assert added == int(round(0.25 * dataset.n_rows))
        assert check(cs, augmented.X[dataset.n_rows :]).all()
        validate_against_schema(augmented.X[dataset.n_rows :], schema)
        assert np.array_equal(augmented.X[: dataset.n_rows], dataset.X)
        again = augment_dataset(dataset, schema, cs, config)
        assert np.array_equal(again.X, augmented.X) and np.array_equal(again.y, augmented.y)

    def test_repaired_rows_stay_in_bounds(self):
        # Repair sets F0 = F1 + F2, which can exceed F0's upper bound of 1.
        dataset, schema, cs = sum_schema()
        augmented = augment_dataset(dataset, schema, cs, AugmentConfig(ratio=0.5, seed=1))
        new = augmented.X[dataset.n_rows :]
        assert len(new) == 100
        validate_against_schema(new, schema)
        assert check(cs, new).all()

    def test_short_of_target_warns(self, caplog):
        # No row in [0, 1]^2 satisfies F0 <= F1 - 2, and no rule repairs it.
        schema = DatasetSchema([FeatureMetadata(f"F{i}", "continuous", 0, 1) for i in range(2)])
        cs = ConstraintSet([parse_constraint("F0 <= F1 - 2", schema)])
        dataset = Dataset(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([0, 1]))
        with caplog.at_level("WARNING"):
            out = augment_dataset(dataset, schema, cs, AugmentConfig(ratio=1.0, seed=0))
        assert out is dataset
        assert any("produced 0/2 rows" in m for m in caplog.messages)

    def test_none_method_is_identity(self, bench):
        dataset, schema, cs = bench
        out = augment_dataset(dataset, schema, cs, AugmentConfig(method="none"))
        assert out is dataset

    @pytest.mark.parametrize("ratio", [float("nan"), float("inf"), -0.5])
    def test_ratio_must_be_finite_and_nonnegative(self, ratio):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            AugmentConfig(ratio=ratio)


def test_negative_augment_seed_rejected():
    for seed in (-1, np.int64(-3)):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*63 - 1\]"):
            AugmentConfig(seed=seed)


@pytest.mark.parametrize("config, field", [
    (AugmentConfig, "ratio"),
    (AugmentConfig, "seed"),
    (ATConfig, "replay_fraction"),
    (SyntheticSpec, "n_rows"),
    (SyntheticSpec, "n_features"),
    (SyntheticSpec, "label_noise"),
])
def test_config_fields_are_type_checked(config, field):
    # Bools and strings are never numbers; a count field takes no float
    # and no integer past numpy's 64-bit range, and a real field no
    # integer past float's range.
    counts = ("seed", "n_rows", "n_features")
    for value in (True, "0.5", None,
                  *((10.5, 7.0, 2**63, 10**400) if field in counts else (10**400,))):
        with pytest.raises(ValueError, match=field):
            config(**{field: value})
    config(**{field: np.int64(7) if field in counts else np.float64(0.5)})


class TestAdversarialTrain:
    def test_invalid_row_rejected_at_entry(self):
        # One broken row among 400 trained without an error; a batch of
        # them failed an assert that `python -O` strips.
        dataset, schema, cs = generate_synthetic(SyntheticSpec(n_rows=400), seed=4)
        X = dataset.X.copy()
        X[3, 0] += 1.0  # breaks F0 == F1 + F2
        model = ReferenceModel(schema.n_features, seed=0)
        with pytest.raises(DataError, match="^row 3 violates the constraints$"):
            adversarial_train(model, Dataset(X, dataset.y), cs, ATConfig(),
                              TrainConfig(epochs=1), schema)

    def test_zero_inner_eps_equals_standard_training(self, bench):
        dataset, schema, cs = bench
        tc = TrainConfig(epochs=3, seed=5)
        at = ATConfig(inner_budget=AttackBudget(eps=0.0, n_iter_gradient=5))

        plain = ReferenceModel(schema.n_features, seed=5)
        plain, _ = train(plain, dataset, tc, schema=schema)

        robust = ReferenceModel(schema.n_features, seed=5)
        robust, _ = adversarial_train(robust, dataset, cs, at, tc, schema)

        for a, b in zip(plain.get_params(), robust.get_params()):
            assert np.array_equal(a, b)

    def test_full_replay_is_pure_clean_training(self, bench):
        dataset, schema, cs = bench
        tc = TrainConfig(epochs=3, seed=6)
        at = ATConfig(
            inner_budget=AttackBudget(eps=0.5, n_iter_gradient=5),
            replay_fraction=1.0,
        )
        plain = ReferenceModel(schema.n_features, seed=6)
        plain, _ = train(plain, dataset, tc, schema=schema)
        robust = ReferenceModel(schema.n_features, seed=6)
        robust, _ = adversarial_train(robust, dataset, cs, at, tc, schema)
        for a, b in zip(plain.get_params(), robust.get_params()):
            assert np.array_equal(a, b)

    def test_deterministic_under_seed(self, bench):
        dataset, schema, cs = bench
        tc = TrainConfig(epochs=2, seed=7)
        at = ATConfig(inner_budget=AttackBudget(eps=0.3, n_iter_gradient=3, seed=7))
        params = []
        for _ in range(2):
            model = ReferenceModel(schema.n_features, seed=7)
            model, _ = adversarial_train(model, dataset, cs, at, tc, schema)
            params.append(model.get_params())
        for a, b in zip(*params):
            assert np.array_equal(a, b)
