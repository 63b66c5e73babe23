"""Reference model: gradients, training, determinism, checkpoints."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from conftest import gradients_close
from tabrobust.data import DataError, Dataset, DatasetSchema, FeatureMetadata, MinMaxScaler
from tabrobust.mlp import (
    ReferenceModel,
    TrainConfig,
    TrainingDiverged,
    misclassified,
    stratified_split,
    train,
)


def toy_dataset(n=400, seed=0):
    """Linearly separable two-feature data with a clear margin."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (2 * n, 2))
    X = X[np.abs(X.sum(axis=1) - 1.0) > 0.05][:n]
    y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
    return Dataset(X, y)


def toy_schema():
    return DatasetSchema(
        [
            FeatureMetadata("u", "continuous", 0.0, 1.0),
            FeatureMetadata("v", "continuous", 0.0, 1.0),
        ]
    )


def test_misclassified_is_argmax_against_the_label_with_ties_to_class_zero():
    probs = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.1], [0.2, 0.8], [0.4, 0.6], [0.7, 0.3]])
    y = np.array([1, 0, 0, 1, 0, 1])
    assert misclassified(probs, y).tolist() == [True, False, False, False, True, True]


class TestForward:
    def test_probabilities_sum_to_one(self):
        model = ReferenceModel(4, seed=0)
        Z = np.random.default_rng(1).uniform(0, 1, (20, 4))
        probs = model.predict_proba_scaled(Z)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
        assert np.all(probs >= 0)

    def test_deterministic_output(self):
        model = ReferenceModel(3, seed=5)
        Z = np.random.default_rng(2).uniform(0, 1, (5, 3))
        assert np.array_equal(
            model.predict_proba_scaled(Z), model.predict_proba_scaled(Z)
        )

    def test_raw_and_scaled_predictions_agree(self):
        schema = toy_schema()
        model = ReferenceModel(2, seed=0, scaler=MinMaxScaler.from_schema(schema))
        X = np.random.default_rng(3).uniform(0, 1, (10, 2))
        via_raw = model.predict_proba(X)
        via_scaled = model.predict_proba_scaled(model.scaler.transform(X))
        assert np.array_equal(via_raw, via_scaled)


class TestGradients:
    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        model = ReferenceModel(5, hidden=(8, 6), seed=1)
        for _ in range(50):
            z = rng.uniform(0.05, 0.95, 5)
            y = int(rng.integers(0, 2))
            g = model.input_gradient(z[None, :], np.array([y]))[0]
            fd = np.zeros(5)
            h = 1e-5
            for i in range(5):
                zp, zm = z.copy(), z.copy()
                zp[i] += h
                zm[i] -= h
                lp = -np.log(model.predict_proba_scaled(zp[None, :])[0, y])
                lm = -np.log(model.predict_proba_scaled(zm[None, :])[0, y])
                fd[i] = (lp - lm) / (2 * h)
            assert gradients_close(g, fd)

    def test_weight_gradients_match_finite_differences(self):
        rng = np.random.default_rng(5)
        model = ReferenceModel(3, hidden=(4,), seed=2)
        Z = rng.uniform(0, 1, (6, 3))
        y = rng.integers(0, 2, 6)
        _, gw, gb, _ = model.loss_and_gradients(Z, y)

        def loss():
            probs = model.predict_proba_scaled(Z)
            return float(-np.mean(np.log(probs[np.arange(6), y] + 1e-12)))

        h = 1e-6
        for li, gmat in enumerate(gw):
            flat = model.weights[li]
            for idx in [(0, 0), (0, 1), (flat.shape[0] - 1, flat.shape[1] - 1)]:
                orig = flat[idx]
                flat[idx] = orig + h
                lp = loss()
                flat[idx] = orig - h
                lm = loss()
                flat[idx] = orig
                fd = (lp - lm) / (2 * h)
                assert abs(fd - gmat[idx]) <= 1e-4 * max(1.0, abs(fd), abs(gmat[idx]))
        for li, gvec in enumerate(gb):
            orig = model.biases[li][0]
            model.biases[li][0] = orig + h
            lp = loss()
            model.biases[li][0] = orig - h
            lm = loss()
            model.biases[li][0] = orig
            fd = (lp - lm) / (2 * h)
            assert abs(fd - gvec[0]) <= 1e-4 * max(1.0, abs(fd), abs(gvec[0]))

    def test_zeroed_model_has_zero_input_gradient(self):
        model = ReferenceModel(3, seed=0)
        for w in model.weights:
            w[:] = 0.0
        g = model.input_gradient(np.array([[0.3, 0.3, 0.3]]), np.array([1]))
        assert np.allclose(g, 0.0)


class TestTrain:
    def test_separable_toy_reaches_high_accuracy(self):
        dataset = toy_dataset()
        cfg = TrainConfig(epochs=50, batch_size=32, learning_rate=1e-2, seed=0)
        model = ReferenceModel(2, hidden=(16, 8), seed=0)
        model, history = train(model, dataset, cfg, schema=toy_schema())
        acc = (model.predict(dataset.X) == dataset.y).mean()
        assert acc >= 0.99
        assert len(history.epochs) == 50

    def test_zero_epochs_returns_initial_weights(self):
        dataset = toy_dataset()
        model = ReferenceModel(2, seed=3)
        before = model.get_params()
        model, history = train(
            model, dataset, TrainConfig(epochs=0, seed=0), schema=toy_schema()
        )
        after = model.get_params()
        assert all(np.array_equal(a, b) for a, b in zip(before, after))
        assert history.epochs == []

    def test_fixed_seed_reproduces_weights(self):
        dataset = toy_dataset()
        cfg = TrainConfig(epochs=5, seed=11)
        runs = []
        for _ in range(2):
            model = ReferenceModel(2, seed=11)
            model, _ = train(model, dataset, cfg, schema=toy_schema())
            runs.append(model.get_params())
        assert all(np.array_equal(a, b) for a, b in zip(*runs))

    def test_divergence_aborts_with_message(self):
        dataset = toy_dataset()
        model = ReferenceModel(2, seed=0)
        model.weights[0][0, 0] = np.nan
        with pytest.raises(TrainingDiverged, match="non-finite"):
            train(model, dataset, TrainConfig(epochs=2, seed=0), schema=toy_schema())

    def test_best_validation_weights_retained(self):
        dataset = toy_dataset()
        cfg = TrainConfig(epochs=8, seed=1)
        model = ReferenceModel(2, seed=1)
        model, history = train(model, dataset, cfg, schema=toy_schema())
        assert history.best_epoch >= 0
        assert history.best_val_auc == max(e.val_auc for e in history.epochs)

    def test_one_validation_forward_pass_per_epoch(self, monkeypatch):
        # Batch steps aside, each epoch runs the network once, over the
        # validation split only.
        dataset = toy_dataset()
        cfg = TrainConfig(epochs=3, batch_size=64, seed=2)
        _, val_idx = stratified_split(
            dataset.y, cfg.validation_fraction, np.random.default_rng(cfg.seed)
        )
        n_train = dataset.n_rows - len(val_idx)
        starts = range(0, n_train, cfg.batch_size)
        batches = [min(cfg.batch_size, n_train - s) for s in starts]
        rows = []
        forward = ReferenceModel._forward

        def counting_forward(self, Z):
            rows.append(len(Z))
            return forward(self, Z)

        monkeypatch.setattr(ReferenceModel, "_forward", counting_forward)
        train(ReferenceModel(2, seed=2), dataset, cfg, schema=toy_schema())
        assert rows == (batches + [len(val_idx)]) * cfg.epochs

    def test_stratified_split_preserves_classes(self):
        y = np.array([0] * 80 + [1] * 20)
        rng = np.random.default_rng(0)
        train_idx, val_idx = stratified_split(y, 0.25, rng)
        assert len(np.intersect1d(train_idx, val_idx)) == 0
        assert len(train_idx) + len(val_idx) == 100
        assert set(y[val_idx]) == {0, 1}
        assert np.sum(y[val_idx] == 1) == 5


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0,
                                    pytest.param(10**400, id="10**400")])
    def test_learning_rate_must_be_finite_and_positive(self, lr):
        with pytest.raises(ValueError, match="learning rate must be finite"):
            TrainConfig(learning_rate=lr)

    @pytest.mark.parametrize("kwargs,message", [
        ({"epochs": "5"}, "epochs must be an integer"),
        ({"epochs": 1.5}, "epochs must be an integer"),
        ({"batch_size": 0.5}, "batch_size must be an integer"),
        ({"seed": True}, "seed must be an integer"),
        ({"learning_rate": "0.01"}, "learning_rate must be a real number"),
        ({"adam_beta1": None}, "adam_beta1 must be a real number"),
        ({"validation_fraction": "0.2"}, "validation_fraction must be a real number"),
        ({"adam_beta1": 1.0}, r"adam_beta1 must be in \[0, 1\)"),
        ({"adam_beta1": -0.1}, r"adam_beta1 must be in \[0, 1\)"),
        ({"adam_beta2": float("nan")}, r"adam_beta2 must be in \[0, 1\)"),
        ({"adam_eps": 0.0}, "adam_eps must be finite and positive"),
        ({"adam_eps": float("inf")}, "adam_eps must be finite and positive"),
        ({"adam_eps": 10**400}, "adam_eps must be finite and positive"),
        ({"epochs": 10**400}, r"epochs must be an integer in \[0, 2\*\*63 - 1\]"),
        ({"batch_size": 2**63}, r"batch_size must be an integer in \[1, 2\*\*63 - 1\]"),
        ({"batch_size": 0}, r"batch_size must be an integer in \[1, 2\*\*63 - 1\], got 0"),
        ({"seed": 2**63}, r"seed must be an integer in \[0, 2\*\*63 - 1\]"),
    ])
    def test_field_types_checked(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            TrainConfig(**kwargs)

    def test_accepts_numpy_numbers(self):
        cfg = TrainConfig(epochs=np.int64(2), seed=np.uint32(3), learning_rate=np.float32(0.01))
        assert cfg.epochs == 2 and cfg.seed == 3

    def test_negative_seed_rejected(self):
        # numpy's generator would refuse it later without naming the field.
        for seed in (-1, np.int64(-3)):
            with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*63 - 1\]"):
                TrainConfig(seed=seed)


class TestCheckpoint:
    def test_save_load_round_trip(self, tmp_path):
        schema = toy_schema()
        model = ReferenceModel(2, seed=0, scaler=MinMaxScaler.from_schema(schema))
        path = tmp_path / "model.json"
        model.save(path)
        loaded = ReferenceModel.load(path)
        Z = np.random.default_rng(0).uniform(0, 1, (5, 2))
        assert np.array_equal(
            model.predict_proba_scaled(Z), loaded.predict_proba_scaled(Z)
        )
        assert np.array_equal(loaded.scaler.min_, model.scaler.min_)

    def test_layer_shapes_checked_before_any_layer_is_built(self, tmp_path):
        # A file claiming a million hidden units over two features fails
        # on its shapes without allocating the claimed layers (16 MB each).
        model = ReferenceModel(2, hidden=(3,), seed=0,
                               scaler=MinMaxScaler.from_schema(toy_schema()))
        path = tmp_path / "model.json"
        model.save(path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, "hidden": [10**6]}))
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match=re.escape("must have shapes [(2, 1000000)")):
                ReferenceModel.load(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_missing_field_is_named(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": 1}')
        with pytest.raises(DataError, match="model missing field 'n_features'"):
            ReferenceModel.load(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text('{"version": 99}')
        with pytest.raises(ValueError, match="version"):
            ReferenceModel.load(path)
