"""`tabrobust.mlp.train` against the per-array Adam loop in
`tests/reference_train.py`: trained weights and every field of the
training history must be bit-identical, and a divergence must raise the
same error at the same step. The input gradient, which builds no
parameter gradients, must equal the training backward's bit for bit."""

import numpy as np
import pytest

import reference_train
from tabrobust import defense
from tabrobust.attacks import AttackBudget
from tabrobust.mlp import ReferenceModel, TrainConfig, TrainingDiverged, train
from tabrobust.synth import SyntheticSpec, generate_synthetic


@pytest.fixture(scope="module")
def data():
    dataset, schema, _ = generate_synthetic(SyntheticSpec(n_rows=600), seed=3)
    return dataset, schema


def assert_same_fit(got, want):
    (model, history), (ref_model, ref_history) = got, want
    assert len(model.weights) == len(ref_model.weights)
    for a, b in zip(model.get_params(), ref_model.get_params()):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert all(p.flags.owndata for p in model.weights + model.biases)
    assert [(e.epoch, e.val_loss) for e in history.epochs] == [
        (e.epoch, e.val_loss) for e in ref_history.epochs
    ]
    assert np.array_equal([e.val_auc for e in history.epochs],
                          [e.val_auc for e in ref_history.epochs], equal_nan=True)
    assert history.best_epoch == ref_history.best_epoch
    assert np.array_equal(history.best_val_auc, ref_history.best_val_auc, equal_nan=True)


def fit_both(make_model, fit, *args, **kwargs):
    """(fit with mlp.train, fit with the reference loop) on fresh models."""
    got = fit(make_model(), *args, **kwargs)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(defense, "train", reference_train.train)
        reference = reference_train.train if fit is train else fit
        want = reference(make_model(), *args, **kwargs)
    return got, want


@pytest.mark.parametrize("epochs", [0, 1, 5])
@pytest.mark.parametrize("hidden", [(64, 32, 16), ()])
def test_train_matches_reference(data, epochs, hidden):
    dataset, schema = data
    cfg = TrainConfig(epochs=epochs, batch_size=64, seed=4)
    got, want = fit_both(lambda: ReferenceModel(schema.n_features, hidden=hidden, seed=2),
                         train, dataset, cfg, schema)
    assert len(got[0].weights) == len(hidden) + 1
    assert_same_fit(got, want)


def test_warm_start_matches_reference(data):
    dataset, schema = data
    start, _ = train(ReferenceModel(schema.n_features, seed=5), dataset,
                     TrainConfig(epochs=2, seed=5), schema)
    params = start.get_params()

    def warm():
        model = ReferenceModel(schema.n_features, scaler=start.scaler)
        model.set_params(params)
        return model

    got, want = fit_both(warm, train, dataset, TrainConfig(epochs=3, seed=6), schema)
    assert_same_fit(got, want)
    # Training reads the start weights and leaves them as they were.
    assert all(np.array_equal(a, b) for a, b in zip(params, start.get_params()))


def test_adversarial_training_matches_reference(small_bench):
    model, dataset, schema, cs = small_bench

    def warm():
        fresh = ReferenceModel(schema.n_features, scaler=model.scaler)
        fresh.set_params(model.get_params())
        return fresh

    at_cfg = defense.ATConfig(inner_budget=AttackBudget(eps=0.3, n_iter_gradient=3, seed=1))
    cfg = TrainConfig(epochs=2, batch_size=256, seed=2)
    got, want = fit_both(warm, defense.adversarial_train, dataset, cs, at_cfg, cfg, schema)
    assert_same_fit(got, want)
    # The attack hook changed the batches: plain training ends elsewhere.
    plain, _ = train(warm(), dataset, cfg, schema)
    assert not np.array_equal(plain.weights[0], got[0].weights[0])


def poison_at(epoch):
    """A batch hook that sets one weight to NaN at the start of `epoch`,
    through the model's own weight list."""

    def hook(model):
        def rewrite(Zb, yb, e):
            if e == epoch:
                model.weights[1][0, 0] = np.nan
            return Zb

        return rewrite

    return hook


@pytest.mark.parametrize("hook", [None, poison_at(2)])
def test_divergence_matches_reference(data, hook):
    dataset, schema = data
    cfg = TrainConfig(epochs=4, seed=7)
    messages = []
    for fit in (train, reference_train.train):
        model = ReferenceModel(schema.n_features, seed=7)
        if hook is None:
            model.weights[0][0, 0] = np.nan
        with pytest.raises(TrainingDiverged) as err:
            fit(model, dataset, cfg, schema, batch_hook=hook and hook(model))
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith(f"non-finite training loss at epoch {0 if hook is None else 2}")


@pytest.mark.parametrize("n", [1, 7, 300])
def test_input_gradient_matches_training_backward(small_bench, n):
    model, dataset, _, _ = small_bench
    Z = model.scaler.transform(dataset.X[:n])
    y = dataset.y[:n]
    loss, gw, gb, grad_input = model.loss_and_gradients(Z, y)
    ref_loss, ref_gw, ref_gb, ref_grad_input = reference_train.loss_and_gradients(model, Z, y)
    assert loss == ref_loss
    assert len(gw + gb) == len(ref_gw + ref_gb)
    assert all(np.array_equal(a, b) for a, b in zip(gw + gb, ref_gw + ref_gb))
    assert np.array_equal(grad_input, ref_grad_input)
    assert np.array_equal(model.input_gradient(Z, y), grad_input * n)


def test_training_skips_the_input_gradient(small_bench, data, monkeypatch):
    # Training asks for no input gradient; the parameter gradients are
    # those of the full backward pass bit for bit.
    model, dataset, _, _ = small_bench
    Z = model.scaler.transform(dataset.X[:50])
    y = dataset.y[:50]
    loss, gw, gb, grad_input = model.loss_and_gradients(Z, y, with_input=False)
    ref_loss, ref_gw, ref_gb, _ = reference_train.loss_and_gradients(model, Z, y)
    assert grad_input is None and loss == ref_loss
    assert all(np.array_equal(a, b) for a, b in zip(gw + gb, ref_gw + ref_gb))

    asked = []
    full = ReferenceModel.loss_and_gradients

    def recording(self, Z, y, with_input=True):
        asked.append(with_input)
        return full(self, Z, y, with_input)

    monkeypatch.setattr(ReferenceModel, "loss_and_gradients", recording)
    dataset, schema = data
    train(ReferenceModel(schema.n_features, seed=1), dataset, TrainConfig(epochs=1), schema)
    assert asked and not any(asked)
