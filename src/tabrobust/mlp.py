"""Reference classifier: a small fully connected network, trained and
differentiated by hand in numpy.

The default architecture is three rectifier hidden layers of 64, 32,
and 16 units feeding a 2-class softmax. Inputs are min-max scaled to
[0, 1] through a scaler stored on the model, so attack code can work
directly in scaled space. Training is mini-batch gradient descent with
adaptive moments; everything is driven by one seeded generator, so a
(seed, data, config) triple fixes the whole weight trajectory.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .data import (
    DataError,
    Dataset,
    DatasetSchema,
    MinMaxScaler,
    is_finite_number,
    is_int_at_least,
    is_number,
    json_array,
    json_field,
)
from .metrics import auc_score

CHECKPOINT_VERSION = 1


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


def cross_entropy(probs: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy of the true class, from class probabilities."""
    return -np.log(probs[np.arange(len(y)), y] + 1e-12)


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int = 128
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    validation_fraction: float = 0.2

    def __post_init__(self):
        for name, low in (("epochs", 0), ("batch_size", 1), ("seed", 0)):
            if not is_int_at_least(getattr(self, name), low):
                raise ValueError(f"{name} must be an integer in [{low}, 2**63 - 1], "
                                 f"got {getattr(self, name)!r}")
        for name in ("learning_rate", "adam_beta1", "adam_beta2", "adam_eps",
                     "validation_fraction"):
            if not is_number(getattr(self, name)):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)!r}")
        if not (is_finite_number(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning rate must be finite and positive, got {self.learning_rate}")
        for name in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, name) < 1.0:  # also false for NaN
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not (is_finite_number(self.adam_eps) and self.adam_eps > 0):
            raise ValueError(f"adam_eps must be finite and positive, got {self.adam_eps}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")


class ReferenceModel:
    """Feedforward rectifier network with a 2-class softmax head."""

    def __init__(
        self,
        n_features: int,
        hidden: tuple[int, ...] = (64, 32, 16),
        seed: int = 0,
        scaler: Optional[MinMaxScaler] = None,
    ):
        self.n_features = n_features
        self.hidden = tuple(hidden)
        self.scaler = scaler
        widths = [n_features, *self.hidden, 2]
        rng = np.random.default_rng(seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(widths[:-1], widths[1:]):
            scale = np.sqrt(2.0 / fan_in)
            self.weights.append(rng.normal(0.0, scale, size=(fan_in, fan_out)))
            self.biases.append(np.zeros(fan_out))

    # -- forward / backward ------------------------------------------------

    def _forward(self, Z: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Returns (probabilities, per-layer activations incl. input)."""
        acts = [Z]
        h = Z
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ W + b
            if i < len(self.weights) - 1:
                h = np.maximum(h, 0.0)
            acts.append(h)
        logits = acts[-1]
        shifted = logits - logits.max(axis=1, keepdims=True)
        e = np.exp(shifted)
        probs = e / e.sum(axis=1, keepdims=True)
        return probs, acts

    def predict_proba_scaled(self, Z: np.ndarray) -> np.ndarray:
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        return self._forward(Z)[0]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        if self.scaler is None:
            raise ValueError("model has no scaler: train it first, or call predict_proba_scaled")
        return self.predict_proba_scaled(self.scaler.transform(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.predict_proba(X).argmax(axis=1)

    def loss_and_gradients(
        self, Z: np.ndarray, y: np.ndarray, with_input: bool = True
    ) -> tuple[float, list[np.ndarray], list[np.ndarray], Optional[np.ndarray]]:
        """Mean cross-entropy plus gradients w.r.t. weights, biases, input;
        the input gradient is None unless `with_input`."""
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=int))
        probs, acts = self._forward(Z)
        loss = float(np.mean(cross_entropy(probs, y)))
        return (loss, *self._backward(probs, acts, y, with_params=True, with_input=with_input))

    def input_gradient(self, Z: np.ndarray, y: np.ndarray, with_proba: bool = False):
        """d(mean cross-entropy)/dZ in scaled space, per row; with
        `with_proba`, (gradient, probabilities) from the one forward pass.

        Per-row gradients are returned unaveraged, i.e. each row is the
        gradient of its own sample's loss. No parameter gradient is built.
        """
        Z = np.atleast_2d(np.asarray(Z, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=int))
        probs, acts = self._forward(Z)
        grad = self._backward(probs, acts, y, with_params=False)[2] * Z.shape[0]
        return (grad, probs) if with_proba else grad

    def _backward(
        self, probs: np.ndarray, acts: list[np.ndarray], y: np.ndarray, with_params: bool,
        with_input: bool = True,
    ) -> tuple[list[np.ndarray], list[np.ndarray], Optional[np.ndarray]]:
        """(weight, bias, input) gradients of the mean cross-entropy; the
        parameter lists stay empty unless `with_params`, and the input
        gradient is None unless `with_input`."""
        n = len(probs)
        delta = probs.copy()
        delta[np.arange(n), y] -= 1.0
        delta /= n
        grads_w: list[np.ndarray] = []
        grads_b: list[np.ndarray] = []
        for i in range(len(self.weights) - 1, -1, -1):
            if with_params:
                grads_w.insert(0, acts[i].T @ delta)
                grads_b.insert(0, delta.sum(axis=0))
            if i > 0:
                delta = (delta @ self.weights[i].T) * (acts[i] > 0)
        return grads_w, grads_b, delta @ self.weights[0].T if with_input else None

    # -- parameter plumbing -------------------------------------------------

    def get_params(self) -> list[np.ndarray]:
        return [w.copy() for w in self.weights] + [b.copy() for b in self.biases]

    def set_params(self, params: list[np.ndarray]) -> None:
        k = len(self.weights)
        self.weights = [p.copy() for p in params[:k]]
        self.biases = [p.copy() for p in params[k:]]

    def save(self, path: Union[str, Path]) -> None:
        payload = {
            "version": CHECKPOINT_VERSION,
            "n_features": self.n_features,
            "hidden": list(self.hidden),
            "weights": [w.tolist() for w in self.weights],
            "biases": [b.tolist() for b in self.biases],
            "scaler": self.scaler.to_dict(),
        }
        Path(path).write_text(json.dumps(payload))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ReferenceModel":
        d = json.loads(Path(path).read_text())
        version = json_field(d, "version", int, "model", default=None)
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version!r}")
        n_features = json_field(d, "n_features", int, "model")
        if n_features < 1:
            raise DataError(f"model field 'n_features' must be >= 1, got {n_features}")
        hidden = json_field(d, "hidden", list, "model")
        if not all(is_number(h, int) and h >= 1 for h in hidden):
            raise DataError(f"model field 'hidden' must be a list of integers >= 1, got {hidden!r}")
        scaler = MinMaxScaler.from_dict(json_field(d, "scaler", dict, "model"))
        if not len(scaler.min_) == len(scaler.width_) == n_features:
            raise DataError(f"model scaler fields 'min' and 'width' must have {n_features} entries")
        # The widths give the shapes the file must have; no layer is built
        # before the parsed arrays match them.
        widths = [n_features, *hidden, 2]
        layers = {}
        for key, ndim, want in (("weights", 2, list(zip(widths[:-1], widths[1:]))),
                                ("biases", 1, [(w,) for w in widths[1:]])):
            got = [json_array(a, ndim, f"each layer of model field {key!r}")
                   for a in json_field(d, key, list, "model")]
            if [a.shape for a in got] != want:
                raise DataError(f"model field {key!r} must have shapes {want}, "
                                f"got {[a.shape for a in got]}")
            layers[key] = got
        model = cls(n_features, hidden=tuple(hidden), scaler=scaler)
        model.weights, model.biases = layers["weights"], layers["biases"]
        return model


@dataclass
class EpochStats:
    epoch: int
    val_loss: float
    val_auc: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = -1
    best_val_auc: float = float("nan")


def stratified_split(
    y: np.ndarray, fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(train_idx, val_idx) with per-class proportional sampling."""
    val_idx = []
    for label in np.unique(y):
        members = np.where(y == label)[0]
        perm = rng.permutation(members)
        k = max(1, int(round(fraction * len(members))))
        val_idx.append(perm[:k])
    val = np.sort(np.concatenate(val_idx))
    mask = np.ones(len(y), dtype=bool)
    mask[val] = False
    return np.where(mask)[0], val


def train(
    model: ReferenceModel,
    dataset: Dataset,
    cfg: TrainConfig,
    schema: DatasetSchema,
    batch_hook=None,
) -> tuple[ReferenceModel, TrainHistory]:
    """Fit the model; returns it with best-validation-AUC weights in new
    arrays. The weight and bias arrays it held before are not written.

    A model without a scaler gets the schema's, so the attack's [0, 1]
    box is the declared feature bounds. `batch_hook(Zb, yb, epoch) -> Zb`
    lets callers rewrite each training batch in scaled space;
    adversarial training plugs in here.
    """
    rng = np.random.default_rng(cfg.seed)
    train_idx, val_idx = stratified_split(dataset.y, cfg.validation_fraction, rng)
    X_train, y_train = dataset.X[train_idx], dataset.y[train_idx]
    X_val, y_val = dataset.X[val_idx], dataset.y[val_idx]

    if model.scaler is None:
        model.scaler = MinMaxScaler.from_schema(schema)
    Z_train = model.scaler.transform(X_train)
    Z_val = model.scaler.transform(X_val)

    history = TrainHistory()
    best_params = model.get_params()
    # Selection: max validation AUC, ties broken by lower validation
    # loss (AUC saturates early on easy tasks while the probabilities
    # are still poorly calibrated).
    best_auc = -np.inf
    best_loss = np.inf

    # Adam updates one flat vector that the weight and bias lists view,
    # in that order; the gradients are gathered into `g` in the same order.
    layers = model.weights + model.biases
    flat = np.concatenate([p.ravel() for p in layers])
    parts = np.split(flat, np.cumsum([p.size for p in layers])[:-1])
    views = [part.reshape(p.shape) for part, p in zip(parts, layers)]
    k = len(model.weights)
    model.weights, model.biases = views[:k], views[k:]
    g = np.empty_like(flat)
    m = np.zeros_like(flat)
    v = np.zeros_like(flat)
    step = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(Z_train))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            Zb, yb = Z_train[batch], y_train[batch]
            if batch_hook is not None:
                Zb = batch_hook(Zb, yb, epoch)
            loss, gw, gb, _ = model.loss_and_gradients(Zb, yb, with_input=False)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite training loss at epoch {epoch}, step {step}"
                )
            step += 1
            np.concatenate([a.ravel() for a in gw + gb], out=g)
            lr_t = cfg.learning_rate * np.sqrt(
                1.0 - cfg.adam_beta2**step
            ) / (1.0 - cfg.adam_beta1**step)
            m *= cfg.adam_beta1
            m += (1.0 - cfg.adam_beta1) * g
            v *= cfg.adam_beta2
            v += (1.0 - cfg.adam_beta2) * g * g
            flat -= lr_t * m / (np.sqrt(v) + cfg.adam_eps)

        val_probs = model.predict_proba_scaled(Z_val)
        stats = EpochStats(
            epoch=epoch,
            val_loss=float(np.mean(cross_entropy(val_probs, y_val))),
            val_auc=auc_score(y_val, val_probs[:, 1]),
        )
        history.epochs.append(stats)
        if stats.val_auc > best_auc or (
            stats.val_auc == best_auc and stats.val_loss < best_loss
        ):
            best_auc = stats.val_auc
            best_loss = stats.val_loss
            best_params = model.get_params()
            history.best_epoch = epoch
            history.best_val_auc = stats.val_auc

    model.set_params(best_params)
    return model, history
