"""Reference training: the per-array Adam loop that `tabrobust.mlp.train`
ran before the update became one pass over a flat parameter vector, and
the backward pass that built every parameter gradient for every caller.
Kept verbatim so the tests can require bit-identical weights, histories
and gradients."""

from __future__ import annotations

import numpy as np

from tabrobust.data import Dataset, DatasetSchema, MinMaxScaler
from tabrobust.metrics import auc_score
from tabrobust.mlp import (
    EpochStats,
    ReferenceModel,
    TrainConfig,
    TrainHistory,
    TrainingDiverged,
    cross_entropy,
    stratified_split,
)


def loss_and_gradients(
    model: ReferenceModel, Z: np.ndarray, y: np.ndarray
) -> tuple[float, list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Mean cross-entropy plus gradients w.r.t. weights, biases, input."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=int))
    n = Z.shape[0]
    probs, acts = model._forward(Z)
    loss = float(np.mean(cross_entropy(probs, y)))

    delta = probs.copy()
    delta[np.arange(n), y] -= 1.0
    delta /= n
    grads_w: list[np.ndarray] = [np.empty(0)] * len(model.weights)
    grads_b: list[np.ndarray] = [np.empty(0)] * len(model.biases)
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (acts[i] > 0)
    grad_input = delta @ model.weights[0].T if model.weights else delta
    return loss, grads_w, grads_b, grad_input


def train(
    model: ReferenceModel,
    dataset: Dataset,
    cfg: TrainConfig,
    schema: DatasetSchema,
    batch_hook=None,
) -> tuple[ReferenceModel, TrainHistory]:
    """Fit the model; returns it with best-validation-AUC weights."""
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
    best_auc = -np.inf
    best_loss = np.inf

    m_state = [np.zeros_like(p) for p in model.get_params()]
    v_state = [np.zeros_like(p) for p in model.get_params()]
    step = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(len(Z_train))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            Zb, yb = Z_train[batch], y_train[batch]
            if batch_hook is not None:
                Zb = batch_hook(Zb, yb, epoch)
            loss, gw, gb, _ = loss_and_gradients(model, Zb, yb)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite training loss at epoch {epoch}, step {step}"
                )
            step += 1
            params = model.weights + model.biases
            grads = gw + gb
            lr_t = cfg.learning_rate * np.sqrt(
                1.0 - cfg.adam_beta2**step
            ) / (1.0 - cfg.adam_beta1**step)
            for p, g, m, v in zip(params, grads, m_state, v_state):
                m *= cfg.adam_beta1
                m += (1.0 - cfg.adam_beta1) * g
                v *= cfg.adam_beta2
                v += (1.0 - cfg.adam_beta2) * g * g
                p -= lr_t * m / (np.sqrt(v) + cfg.adam_eps)

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

    if cfg.epochs > 0:
        model.set_params(best_params)
    return model, history
