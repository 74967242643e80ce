"""Adam training with a validation split, patience, and best-weight restore."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DivergenceError, ShapeError, checked_float, checked_int

#: Adam's decay rates and denominator guard: the published defaults (Kingma &
#: Ba 2015), which no caller changes
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class TrainConfig:
    epochs: int = 200
    batch_size: int | None = None  # None -> full batch
    learning_rate: float = 1e-3
    patience: int = 10
    val_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        self.epochs = checked_int("epochs", self.epochs, 1)
        if self.batch_size is not None:
            self.batch_size = checked_int("batch_size", self.batch_size, 1)
        self.patience = checked_int("patience", self.patience, 1)
        self.learning_rate = checked_float("learning_rate",
                                           self.learning_rate, 0.0)
        self.val_fraction = checked_float("val_fraction", self.val_fraction,
                                          0.0, 1.0)


class AdamState:
    def __init__(self, size, learning_rate):
        self.m = np.zeros(size)
        self.v = np.zeros(size)
        self.t = 0
        self.learning_rate = learning_rate

    def step(self, params, grads):
        self.t += 1
        self.m = BETA1 * self.m + (1.0 - BETA1) * grads
        self.v = BETA2 * self.v + (1.0 - BETA2) * grads * grads
        m_hat = self.m / (1.0 - BETA1 ** self.t)
        v_hat = self.v / (1.0 - BETA2 ** self.t)
        return params - self.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)


def train_with_history(net, x, z, cfg: TrainConfig):
    """Train ``net`` in place; returns ``(net, history)``.

    The history dict records the inference-mode validation MSE per epoch,
    the pre-training value, and the epoch whose weights were restored.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    n = x.shape[0]
    if n < 2:
        raise ShapeError("training needs at least 2 observations")
    if not np.all(np.isfinite(z)):
        raise DivergenceError("non-finite training targets")

    rng = np.random.default_rng(cfg.seed)
    perm = rng.permutation(n)
    n_val = max(1, int(round(cfg.val_fraction * n)))
    n_val = min(n_val, n - 1)
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    x_tr, z_tr = x[tr_idx], z[tr_idx]
    x_val, z_val = x[val_idx], z[val_idx]

    batch = cfg.batch_size or x_tr.shape[0]
    params = net.get_weights_vector()
    adam = AdamState(params.size, cfg.learning_rate)

    best_val = net.mse(x_val, z_val)
    best_params = params.copy()
    best_epoch = -1  # initialization
    history = {"initial_val_loss": best_val, "val_loss": []}
    stale = 0

    for epoch in range(cfg.epochs):
        order = rng.permutation(x_tr.shape[0])
        for start in range(0, x_tr.shape[0], batch):
            take = order[start:start + batch]
            loss, grads = net.loss_and_grads(x_tr[take], z_tr[take], rng=rng)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite training loss at epoch {epoch}")
            params = adam.step(params, grads)
            net.set_weights_vector(params)
        val_loss = net.mse(x_val, z_val)
        if not np.isfinite(val_loss):
            raise DivergenceError(f"non-finite validation loss at epoch {epoch}")
        history["val_loss"].append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_params = params.copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break

    net.set_weights_vector(best_params)
    history["best_epoch"] = best_epoch
    history["best_val_loss"] = best_val
    return net, history


def train(net, x, z, cfg: TrainConfig):
    """Train and return the network with the best validation weights."""
    trained, _ = train_with_history(net, x, z, cfg)
    return trained
