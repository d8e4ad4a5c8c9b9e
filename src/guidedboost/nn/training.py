"""Training loops: contrastive Model fitting and the auxiliary head.

Both trainers share the same regime: mini-batch gradient descent, batch size
n // batch_divisor (floored, never below 2), early stopping once the
validation metric stops improving for `patience` consecutive epochs, and a
best-snapshot restore at the end. All shuffling derives from the config seed.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import FeatureMatrix
from .losses import bce_loss, supcon_loss
from .network import (
    AuxiliaryClassifier,
    EncoderProjectionModel,
    MlpSpec,
    encoder_spec,
    projection_spec,
)

IMPROVE_TOL = 1e-7
_BATCH_STREAM = 1_000_003  # keeps shuffle seeds clear of layer-init seeds


@dataclass
class TrainConfig:
    max_epochs: int = 2000
    patience: int = 100
    batch_divisor: int = 10
    learning_rate: float = 0.001
    temperature: float = 0.07
    seed: int = 0

    def __post_init__(self):
        if min(self.max_epochs, self.patience, self.batch_divisor) < 1:
            raise ValueError("TrainConfig: counts must be positive")
        if self.learning_rate <= 0.0 or self.temperature <= 0.0:
            raise ValueError("TrainConfig: learning rate and temperature must be positive")

    def batch_size(self, n: int) -> int:
        return max(2, n // self.batch_divisor)


def stratified_batches(
    labels: np.ndarray, batch_size: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Shuffled batches with both classes dealt round-robin across them.

    Guarantees every batch sees both classes whenever the class counts allow;
    a trailing single-class or singleton batch is merged into its
    predecessor.
    """
    labels = np.asarray(labels)
    n = len(labels)
    n_batches = max(1, -(-n // batch_size))
    # class 1 then class 0, each shuffled, dealt round-robin: batch j holds
    # every n_batches-th entry of the concatenation starting at j
    parts = []
    for cls in (1, 0):
        members = np.flatnonzero(labels == cls)
        parts.append(members[rng.permutation(len(members))])
    order = np.concatenate(parts)
    batches = [b for b in (order[j::n_batches] for j in range(n_batches)) if len(b)]
    if len(batches) > 1:
        last = batches[-1]
        if len(last) < 2 or len(np.unique(labels[last])) < 2:
            batches[-2] = np.concatenate([batches[-2], last])
            batches.pop()
    return batches


def _epoch_rng(seed_list: list[int], epoch: int) -> np.random.Generator:
    return np.random.default_rng(seed_list + [_BATCH_STREAM, epoch])


def train_model(
    data: FeatureMatrix,
    val: FeatureMatrix,
    cfg: TrainConfig,
    enc_spec: MlpSpec | None = None,
    proj_spec: MlpSpec | None = None,
    seed=None,
) -> EncoderProjectionModel:
    """Fit an encoder+projection Model with the supervised contrastive loss.

    Early stopping watches the contrastive loss on the validation set,
    evaluated in eval mode over the whole set each epoch; when the validation
    set is too small to define the loss (fewer than 2 samples) the training
    set is scored instead. Returns the parameters from the best epoch.

    Raises:
        FloatingPointError: the monitored loss is not finite, naming the epoch.
    """
    cfg = cfg or TrainConfig()
    if data.n_samples == 0:
        raise ValueError("train_model: training data is empty")
    if len(np.unique(data.labels)) < 2:
        raise ValueError("train_model: training data contains a single class")
    seed = cfg.seed if seed is None else seed
    model = EncoderProjectionModel(
        data.n_features, enc_spec or encoder_spec(), proj_spec or projection_spec(), seed
    )
    monitor = val if val.n_samples >= 2 else data
    batch_size = cfg.batch_size(data.n_samples)
    seed_list = [int(s) for s in np.ravel(seed)]

    best = np.inf
    best_params = model.snapshot()
    stale = 0
    epochs_run = 0
    for epoch in range(cfg.max_epochs):
        rng = _epoch_rng(seed_list, epoch)
        for batch in stratified_batches(data.labels, batch_size, rng):
            _, proj = model.forward(data.values[batch], train=True)
            _, grad = supcon_loss(proj, data.labels[batch], cfg.temperature)
            model.backward(grad)
            model.sgd_step(cfg.learning_rate)
        _, proj_val = model.forward(monitor.values, train=False)
        val_loss, _ = supcon_loss(proj_val, monitor.labels, cfg.temperature)
        epochs_run = epoch + 1
        if not np.isfinite(val_loss):
            raise FloatingPointError(
                f"train_model: monitored loss is {val_loss} at epoch {epochs_run}"
            )
        if val_loss < best - IMPROVE_TOL:
            best = val_loss
            best_params = model.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    model.load_state_arrays(best_params)
    model.train_state.epochs_run = epochs_run
    model.train_state.best_metric = float(best)
    return model


def train_auxiliary(
    embeddings: np.ndarray,
    labels: np.ndarray,
    val_embeddings: np.ndarray,
    val_labels: np.ndarray,
    cfg: TrainConfig,
    seed=None,
) -> AuxiliaryClassifier:
    """Fit the two-output sigmoid head on embeddings.

    Cross-entropy against one-hot targets; early stopping maximises accuracy
    on the validation embeddings (training accuracy when no validation rows
    exist). Returns the parameters from the best epoch.

    Raises:
        FloatingPointError: a training batch loss is not finite, naming the epoch.
    """
    X = np.asarray(embeddings, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if X.ndim != 2 or len(y) != X.shape[0]:
        raise ValueError("train_auxiliary: embeddings and labels must align")
    if len(np.unique(y)) < 2:
        raise ValueError("train_auxiliary: training labels contain a single class")
    Xv = np.asarray(val_embeddings, dtype=np.float64)
    yv = np.asarray(val_labels, dtype=np.int64)
    if Xv.size == 0:
        Xv, yv = X, y
    seed = cfg.seed if seed is None else seed
    head = AuxiliaryClassifier(X.shape[1], seed)
    onehot = np.eye(2)[y]
    batch_size = cfg.batch_size(X.shape[0])
    seed_list = [int(s) for s in np.ravel(seed)]

    best = -np.inf
    best_params = [a.copy() for a in head.state_arrays()]
    stale = 0
    epochs_run = 0
    for epoch in range(cfg.max_epochs):
        rng = _epoch_rng(seed_list, epoch)
        for batch in stratified_batches(y, batch_size, rng):
            out = head.forward(X[batch], train=True)
            loss, grad = bce_loss(out, onehot[batch])
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"train_auxiliary: batch loss is {loss} at epoch {epoch + 1}"
                )
            head.mlp.backward(grad)
            head.mlp.sgd_step(cfg.learning_rate)
        acc = float((head.predict(Xv) == yv).mean())
        epochs_run = epoch + 1
        if acc > best + IMPROVE_TOL:
            best = acc
            best_params = [a.copy() for a in head.state_arrays()]
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    head.load_state_arrays(best_params)
    head.train_state.epochs_run = epochs_run
    head.train_state.best_metric = float(best)
    return head
