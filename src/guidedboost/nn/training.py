"""Training loops: contrastive Model fitting and the auxiliary head.

Both trainers run the same early-stopping loop: mini-batch gradient descent,
batch size n // batch_divisor (floored, never below 2), a stop once the
validation metric stops improving for `patience` consecutive epochs, and a
best-snapshot restore at the end. All shuffling derives from the seed each
trainer is given.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import FeatureMatrix
from .losses import bce_loss, supcon_loss
from .network import (
    MLP,
    EncoderProjectionModel,
    MlpSpec,
    auxiliary_spec,
    encoder_spec,
    head_labels,
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

    def __post_init__(self):
        if min(self.max_epochs, self.patience, self.batch_divisor) < 1:
            raise ValueError("TrainConfig: counts must be positive")
        if not (0.0 < self.learning_rate < np.inf and 0.0 < self.temperature < np.inf):
            raise ValueError("TrainConfig: learning_rate and temperature must be positive")

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


def _early_stopping(net, labels: np.ndarray, cfg: TrainConfig, step, score) -> float:
    """Train net epoch by epoch, keeping the parameters of the best epoch.

    Each epoch calls step(batch, epoch) on every stratified batch of a fresh
    shuffle drawn from net's seed list, then score(epoch) for a value to
    maximise (epochs count from 1). The run stops after cfg.patience epochs
    without an improvement larger than IMPROVE_TOL, or after cfg.max_epochs.
    Returns the best score.
    """
    batch_size = cfg.batch_size(len(labels))
    best = -np.inf
    best_params = net.snapshot()
    stale = 0
    for epoch in range(1, cfg.max_epochs + 1):
        for batch in stratified_batches(labels, batch_size, _epoch_rng(net.seed, epoch - 1)):
            step(batch, epoch)
        value = score(epoch)
        if value > best + IMPROVE_TOL:
            best = value
            best_params = net.snapshot()
            stale = 0
        else:
            stale += 1
            if stale >= cfg.patience:
                break
    net.load_state_arrays(best_params)
    net.train_state.epochs_run = epoch
    return best


def train_model(
    data: FeatureMatrix,
    val: FeatureMatrix,
    cfg: TrainConfig,
    enc_spec: MlpSpec | None = None,
    proj_spec: MlpSpec | None = None,
    *,
    seed,
) -> EncoderProjectionModel:
    """Fit an encoder+projection Model with the supervised contrastive loss.

    Early stopping watches the contrastive loss on the validation set,
    evaluated in eval mode over the whole set each epoch; when the validation
    set is too small to define the loss (fewer than 2 samples) the training
    set is scored instead. Returns the parameters from the best epoch.

    Raises:
        FloatingPointError: the monitored loss is not finite, naming the epoch.
    """
    if data.n_samples == 0:
        raise ValueError("train_model: training data is empty")
    if len(np.unique(data.labels)) < 2:
        raise ValueError("train_model: training data contains a single class")
    model = EncoderProjectionModel(
        data.n_features, enc_spec or encoder_spec(), proj_spec or projection_spec(), seed
    )
    monitor = val if val.n_samples >= 2 else data

    def step(batch, epoch):
        proj = model.forward(data.values[batch], train=True)
        _, grad = supcon_loss(proj, data.labels[batch], cfg.temperature)
        model.backward(grad, input_grad=False)
        model.sgd_step(cfg.learning_rate)

    def score(epoch):
        proj_val = model.forward(monitor.values, train=False)
        val_loss, _ = supcon_loss(proj_val, monitor.labels, cfg.temperature)
        if not np.isfinite(val_loss):
            raise FloatingPointError(f"train_model: monitored loss is {val_loss} at epoch {epoch}")
        # negation is exact, so maximising -loss keeps the improvement test's bits
        return -val_loss

    model.train_state.best_metric = float(-_early_stopping(model, data.labels, cfg, step, score))
    return model


def train_auxiliary(
    embeddings: np.ndarray,
    labels: np.ndarray,
    val_embeddings: np.ndarray,
    val_labels: np.ndarray,
    cfg: TrainConfig,
    seed,
) -> MLP:
    """Fit the two-output sigmoid head (an ``auxiliary_spec()`` MLP) on embeddings.

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
    head = MLP(X.shape[1], auxiliary_spec(), seed)
    onehot = np.eye(2)[y]

    def step(batch, epoch):
        out = head.forward(X[batch], train=True)
        loss, grad = bce_loss(out, onehot[batch])
        if not np.isfinite(loss):
            raise FloatingPointError(f"train_auxiliary: batch loss is {loss} at epoch {epoch}")
        head.backward(grad, input_grad=False)
        head.sgd_step(cfg.learning_rate)

    def score(epoch):
        return float((head_labels(head, Xv) == yv).mean())

    head.train_state.best_metric = float(_early_stopping(head, y, cfg, step, score))
    return head
