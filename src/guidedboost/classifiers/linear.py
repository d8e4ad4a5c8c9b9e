"""Linear base classifiers trained by (sub)gradient descent.

Logistic regression gives a probability-native base model; the linear SVM
produces unbounded decision scores that go through the score-to-probability
adapter before thresholding.

An svm epoch is one map over fixed blocks of ``BLOCK_ROWS`` training rows.
Each block sums the subgradient of its violating rows, and the sums add in
block order. The blocks are dealt to threads by the rule of ``parallel``
(``thread_map``), so the fit's bits depend on ``BLOCK_ROWS`` and not on the
CPU count. A training set of at most ``BLOCK_ROWS`` rows is one block, run
in the calling thread: its bits equal the full-batch loop's, the previous
release's. Above that, a row's margin can differ in its last bits, because a
matrix-vector product's bits depend on where the row sits in the matrix. Both
trainers raise FloatingPointError, naming the trainer and the epoch, once the
weights stop being finite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from ..data import FeatureMatrix
from ..nn.layers import sigmoid
from ..parallel import thread_map

# rows per block of an svm epoch. On a 320k x 12 training set on 2 vCPU,
# 8192 and 16384 fitted in the same wall time and 32768 and 65536 were
# 6% and 24% slower; each thread holds buffers for one block
BLOCK_ROWS = 16384


def _check_schedule(cfg) -> None:
    """The range rule of both linear trainers' settings; none may be NaN or
    infinite, and the penalty weight (the setting named ``PENALTY``) may not
    be negative: a negative one grows the weights every epoch."""
    if cfg.epochs < 0 or not 0.0 < cfg.learning_rate < math.inf:
        raise ValueError(f"{type(cfg).__name__}: need epochs >= 0 and learning_rate > 0, "
                         f"got {cfg.epochs} and {cfg.learning_rate}")
    if not all(map(math.isfinite, vars(cfg).values())):
        raise ValueError(f"{type(cfg).__name__}: settings must be finite, got {cfg}")
    penalty = getattr(cfg, cfg.PENALTY)
    if penalty < 0:
        raise ValueError(f"{type(cfg).__name__}: {cfg.PENALTY} must be non-negative, "
                         f"got {penalty}")


@dataclass
class LinearConfig:
    learning_rate: float = 0.1
    epochs: int = 200
    l2: float = 1e-4

    PENALTY: ClassVar[str] = "l2"
    __post_init__ = _check_schedule


@dataclass(frozen=True)
class LinearModel:
    """Weights + bias of a trained linear classifier.

    Its adapter says what the decision scores w.x + b mean: a logistic model's
    probabilities are their sigmoid (``predict_proba``), an svm's scores go
    through the score-to-probability transform.
    """

    weights: np.ndarray
    bias: float

    def __post_init__(self):
        w = np.ascontiguousarray(np.asarray(self.weights, dtype=np.float64))
        w.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", float(self.bias))

    def decision_scores(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if X.shape[1] != len(self.weights):
            raise ValueError(
                f"feature width {X.shape[1]} does not match model width {len(self.weights)}"
            )
        return X @ self.weights + self.bias

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Positive-class probability of a logistic model."""
        return _probability(self.decision_scores(X))


def _probability(z: np.ndarray) -> np.ndarray:
    # clipped to stay strictly inside (0, 1)
    return np.clip(sigmoid(z), 1e-12, 1.0 - 1e-12)


def _check_finite(what: str, w: np.ndarray, b: float, epoch: int) -> None:
    if not (math.isfinite(b) and np.isfinite(w).all()):
        raise FloatingPointError(f"{what}: weights are not finite at epoch {epoch}")


def _check_two_classes(data: FeatureMatrix, what: str):
    if data.n_samples == 0:
        raise ValueError(f"{what}: training data is empty")
    if len(np.unique(data.labels)) < 2:
        raise ValueError(f"{what}: training data contains a single class")


def train_logistic(data: FeatureMatrix, cfg: LinearConfig | None = None) -> LinearModel:
    """Fit logistic regression by full-batch gradient descent.

    Weights start at zero and no random numbers are drawn, so the fit is
    deterministic and takes no seed.
    """
    cfg = cfg or LinearConfig()
    _check_two_classes(data, "train_logistic")
    X, y = data.values, data.labels.astype(np.float64)
    n = X.shape[0]
    w = np.zeros(X.shape[1])
    b = 0.0
    for epoch in range(1, cfg.epochs + 1):
        p = _probability(X @ w + b)
        err = p - y
        grad_w = X.T @ err / n + cfg.l2 * w
        grad_b = float(err.mean())
        w -= cfg.learning_rate * grad_w
        b -= cfg.learning_rate * grad_b
        _check_finite("train_logistic", w, b, epoch)
    return LinearModel(weights=w, bias=b)


@dataclass
class SvmConfig:
    learning_rate: float = 0.05
    epochs: int = 300
    regularization: float = 1e-4

    PENALTY: ClassVar[str] = "regularization"
    __post_init__ = _check_schedule


def _hinge_sum(Xb: np.ndarray, yb: np.ndarray, w: np.ndarray, b: float, buffers: tuple):
    """``(Xv.T @ yv, yv.sum())`` over the rows v of the block (Xb, yb) with
    y * (x.w + b) < 1. It fills ``buffers`` (margins, mask, Xv, yv) in place,
    so the thread that runs it allocates nothing of a block's size."""
    margins, below, Xv_buf, yv_buf = buffers
    # y * (X @ w + b), in place on the product
    m = np.matmul(Xb, w, out=margins[:len(yb)])
    m += b
    m *= yb
    # the violating rows, compacted by index: faster than a boolean mask
    # and the same rows in the same order, so the sums keep their bits;
    # mode="clip" takes straight into the buffer, "raise" through a copy
    viol = np.flatnonzero(np.less(m, 1.0, out=below[:len(yb)]))
    Xv = Xb.take(viol, axis=0, out=Xv_buf[:len(viol)], mode="clip")
    yv = yb.take(viol, out=yv_buf[:len(viol)], mode="clip")
    return Xv.T @ yv, float(yv.sum())


def train_linear_svm(data: FeatureMatrix, cfg: SvmConfig | None = None) -> LinearModel:
    """Fit a linear SVM by subgradient descent on the L2-regularised hinge loss.

    Zero epochs leave the zero-initialised parameters untouched (all scores
    equal the bias). Block i is summed on thread ``i % T`` of ``thread_map``,
    into that thread's buffers.
    """
    cfg = cfg or SvmConfig()
    _check_two_classes(data, "train_linear_svm")
    X = data.values
    y = np.where(data.labels == 1, 1.0, -1.0)
    n = X.shape[0]
    starts = range(0, n, BLOCK_ROWS)
    w = np.zeros(X.shape[1])
    b = 0.0
    rows = min(BLOCK_ROWS, n)
    with thread_map(len(starts)) as (n_threads, map_items):
        buffers = [(np.empty(rows), np.empty(rows, dtype=bool), np.empty((rows, X.shape[1])),
                    np.empty(rows)) for _ in range(n_threads)]

        def block_sum(i: int):
            block = slice(starts[i], starts[i] + BLOCK_ROWS)
            return _hinge_sum(X[block], y[block], w, b, buffers[i % n_threads])

        for epoch in range(1, cfg.epochs + 1):
            blocks = map_items(block_sum)
            sum_w, sum_y = blocks[0]
            for block_w, block_y in blocks[1:]:
                sum_w += block_w
                sum_y += block_y
            # subgradient of mean hinge + (reg/2)*||w||^2
            grad_w = cfg.regularization * w - sum_w / n
            grad_b = -sum_y / n
            w -= cfg.learning_rate * grad_w
            b -= cfg.learning_rate * grad_b
            _check_finite("train_linear_svm", w, b, epoch)
    return LinearModel(weights=w, bias=b)
