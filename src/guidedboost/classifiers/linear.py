"""Linear base classifiers trained by (sub)gradient descent.

Logistic regression gives a probability-native base model; the linear SVM
produces unbounded decision scores that go through the score-to-probability
adapter before thresholding.

An svm epoch is one map over fixed blocks of ``BLOCK_ROWS`` training rows.
Each block sums the subgradient of its violating rows, and the sums add in
block order. The blocks run on threads, at most one per usable CPU (numpy
releases the GIL in the products, comparisons and takes), so the fit's bits
depend on ``BLOCK_ROWS`` and not on the CPU count. A training set of at most
``BLOCK_ROWS`` rows is one block, run in the calling thread: its bits equal
the full-batch loop's, the previous release's. Above that, a row's margin can
differ in its last bits, because a matrix-vector product's bits depend on
where the row sits in the matrix. Both trainers raise FloatingPointError,
naming the trainer and the epoch, once the weights stop being finite.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from ..data import FeatureMatrix
from ..nn.layers import sigmoid
from ..parallel import _usable_cpus

# rows per block of an svm epoch. On a 320k x 12 training set on 2 vCPU,
# 8192 and 16384 fitted in the same wall time and 32768 and 65536 were
# 6% and 24% slower; each thread holds buffers for one block
BLOCK_ROWS = 16384


def _check_schedule(cfg) -> None:
    """The range rule of both linear trainers' settings."""
    if cfg.epochs < 0 or not cfg.learning_rate > 0.0:
        raise ValueError(f"{type(cfg).__name__}: need epochs >= 0 and learning_rate > 0, "
                         f"got {cfg.epochs} and {cfg.learning_rate}")


@dataclass
class LinearConfig:
    learning_rate: float = 0.1
    epochs: int = 200
    l2: float = 1e-4

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

    __post_init__ = _check_schedule


def _hinge_sums(X: np.ndarray, y: np.ndarray, starts: range):
    """The function of (w, b) that gives, for each block starting at one of
    ``starts`` in turn, ``(Xv.T @ yv, yv.sum())`` over its rows v with
    y * (x.w + b) < 1.

    Its buffers are made here, in the calling thread, and filled in place, so
    the thread that runs it allocates nothing of a block's size.
    """
    rows = min(BLOCK_ROWS, len(y))
    margins, below = np.empty(rows), np.empty(rows, dtype=bool)
    Xv_buf, yv_buf = np.empty((rows, X.shape[1])), np.empty(rows)
    blocks = []
    for start in starts:
        yb = y[start:start + BLOCK_ROWS]
        blocks.append((X[start:start + BLOCK_ROWS], yb, margins[:len(yb)], below[:len(yb)]))

    def sums(w: np.ndarray, b: float) -> list:
        out = []
        for Xb, yb, m, mask in blocks:
            # y * (X @ w + b), in place on the product
            np.matmul(Xb, w, out=m)
            m += b
            m *= yb
            # the violating rows, compacted by index: faster than a boolean mask
            # and the same rows in the same order, so the sums keep their bits;
            # mode="clip" takes straight into the buffer, "raise" through a copy
            viol = np.flatnonzero(np.less(m, 1.0, out=mask))
            Xv = Xb.take(viol, axis=0, out=Xv_buf[:len(viol)], mode="clip")
            yv = yb.take(viol, out=yv_buf[:len(viol)], mode="clip")
            out.append((Xv.T @ yv, float(yv.sum())))
        return out

    return sums


@contextmanager
def _thread_map(n_threads: int):
    """``map`` over a pool of ``n_threads`` threads, or the builtin one for a
    single thread. The pool's threads are joined on exit, so none outlives the
    fit: ``parallel.run_all`` forks only the calling thread."""
    if n_threads == 1:
        yield map
        return
    with ThreadPoolExecutor(n_threads) as pool:
        yield pool.map


def train_linear_svm(data: FeatureMatrix, cfg: SvmConfig | None = None) -> LinearModel:
    """Fit a linear SVM by subgradient descent on the L2-regularised hinge loss.

    Zero epochs leave the zero-initialised parameters untouched (all scores
    equal the bias). Thread t of T sums blocks t, t + T, ... (module
    docstring).
    """
    cfg = cfg or SvmConfig()
    _check_two_classes(data, "train_linear_svm")
    X = data.values
    y = np.where(data.labels == 1, 1.0, -1.0)
    n = X.shape[0]
    starts = range(0, n, BLOCK_ROWS)
    n_threads = min(len(starts), _usable_cpus())
    stripes = [_hinge_sums(X, y, starts[t::n_threads]) for t in range(n_threads)]
    w = np.zeros(X.shape[1])
    b = 0.0
    with _thread_map(n_threads) as map_threads:
        for epoch in range(1, cfg.epochs + 1):
            by_thread = list(map_threads(lambda sums: sums(w, b), stripes))
            blocks = [by_thread[i % n_threads][i // n_threads] for i in range(len(starts))]
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
