"""Linear base classifiers trained by (sub)gradient descent.

Logistic regression gives a probability-native base model; the linear SVM
produces unbounded decision scores that go through the score-to-probability
adapter before thresholding.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import FeatureMatrix
from ..nn.layers import sigmoid


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
    for _ in range(cfg.epochs):
        p = _probability(X @ w + b)
        err = p - y
        grad_w = X.T @ err / n + cfg.l2 * w
        grad_b = float(err.mean())
        w -= cfg.learning_rate * grad_w
        b -= cfg.learning_rate * grad_b
    return LinearModel(weights=w, bias=b)


@dataclass
class SvmConfig:
    learning_rate: float = 0.05
    epochs: int = 300
    regularization: float = 1e-4

    __post_init__ = _check_schedule


def train_linear_svm(data: FeatureMatrix, cfg: SvmConfig | None = None) -> LinearModel:
    """Fit a linear SVM by subgradient descent on the L2-regularised hinge loss.

    Zero epochs leave the zero-initialised parameters untouched (all scores
    equal the bias).
    """
    cfg = cfg or SvmConfig()
    _check_two_classes(data, "train_linear_svm")
    X = data.values
    y = np.where(data.labels == 1, 1.0, -1.0)
    n = X.shape[0]
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(cfg.epochs):
        # y * (X @ w + b), in place on the product
        margins = X @ w
        margins += b
        margins *= y
        # the violating rows, compacted by index: faster than a boolean mask
        # and the same rows in the same order, so the sums keep their bits
        viol = np.flatnonzero(margins < 1.0)
        Xv, yv = X.take(viol, axis=0), y.take(viol)
        # subgradient of mean hinge + (reg/2)*||w||^2
        grad_w = cfg.regularization * w - (Xv.T @ yv) / n
        grad_b = -float(yv.sum()) / n
        w -= cfg.learning_rate * grad_w
        b -= cfg.learning_rate * grad_b
    return LinearModel(weights=w, bias=b)
