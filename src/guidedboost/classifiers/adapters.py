"""Probability adapters: turn any base model's outputs into one probability.

Every adapter's ``predict_probabilities`` gives one probability per row: its
prediction is ``p >= 0.5``, and the thresholds calibrated on the validation
probabilities route it. Three situations arise:

* probability-native bases (logistic, forest) pass their probabilities
  through one identity adapter;
* margin bases (linear SVM) map decision scores through a piecewise min-max
  transform anchored at zero;
* degenerate-probability bases (1-NN) get a companion error-proxy forest whose
  error probability, signed by the 1-NN label, is the probability.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import FeatureMatrix
from .forest import ForestConfig, ForestModel, train_random_forest
from .knn import NearestNeighborModel
from .linear import LinearModel


@dataclass(frozen=True)
class ScoreRange:
    """Observed decision-score extremes.

    f_min/f_max are taken over the union of all score populations the
    transform will ever see (train, validation and test), so the mapping is
    one fixed function.
    """

    f_min: float
    f_max: float

    def __post_init__(self):
        if not (np.isfinite(self.f_min) and np.isfinite(self.f_max)):
            raise ValueError("ScoreRange: non-finite score bounds")
        if self.f_min > self.f_max:
            raise ValueError("ScoreRange: f_min exceeds f_max")

    @classmethod
    def from_scores(cls, *score_arrays: np.ndarray) -> "ScoreRange":
        pooled = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in score_arrays])
        if pooled.size == 0:
            raise ValueError("ScoreRange.from_scores: no scores given")
        # a NaN or an infinity always reaches the min or the max, which
        # __post_init__ rejects
        return cls(f_min=float(pooled.min()), f_max=float(pooled.max()))


def decision_to_probability(scores: np.ndarray, rng: ScoreRange) -> np.ndarray:
    """Min-max map onto [0, 1], applied separately per score sign.

    Negative scores land in [0, 0.5), non-negative in [0.5, 1], so
    sign(f) >= 0 iff p >= 0.5 and ordering is preserved on each side. A
    zero-width side maps to the midpoint of its half (0.25 or 0.75).
    """
    f = np.asarray(scores, dtype=np.float64)
    if not np.isfinite(f).all():
        raise ValueError("decision_to_probability: non-finite score")
    p = np.empty_like(f)
    pos = f >= 0.0
    if rng.f_max > 0.0:
        p[pos] = 0.5 + 0.5 * (f[pos] / rng.f_max)
    else:
        p[pos] = 0.75
    neg = ~pos
    if rng.f_min < 0.0:
        p[neg] = 0.5 * (1.0 - f[neg] / rng.f_min)
    else:
        p[neg] = 0.25
    return np.clip(p, 0.0, 1.0)


def train_error_proxy(
    data: FeatureMatrix, predictions, cfg: ForestConfig | None = None
) -> ForestModel:
    """Forest that learns where the base classifier errs.

    Proxy labels: 1 iff the base's label, one of ``predictions`` per row of
    data, is wrong. Samples the proxy later scores with probability exactly
    0 are the ones every tree considers safe, and they form the easy set.
    """
    cfg = cfg or ForestConfig()
    predictions = np.asarray(predictions)
    if predictions.shape != data.labels.shape:
        raise ValueError(
            f"train_error_proxy: {predictions.size} predictions for {data.n_samples} rows"
        )
    wrong = (predictions != data.labels).astype(np.int64)
    proxy = FeatureMatrix(values=data.values, labels=wrong, ids=data.ids)
    return train_random_forest(proxy, cfg)


class IdentityAdapter:
    """Passes a probability-native base's probabilities through (logistic or forest)."""

    def __init__(self, model: LinearModel | ForestModel):
        self.model = model

    def predict_probabilities(self, X: np.ndarray) -> np.ndarray:
        return self.model.predict_proba(X)

    # the benchmark's name for the same probabilities
    routing_probabilities = predict_probabilities


class SvmAdapter:
    """Maps SVM decision scores through the piecewise min-max transform."""

    def __init__(self, model: LinearModel, score_range: ScoreRange):
        self.model = model
        self.score_range = score_range

    @classmethod
    def fit(cls, model: LinearModel, *populations: FeatureMatrix) -> "SvmAdapter":
        """Build the adapter with f_min/f_max over every given score population."""
        scores = [model.decision_scores(m.values) for m in populations if m.n_samples > 0]
        return cls(model, ScoreRange.from_scores(*scores))

    def predict_probabilities(self, X: np.ndarray) -> np.ndarray:
        return decision_to_probability(self.model.decision_scores(X), self.score_range)

    # the benchmark's name for the same probabilities
    routing_probabilities = predict_probabilities


class KnnAdapter:
    """1-NN base whose probability is its error-proxy forest's q, signed by the label.

    The base's own probabilities are hard 0/1, so calibration on them is
    meaningless. Instead the probability is 1 - q/2 where the 1-NN label is 1
    and q/2, kept below 0.5, where it is 0: ``p >= 0.5`` is the 1-NN label even
    at q == 1. With the thresholds (0.0, 1.0) the easy set is exactly {q == 0}.
    """

    def __init__(self, model: NearestNeighborModel, proxy: ForestModel):
        self.model = model
        self.proxy = proxy

    @classmethod
    def fit(
        cls,
        model: NearestNeighborModel,
        train: FeatureMatrix,
        cfg: ForestConfig | None = None,
    ) -> "KnnAdapter":
        return cls(model, train_error_proxy(train, model.predict(train.values), cfg))

    def predict_probabilities(self, X: np.ndarray) -> np.ndarray:
        half_q = self.proxy.predict_proba(X) / 2.0
        below_half = np.nextafter(0.5, 0.0)
        return np.where(self.model.predict(X) == 1, 1.0 - half_q, np.minimum(half_q, below_half))
