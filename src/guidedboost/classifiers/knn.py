"""Single-neighbour classifier.

Prediction is the label of the closest training sample under Euclidean
distance; exact distance ties go to the lowest training id. Probabilities are
therefore hard 0/1 votes, which is why this base model needs the error-proxy
route instead of threshold calibration.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import FeatureMatrix

_CHUNK = 256


@dataclass(frozen=True)
class NearestNeighborModel:
    values: np.ndarray
    labels: np.ndarray
    ids: np.ndarray

    @classmethod
    def fit(cls, data: FeatureMatrix) -> "NearestNeighborModel":
        if data.n_samples == 0:
            raise ValueError("NearestNeighborModel.fit: training data is empty")
        # ascending id order makes argmin's first-hit rule the lowest-id rule
        order = np.argsort(data.ids, kind="stable")
        return cls(
            values=data.values[order].copy(),
            labels=data.labels[order].copy(),
            ids=data.ids[order].copy(),
        )

    def neighbor_positions(self, X: np.ndarray) -> np.ndarray:
        """Index (into the sorted training arrays) of each query's winner."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.values.shape[1]:
            raise ValueError("neighbor_positions: query width does not match training data")
        xx = np.einsum("ij,ij->i", self.values, self.values)
        winners = np.empty(X.shape[0], dtype=np.int64)
        for start in range(0, X.shape[0], _CHUNK):
            Q = X[start : start + _CHUNK]
            qq = np.einsum("ij,ij->i", Q, Q)
            d2 = qq[:, None] + xx[None, :] - 2.0 * (Q @ self.values.T)
            np.maximum(d2, 0.0, out=d2)
            mins = d2.min(axis=1)
            # re-measure near-minimal candidates exactly so float noise from
            # the dot-product expansion cannot steal a tie
            for r in range(Q.shape[0]):
                tol = 1e-9 * (1.0 + mins[r])
                cand = np.flatnonzero(d2[r] <= mins[r] + tol)
                if len(cand) == 1:
                    winners[start + r] = cand[0]
                    continue
                diffs = self.values[cand] - Q[r]
                exact = np.einsum("ij,ij->i", diffs, diffs)
                winners[start + r] = cand[np.argmin(exact)]
        return winners

    def neighbor_ids(self, X: np.ndarray) -> np.ndarray:
        return self.ids[self.neighbor_positions(X)]

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.labels[self.neighbor_positions(X)]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Degenerate probabilities: 1.0 where the neighbour is positive."""
        return self.predict(X).astype(np.float64)

