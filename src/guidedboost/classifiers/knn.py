"""Single-neighbour classifier.

Prediction is the label of the closest training sample under Euclidean
distance; exact distance ties go to the lowest training id. The model gives
labels only, hard 0/1 votes, which is why its adapter takes the probability
it calibrates on from an error-proxy forest.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import FeatureMatrix

# float64 entries per block of query-to-training distances (4 MB), so a
# block's temporaries stay in cache however many training rows there are
_BLOCK_ENTRIES = 1 << 19


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
        step = max(2, _BLOCK_ENTRIES // len(self.values))
        # qq + xx - 2 Q V^T, in that order, built in two buffers that every
        # block reuses
        dist = np.empty((min(step, X.shape[0]), len(self.values)))
        gram = np.empty_like(dist)
        for start in range(0, X.shape[0], step):
            Q = X[start : start + step]
            d2, g = dist[: len(Q)], gram[: len(Q)]
            np.matmul(Q, self.values.T, out=g)
            g *= 2.0
            np.add(np.einsum("ij,ij->i", Q, Q)[:, None], xx[None, :], out=d2)
            d2 -= g
            np.maximum(d2, 0.0, out=d2)
            best = d2.argmin(axis=1)
            mins = d2[np.arange(len(Q)), best]
            near = d2 <= (mins + 1e-9 * (1.0 + mins))[:, None]
            # a row with one near-minimal candidate keeps its argmin; a row
            # with several re-measures them exactly, so float noise from the
            # dot-product expansion cannot steal a tie
            winners[start : start + len(Q)] = best
            for r in np.flatnonzero(np.count_nonzero(near, axis=1) > 1):
                cand = np.flatnonzero(near[r])
                diffs = self.values[cand] - Q[r]
                exact = np.einsum("ij,ij->i", diffs, diffs)
                winners[start + r] = cand[np.argmin(exact)]
        return winners

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.labels[self.neighbor_positions(X)]
