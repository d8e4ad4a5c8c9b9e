"""Random forest built on bootstrap-bagged CART trees.

Used both as a probability-native base classifier and as the error proxy that
flags which samples a nearest-neighbour base is likely to get wrong. Trees
split on Gini impurity with midpoint thresholds between consecutive distinct
feature values; every feature is considered at every node.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..data import FeatureMatrix


@dataclass
class ForestConfig:
    n_trees: int = 50
    max_depth: int = 8
    min_leaf: int = 2
    seed: int = 0

    def __post_init__(self):
        for name in ("n_trees", "min_leaf"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"ForestConfig: {name} must be at least 1, got {value}")


@dataclass(frozen=True)
class _Node:
    """One tree node; leaves carry the positive-class fraction."""

    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None
    p1: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _gini(n: int, pos: int | float) -> float:
    if n == 0:
        return 0.0
    p = pos / n
    return 2.0 * p * (1.0 - p)


def _best_split(xs: np.ndarray, ys: np.ndarray, min_leaf: int):
    """Exhaustive midpoint search over all features.

    Row j of ``xs`` holds the node's values of feature j in ascending order,
    ties in sample order (a stable sort), and row j of ``ys`` the labels in
    that order. Returns (feature, threshold, weighted_gini) or None when no
    split leaves at least min_leaf samples on both sides. Ties keep the first
    candidate in scan order (lowest feature index, then lowest threshold).
    """
    n = xs.shape[1]
    # split after position i keeps i+1 samples on the left
    i = np.arange(min_leaf - 1, n - min_leaf)
    if len(i) == 0:
        return None
    prefix = np.cumsum(ys, axis=1)
    best = None
    best_score = np.inf
    for j in range(xs.shape[0]):
        x, prefix_pos = xs[j], prefix[j]
        total_pos = prefix_pos[-1]
        cut = i[x[i] < x[i + 1]]
        if len(cut) == 0:
            continue
        ln = (cut + 1).astype(np.float64)
        rn = n - ln
        lp = prefix_pos[cut]
        rp = total_pos - lp
        gl = 1.0 - (lp / ln) ** 2 - ((ln - lp) / ln) ** 2
        gr = 1.0 - (rp / rn) ** 2 - ((rn - rp) / rn) ** 2
        scores = (ln * gl + rn * gr) / n
        k = int(np.argmin(scores))
        if scores[k] < best_score:
            best_score = float(scores[k])
            best = (j, float((x[cut[k]] + x[cut[k] + 1]) / 2.0))
    if best is None:
        return None
    return best[0], best[1], best_score


def _grow(xs: np.ndarray, ys: np.ndarray, orders: np.ndarray, y: np.ndarray,
          depth: int, cfg: ForestConfig) -> _Node:
    """Grow the subtree of one node's samples.

    ``y`` holds the labels by sample, ``xs``/``ys`` the values and labels per
    feature in stable sorted order, and ``orders[j]`` the sample at each
    position of that order.
    """
    n = len(y)
    pos = int(y.sum())
    node_gini = _gini(n, pos)
    if depth >= cfg.max_depth or n < 2 * cfg.min_leaf or node_gini == 0.0:
        return _Node(p1=pos / n)
    found = _best_split(xs, ys, cfg.min_leaf)
    if found is None or found[2] >= node_gini:
        return _Node(p1=pos / n)
    j, t, _ = found
    go_left = np.zeros(n, dtype=bool)
    go_left[orders[j, : np.searchsorted(xs[j], t, side="right")]] = True
    return _Node(
        feature=j,
        threshold=t,
        left=_grow(*_child(xs, ys, orders, y, go_left), depth + 1, cfg),
        right=_grow(*_child(xs, ys, orders, y, ~go_left), depth + 1, cfg),
    )


def _child(xs: np.ndarray, ys: np.ndarray, orders: np.ndarray, y: np.ndarray,
           keep: np.ndarray):
    """The kept samples, still sorted per feature and renumbered.

    Dropping samples from a stable order leaves the stable order of the rest,
    so no node below the root sorts.
    """
    # compress on flat arrays: much faster than boolean indexing in 2-D
    kept = keep[orders].ravel()
    shape = (len(orders), -1)
    renumber = np.cumsum(keep) - 1
    return (xs.ravel().compress(kept).reshape(shape),
            ys.ravel().compress(kept).reshape(shape),
            renumber[orders.ravel().compress(kept)].reshape(shape),
            y.compress(keep))


def _tree_proba(node: _Node, X: np.ndarray, out: np.ndarray, rows: np.ndarray):
    if node.is_leaf:
        out[rows] = node.p1
        return
    go_left = X[rows, node.feature] <= node.threshold
    _tree_proba(node.left, X, out, rows[go_left])
    _tree_proba(node.right, X, out, rows[~go_left])


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[_Node, ...]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Positive-class probability: mean of per-tree leaf fractions."""
        X = np.asarray(X, dtype=np.float64)
        acc = np.zeros(X.shape[0])
        scratch = np.empty(X.shape[0])
        rows = np.arange(X.shape[0])
        for tree in self.trees:
            _tree_proba(tree, X, scratch, rows)
            acc += scratch
        return acc / len(self.trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.predict_proba(X) >= 0.5).astype(np.int64)


def forest_to_arrays(model: ForestModel) -> dict[str, np.ndarray]:
    """Flatten all trees into parallel arrays for persistence.

    Children are absolute node indices, -1 marks a leaf; roots lists each
    tree's root index in preorder layout.
    """
    feature: list[int] = []
    threshold: list[float] = []
    left: list[int] = []
    right: list[int] = []
    p1: list[float] = []
    roots: list[int] = []

    def add(node: _Node) -> int:
        idx = len(feature)
        feature.append(node.feature)
        threshold.append(node.threshold)
        p1.append(node.p1)
        left.append(-1)
        right.append(-1)
        if not node.is_leaf:
            left[idx] = add(node.left)
            right[idx] = add(node.right)
        return idx

    for tree in model.trees:
        roots.append(add(tree))
    return {
        "feature": np.asarray(feature, dtype=np.int64),
        "threshold": np.asarray(threshold, dtype=np.float64),
        "left": np.asarray(left, dtype=np.int64),
        "right": np.asarray(right, dtype=np.int64),
        "p1": np.asarray(p1, dtype=np.float64),
        "roots": np.asarray(roots, dtype=np.int64),
    }


def forest_from_arrays(arrays: dict[str, np.ndarray]) -> ForestModel:
    """Rebuild a ForestModel from forest_to_arrays output."""
    left = np.asarray(arrays["left"], dtype=np.int64)
    right = np.asarray(arrays["right"], dtype=np.int64)

    def build(i: int) -> _Node:
        if left[i] < 0:
            return _Node(p1=float(arrays["p1"][i]))
        return _Node(
            feature=int(arrays["feature"][i]),
            threshold=float(arrays["threshold"][i]),
            left=build(int(left[i])),
            right=build(int(right[i])),
        )

    return ForestModel(trees=tuple(build(int(r)) for r in arrays["roots"]))


def train_random_forest(data: FeatureMatrix, cfg: ForestConfig | None = None) -> ForestModel:
    """Fit a bagged forest; each tree draws its own bootstrap sample.

    Tree t uses default_rng([seed, t]) so forests are reproducible and
    individual trees stay independent of the total tree count.
    """
    cfg = cfg or ForestConfig()
    if data.n_samples == 0:
        raise ValueError("train_random_forest: training data is empty")
    X, y = data.values, data.labels
    n = data.n_samples
    # per feature, each value's rank among its distinct values (ties share)
    ranks = np.empty((data.n_features, n), dtype=np.int64)
    for j, column in enumerate(X.T):
        ranks[j] = np.unique(column, return_inverse=True)[1]
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng([cfg.seed, t])
        rows = rng.integers(0, n, size=n)
        # keys ordered by value, then by bootstrap position: one plain sort of
        # these unique keys gives the stable argsort of each sampled feature
        keys = ranks[:, rows] * n + np.arange(n)
        keys.sort(axis=1)
        orders = keys % n
        picked = rows[orders]
        xs = np.take_along_axis(X.T, picked, 1)
        trees.append(_grow(xs, y[picked], orders, y[rows], 0, cfg))
    return ForestModel(trees=tuple(trees))
