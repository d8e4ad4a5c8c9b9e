"""Random forest built on bootstrap-bagged CART trees.

Used both as a probability-native base classifier and as the error proxy that
flags which samples a nearest-neighbour base is likely to get wrong. Trees
split on Gini impurity with midpoint thresholds between consecutive distinct
feature values; every feature is considered at every node.

A fitted forest is six flat arrays, the layout the pipeline archive stores
as is. Every tree's nodes sit in preorder, one tree after another, and
``roots`` holds each tree's root index. Node i is a leaf iff
``left[i] == -1``; a leaf has ``feature -1``, ``threshold 0.0``, children
``-1`` and ``p1`` its positive-class fraction. A split node sends a row left
iff ``x[feature] <= threshold``, holds the absolute indices of its children
(the left child is always ``i + 1``) and has ``p1 0.0``. ``feature``,
``left``, ``right`` and ``roots`` are int64, ``threshold`` and ``p1``
float64.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from ..data import FeatureMatrix
from ..parallel import run_all


@dataclass
class ForestConfig:
    n_trees: int = 50
    max_depth: int = 8
    min_leaf: int = 2
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_trees", 1), ("max_depth", 0), ("min_leaf", 1)):
            value = getattr(self, name)
            if value < least:
                raise ValueError(f"ForestConfig: {name} must be at least {least}, got {value}")


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
          depth: int, cfg: ForestConfig, nodes: list[list]) -> None:
    """Append the subtree of one node's samples to ``nodes`` in preorder.

    Each node is a row ``[feature, threshold, left, right, p1]``. ``y`` holds
    the labels by sample, ``xs``/``ys`` the values and labels per feature in
    stable sorted order, and ``orders[j]`` the sample at each position of that
    order.
    """
    n = len(y)
    pos = int(y.sum())
    node_gini = _gini(n, pos)
    leaf = [-1, 0.0, -1, -1, pos / n]
    if depth >= cfg.max_depth or n < 2 * cfg.min_leaf or node_gini == 0.0:
        nodes.append(leaf)
        return
    found = _best_split(xs, ys, cfg.min_leaf)
    if found is None or found[2] >= node_gini:
        nodes.append(leaf)
        return
    j, t, _ = found
    node = [j, t, -1, -1, 0.0]
    nodes.append(node)
    go_left = np.zeros(n, dtype=bool)
    go_left[orders[j, : np.searchsorted(xs[j], t, side="right")]] = True
    node[2] = len(nodes)
    _grow(*_child(xs, ys, orders, y, go_left), depth + 1, cfg, nodes)
    node[3] = len(nodes)
    _grow(*_child(xs, ys, orders, y, ~go_left), depth + 1, cfg, nodes)


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


@dataclass(frozen=True)
class ForestModel:
    """The fitted trees as flat preorder arrays (see the module docstring)."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    p1: np.ndarray
    roots: np.ndarray

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Positive-class probability: mean of per-tree leaf fractions."""
        X = np.asarray(X, dtype=np.float64)
        acc = np.zeros(X.shape[0])
        scratch = np.empty(X.shape[0])
        for root in self.roots:
            # each pending node with the rows that reach it; the subsets are
            # disjoint, so the order leaves are filled in does not matter
            pending = [(root, np.arange(X.shape[0]))]
            while pending:
                i, rows = pending.pop()
                if self.left[i] < 0:
                    scratch[rows] = self.p1[i]
                    continue
                go_left = X[rows, self.feature[i]] <= self.threshold[i]
                pending.append((self.right[i], rows[~go_left]))
                pending.append((self.left[i], rows[go_left]))
            acc += scratch
        return acc / len(self.roots)


def train_random_forest(data: FeatureMatrix, cfg: ForestConfig | None = None) -> ForestModel:
    """Fit a bagged forest; each tree draws its own bootstrap sample.

    Tree t uses default_rng([seed, t]) so forests are reproducible and
    individual trees stay independent of the total tree count and of each
    other. So the trees grow side by side (``run_all``), each into its own
    node list, and the arrays join the lists in tree order.
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

    def tree(t: int) -> list[list]:
        """Tree t's nodes in preorder, child indices counted from its root."""
        rng = np.random.default_rng([cfg.seed, t])
        rows = rng.integers(0, n, size=n)
        # keys ordered by value, then by bootstrap position: one plain sort of
        # these unique keys gives the stable argsort of each sampled feature
        keys = ranks[:, rows] * n + np.arange(n)
        keys.sort(axis=1)
        orders = keys % n
        picked = rows[orders]
        xs = np.take_along_axis(X.T, picked, 1)
        nodes: list[list] = []
        _grow(xs, y[picked], orders, y[rows], 0, cfg, nodes)
        return nodes

    trees = run_all([partial(tree, t) for t in range(cfg.n_trees)])
    sizes = [len(nodes) for nodes in trees]
    roots = np.cumsum([0, *sizes[:-1]])
    feature, threshold, left, right, p1 = zip(*(node for nodes in trees for node in nodes))
    left, right = np.array(left, dtype=np.int64), np.array(right, dtype=np.int64)
    split = left >= 0
    shift = np.repeat(roots, sizes)[split]
    left[split] += shift
    right[split] += shift
    return ForestModel(
        feature=np.array(feature, dtype=np.int64),
        threshold=np.array(threshold, dtype=np.float64),
        left=left,
        right=right,
        p1=np.array(p1, dtype=np.float64),
        roots=roots.astype(np.int64),
    )
