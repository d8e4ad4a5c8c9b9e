"""Random forest: split selection against an exhaustive oracle, bagging, IO."""
import numpy as np
import pytest
from conftest import make_blobs

from guidedboost.classifiers.forest import ForestConfig, train_random_forest
from guidedboost.data import FeatureMatrix


def oracle_best_split(X, y, min_leaf):
    """Plain double-loop split search: lowest weighted Gini, first in scan
    order (feature ascending, then threshold ascending) on ties."""
    n = len(y)
    best = None
    best_score = np.inf
    for j in range(X.shape[1]):
        xs = np.sort(X[:, j], kind="stable")
        for i in range(min_leaf - 1, n - min_leaf):
            if xs[i] >= xs[i + 1]:
                continue
            t = (xs[i] + xs[i + 1]) / 2.0
            left = X[:, j] <= t
            ln, rn = int(left.sum()), int((~left).sum())
            lp, rp = float(y[left].mean()), float(y[~left].mean())
            g = (
                ln * 2.0 * lp * (1.0 - lp) + rn * 2.0 * rp * (1.0 - rp)
            ) / n
            if g < best_score - 1e-12:
                best_score = g
                best = (j, t)
    return best, best_score


def bootstrap_rows(seed, tree_index, n):
    rng = np.random.default_rng([seed, tree_index])
    return rng.integers(0, n, size=n)


def test_depth_zero_single_class_prior():
    ones = FeatureMatrix.from_arrays(np.random.default_rng(0).normal(size=(10, 2)), np.ones(10, dtype=int))
    model = train_random_forest(ones, ForestConfig(n_trees=1, max_depth=0))
    assert np.all(model.predict_proba(ones.values) == 1.0)
    zeros = FeatureMatrix.from_arrays(ones.values, np.zeros(10, dtype=int))
    model = train_random_forest(zeros, ForestConfig(n_trees=1, max_depth=0))
    assert np.all(model.predict_proba(zeros.values) == 0.0)


def test_depth_zero_prior_is_bootstrap_prior():
    rng = np.random.default_rng(11)
    data = FeatureMatrix.from_arrays(rng.normal(size=(40, 3)), rng.integers(0, 2, 40))
    cfg = ForestConfig(n_trees=1, max_depth=0, seed=21)
    model = train_random_forest(data, cfg)
    rows = bootstrap_rows(21, 0, 40)
    expected = float(data.labels[rows].mean())
    assert np.all(model.predict_proba(data.values) == expected)


def test_pure_threshold_data_fits_exactly():
    x = np.concatenate([np.linspace(-3, -1, 20), np.linspace(1, 3, 20)])
    y = np.concatenate([np.zeros(20, dtype=int), np.ones(20, dtype=int)])
    data = FeatureMatrix.from_arrays(x[:, None], y)
    model = train_random_forest(data, ForestConfig(n_trees=10, max_depth=3, seed=4))
    assert np.array_equal(model.predict_proba(data.values) >= 0.5, y == 1)


def test_root_split_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    for seed in range(8):
        n = 30
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] + 0.5 * rng.normal(size=n) > 0).astype(int)
        data = FeatureMatrix.from_arrays(X, y)
        cfg = ForestConfig(n_trees=1, max_depth=1, min_leaf=2, seed=seed)
        model = train_random_forest(data, cfg)
        root = int(model.roots[0])

        rows = bootstrap_rows(seed, 0, n)
        Xb, yb = X[rows], y[rows]
        found, score = oracle_best_split(Xb, yb, 2)
        p = float(yb.mean())
        node_gini = 2.0 * p * (1.0 - p)
        if found is None or score >= node_gini:
            assert model.left[root] == -1  # no improving split: root is a leaf
        else:
            assert model.feature[root] == found[0]
            assert model.threshold[root] == pytest.approx(found[1])


def test_probability_is_mean_of_tree_leaves():
    data = make_blobs(n_per_class=30, n_features=2, gap=2.0, seed=9)
    model = train_random_forest(data, ForestConfig(n_trees=7, max_depth=4, seed=1))

    def walk(i, x):
        while model.left[i] >= 0:
            j = int(model.feature[i])
            i = int(model.left[i] if x[j] <= model.threshold[i] else model.right[i])
        return float(model.p1[i])

    probs = model.predict_proba(data.values)
    manual = np.array([
        np.mean([walk(int(r), x) for r in model.roots]) for x in data.values
    ])
    assert np.allclose(probs, manual)
    assert probs.min() >= 0.0 and probs.max() <= 1.0


def test_max_depth_respected():
    data = make_blobs(n_per_class=40, n_features=3, gap=0.5, scale=2.0, seed=13)
    model = train_random_forest(data, ForestConfig(n_trees=5, max_depth=2, seed=2))

    def depth(i):
        if model.left[i] < 0:
            return 0
        return 1 + max(depth(int(model.left[i])), depth(int(model.right[i])))

    assert max(depth(int(r)) for r in model.roots) <= 2


def test_forest_determinism_and_seed_sensitivity():
    data = make_blobs(n_per_class=25, gap=1.5, seed=6)
    a = train_random_forest(data, ForestConfig(n_trees=5, seed=3))
    b = train_random_forest(data, ForestConfig(n_trees=5, seed=3))
    c = train_random_forest(data, ForestConfig(n_trees=5, seed=4))
    assert np.array_equal(a.predict_proba(data.values), b.predict_proba(data.values))
    assert not np.array_equal(a.predict_proba(data.values), c.predict_proba(data.values))


def test_forest_validation():
    with pytest.raises(ValueError):
        train_random_forest(
            FeatureMatrix.from_arrays(np.zeros((0, 2)), np.zeros(0, dtype=int))
        )
    data = make_blobs(n_per_class=5)
    with pytest.raises(ValueError):
        train_random_forest(data, ForestConfig(n_trees=0))
    with pytest.raises(ValueError, match="max_depth must be at least 0, got -1"):
        ForestConfig(max_depth=-1)


def _reference_best_split(X, y, min_leaf):
    """The first split search: a stable argsort of every feature at every node."""
    n = len(y)
    best = None
    best_score = np.inf
    for j in range(X.shape[1]):
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        prefix_pos = np.cumsum(y[order])
        total_pos = prefix_pos[-1]
        i = np.arange(min_leaf - 1, n - min_leaf)
        if len(i) == 0:
            continue
        i = i[xs[i] < xs[i + 1]]
        if len(i) == 0:
            continue
        ln = (i + 1).astype(np.float64)
        rn = n - ln
        lp = prefix_pos[i]
        rp = total_pos - lp
        gl = 1.0 - (lp / ln) ** 2 - ((ln - lp) / ln) ** 2
        gr = 1.0 - (rp / rn) ** 2 - ((rn - rp) / rn) ** 2
        scores = (ln * gl + rn * gr) / n
        k = int(np.argmin(scores))
        if scores[k] < best_score:
            best_score = float(scores[k])
            best = (j, float((xs[i[k]] + xs[i[k] + 1]) / 2.0))
    return None if best is None else (*best, best_score)


def _reference_grow(X, y, depth, cfg, nodes):
    """Append one node's subtree to ``nodes`` in preorder, each node a row
    (feature, threshold, left, right, p1)."""
    n = len(y)
    pos = int(y.sum())
    p = pos / n
    node_gini = 2.0 * p * (1.0 - p)
    if depth >= cfg.max_depth or n < 2 * cfg.min_leaf or node_gini == 0.0:
        nodes.append((-1, 0.0, -1, -1, pos / n))
        return
    found = _reference_best_split(X, y, cfg.min_leaf)
    if found is None or found[2] >= node_gini:
        nodes.append((-1, 0.0, -1, -1, pos / n))
        return
    j, t, _ = found
    go_left = X[:, j] <= t
    here = len(nodes)
    nodes.append(None)  # filled in once the right child's index is known
    _reference_grow(X[go_left], y[go_left], depth + 1, cfg, nodes)
    right = len(nodes)
    _reference_grow(X[~go_left], y[~go_left], depth + 1, cfg, nodes)
    nodes[here] = (j, t, here + 1, right, 0.0)


def _tied_data(rng, n, d, levels):
    """Features drawn from a few repeated values, so most sorts hit ties."""
    X = rng.integers(0, levels, size=(n, d)) * 0.5 - 1.0
    y = ((X[:, 0] + 0.7 * rng.normal(size=n)) > 0).astype(np.int64)
    y[: n // 10] ^= 1  # label noise keeps the nodes impure
    return FeatureMatrix.from_arrays(X, y)


@pytest.mark.parametrize(
    "n, d, levels, min_leaf, max_depth",
    [
        (200, 4, 3, 1, 8),     # coarse values: ties everywhere
        (300, 3, 12, 2, 10),
        (150, 5, 1000, 3, 6),  # nearly distinct values
        (40, 2, 4, 10, 8),     # min_leaf = 10: nodes under 20 rows stop
        (21, 3, 5, 5, 8),      # children soon too small to split
        (8, 2, 8, 4, 3),       # n == 2 * min_leaf: one candidate cut at the root
    ],
)
def test_forest_matches_per_node_argsort_reference(n, d, levels, min_leaf, max_depth):
    rng = np.random.default_rng(n * 31 + d)
    data = _tied_data(rng, n, d, levels)
    cfg = ForestConfig(n_trees=4, max_depth=max_depth, min_leaf=min_leaf, seed=n)
    nodes, roots = [], []
    for t in range(cfg.n_trees):
        rows = bootstrap_rows(cfg.seed, t, n)
        roots.append(len(nodes))
        _reference_grow(data.values[rows], data.labels[rows], 0, cfg, nodes)
    expected = dict(zip(("feature", "threshold", "left", "right", "p1"), map(np.array, zip(*nodes))))
    expected["roots"] = np.array(roots)
    model = train_random_forest(data, cfg)
    assert len(nodes) > cfg.n_trees  # at least one tree split
    for key, value in expected.items():
        got = getattr(model, key)
        assert got.dtype == value.dtype and np.array_equal(got, value), key
