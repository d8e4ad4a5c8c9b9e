"""1-NN classifier: Euclidean metric with lowest-id tie breaking."""
import numpy as np
import pytest
from conftest import make_blobs

from guidedboost.classifiers import knn
from guidedboost.classifiers.knn import NearestNeighborModel
from guidedboost.data import FeatureMatrix, confusion_partition, prediction_report


def brute_force_neighbor(train_values, train_ids, x):
    d = np.array([float(np.linalg.norm(row - x)) for row in train_values])
    best = d.min()
    tied = np.flatnonzero(d <= best)
    return int(min(train_ids[tied]))


def test_training_point_query_returns_own_label():
    data = make_blobs(n_per_class=10, seed=0)
    model = NearestNeighborModel.fit(data)
    probs = model.predict(data.values).astype(float)
    assert np.array_equal(probs, data.labels.astype(float))
    assert set(np.unique(probs)) <= {0.0, 1.0}


def test_self_prediction_has_zero_errors():
    data = make_blobs(n_per_class=30, gap=0.5, scale=2.0, seed=4)
    model = NearestNeighborModel.fit(data)
    rep = prediction_report(model.predict(data.values).astype(float), data.labels, data.ids)
    assert np.array_equal(rep.predictions, data.labels)
    assert set(confusion_partition(rep.probabilities, data.labels).tolist()) <= {"TP", "TN"}


def test_equidistant_tie_prefers_lowest_id():
    data = FeatureMatrix(
        values=np.array([[0.0], [2.0]]),
        labels=np.array([1, 0], dtype=np.int64),
        ids=np.array([5, 3], dtype=np.int64),
    )
    model = NearestNeighborModel.fit(data)
    assert model.ids[model.neighbor_positions(np.array([[1.0]]))][0] == 3
    assert model.predict(np.array([[1.0]]))[0] == 0.0  # id 3 is negative


def test_nearest_negative_gives_probability_zero():
    data = FeatureMatrix.from_arrays([[0.0, 0.0], [5.0, 5.0]], [0, 1])
    p = NearestNeighborModel.fit(data).predict(np.array([[0.4, -0.2]]))
    assert p[0] == 0.0


def test_matches_brute_force_oracle():
    rng = np.random.default_rng(17)
    train = FeatureMatrix(
        values=rng.normal(size=(40, 4)),
        labels=rng.integers(0, 2, 40).astype(np.int64),
        ids=rng.permutation(400)[:40].astype(np.int64),
    )
    model = NearestNeighborModel.fit(train)
    queries = rng.normal(size=(60, 4))
    got = model.ids[model.neighbor_positions(queries)]
    want = [brute_force_neighbor(train.values, train.ids, q) for q in queries]
    assert np.array_equal(got, want)


def test_duplicate_training_rows_resolve_by_id():
    # two identical rows with different labels: the lower id decides
    data = FeatureMatrix(
        values=np.array([[1.0], [1.0]]),
        labels=np.array([1, 0], dtype=np.int64),
        ids=np.array([9, 2], dtype=np.int64),
    )
    model = NearestNeighborModel.fit(data)
    assert model.ids[model.neighbor_positions(np.array([[1.0]]))][0] == 2
    assert model.predict(np.array([[1.0]]))[0] == 0


def test_knn_validation():
    with pytest.raises(ValueError):
        NearestNeighborModel.fit(
            FeatureMatrix.from_arrays(np.zeros((0, 2)), np.zeros(0, dtype=int))
        )
    data = make_blobs(n_per_class=5)
    model = NearestNeighborModel.fit(data)
    with pytest.raises(ValueError):
        model.predict(np.zeros((2, 99)))


def reference_neighbor_positions(model, X):
    """The per-row candidate loop that neighbor_positions replaced."""
    xx = np.einsum("ij,ij->i", model.values, model.values)
    winners = np.empty(X.shape[0], dtype=np.int64)
    for start in range(0, X.shape[0], 256):
        Q = X[start : start + 256]
        qq = np.einsum("ij,ij->i", Q, Q)
        d2 = qq[:, None] + xx[None, :] - 2.0 * (Q @ model.values.T)
        np.maximum(d2, 0.0, out=d2)
        mins = d2.min(axis=1)
        for r in range(Q.shape[0]):
            tol = 1e-9 * (1.0 + mins[r])
            cand = np.flatnonzero(d2[r] <= mins[r] + tol)
            if len(cand) == 1:
                winners[start + r] = cand[0]
                continue
            diffs = model.values[cand] - Q[r]
            exact = np.einsum("ij,ij->i", diffs, diffs)
            winners[start + r] = cand[np.argmin(exact)]
    return winners


@pytest.mark.parametrize("block_entries", [None, 7 * 400], ids=["one-block", "7-row-blocks"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_neighbor_positions_match_the_per_row_reference(seed, block_entries, monkeypatch):
    if block_entries is not None:
        monkeypatch.setattr(knn, "_BLOCK_ENTRIES", block_entries)
    rng = np.random.default_rng(seed)
    # integer grid points: exact duplicates and exactly equidistant pairs
    grid = rng.integers(-3, 4, size=(150, 3)).astype(np.float64)
    spread = rng.normal(size=(150, 3)) * 10.0
    # mirror pairs c +- d: exactly equidistant from c, and exact when
    # re-measured, but the dot-product expansion rounds them apart
    centres = rng.uniform(9.0, 15.0, size=(40, 3))
    offsets = rng.integers(1, 9, size=(40, 3)) / 64 * rng.choice([-1, 1], size=(40, 3))
    values = np.vstack([grid, spread, grid[:20], centres + offsets, centres - offsets])
    n = len(values)
    assert n == 400  # 20 duplicate rows of grid
    train = FeatureMatrix(
        values=values,
        labels=rng.integers(0, 2, n).astype(np.int64),
        ids=rng.permutation(10 * n)[:n].astype(np.int64),
    )
    model = NearestNeighborModel.fit(train)
    queries = np.vstack([
        grid[:100],                               # on a (duplicated) training row
        (grid[:75] + grid[75:]) / 2.0,            # midway between two rows
        rng.integers(-3, 4, size=(200, 3)) + 0.5,  # grid cell centres: up to 8-way ties
        spread[:50] + rng.normal(size=(50, 3)) * 1e-3,
        centres,
        rng.normal(size=(200, 3)) * 5.0,
    ])
    got = model.neighbor_positions(queries)
    want = reference_neighbor_positions(model, queries)
    assert np.array_equal(got, want)
    # the fixture plants ties: many queries have several candidates at the
    # minimum, and on those the lowest id must win
    d = np.linalg.norm(model.values[None, :, :] - queries[:, None, :], axis=2)
    tied = (d == d.min(axis=1, keepdims=True)).sum(axis=1) > 1
    assert tied.sum() > 100
    for q in np.flatnonzero(tied):
        assert model.ids[got[q]] == model.ids[d[q] == d[q].min()].min()
