"""1-NN classifier: Euclidean metric with lowest-id tie breaking."""
import numpy as np
import pytest
from conftest import make_blobs

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
    probs = model.predict_proba(data.values)
    assert np.array_equal(probs, data.labels.astype(float))
    assert set(np.unique(probs)) <= {0.0, 1.0}


def test_self_prediction_has_zero_errors():
    data = make_blobs(n_per_class=30, gap=0.5, scale=2.0, seed=4)
    model = NearestNeighborModel.fit(data)
    rep = prediction_report(model.predict_proba(data.values), data.labels, data.ids)
    assert np.array_equal(rep.predictions, data.labels)
    assert set(confusion_partition(rep, data.labels).tolist()) <= {"TP", "TN"}


def test_equidistant_tie_prefers_lowest_id():
    data = FeatureMatrix(
        values=np.array([[0.0], [2.0]]),
        labels=np.array([1, 0], dtype=np.int64),
        ids=np.array([5, 3], dtype=np.int64),
    )
    model = NearestNeighborModel.fit(data)
    assert model.neighbor_ids(np.array([[1.0]]))[0] == 3
    assert model.predict_proba(np.array([[1.0]]))[0] == 0.0  # id 3 is negative


def test_nearest_negative_gives_probability_zero():
    data = FeatureMatrix.from_arrays([[0.0, 0.0], [5.0, 5.0]], [0, 1])
    p = NearestNeighborModel.fit(data).predict_proba(np.array([[0.4, -0.2]]))
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
    got = model.neighbor_ids(queries)
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
    assert model.neighbor_ids(np.array([[1.0]]))[0] == 2
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
