"""Score-to-probability transform, error-proxy routing, and base adapters."""
import numpy as np
import pytest
from conftest import make_blobs

from guidedboost.classifiers.adapters import (
    IdentityAdapter,
    KnnAdapter,
    ScoreRange,
    SvmAdapter,
    decision_to_probability,
    train_error_proxy,
)
from guidedboost.classifiers.forest import ForestConfig, train_random_forest
from guidedboost.classifiers.knn import NearestNeighborModel
from guidedboost.classifiers.linear import train_linear_svm, train_logistic
from guidedboost.data import FeatureMatrix, ThresholdPair


# ------------------------------------------------------------- transform

def test_transform_anchor_points():
    rng = ScoreRange(f_min=-4.0, f_max=2.0)
    p = decision_to_probability(np.array([0.0, 2.0, -4.0, -2.0, 1.0]), rng)
    assert p[0] == 0.5  # sign boundary
    assert p[1] == 1.0  # f_max
    assert p[2] == 0.0  # f_min
    assert p[3] == 0.25  # halfway down the negative side
    assert p[4] == 0.75  # halfway up the positive side


def test_transform_degenerate_sides_map_to_subrange_midpoints():
    all_positive = ScoreRange(f_min=0.0, f_max=5.0)
    assert decision_to_probability(np.array([-1.0]), all_positive)[0] == 0.25
    all_negative = ScoreRange(f_min=-5.0, f_max=0.0)
    assert decision_to_probability(np.array([0.0, 3.0]), all_negative)[0] == 0.75
    assert decision_to_probability(np.array([0.0, 3.0]), all_negative)[1] == 0.75


def test_transform_rejects_non_finite():
    rng = ScoreRange(-1.0, 1.0)
    with pytest.raises(ValueError):
        decision_to_probability(np.array([np.nan]), rng)
    with pytest.raises(ValueError):
        decision_to_probability(np.array([np.inf]), rng)


def test_transform_contract_on_random_vectors():
    gen = np.random.default_rng(3)
    for _ in range(50):
        scores = gen.normal(scale=gen.uniform(0.1, 10.0), size=int(gen.integers(2, 120)))
        rng = ScoreRange.from_scores(scores)
        p = decision_to_probability(scores, rng)
        assert p.min() >= 0.0 and p.max() <= 1.0
        # sign agreement: binary predictions unchanged by the transform
        assert np.array_equal(p >= 0.5, scores >= 0.0)
        # order preservation with equality only at identical scores
        order = np.argsort(scores, kind="stable")
        ds = np.diff(scores[order])
        dp = np.diff(p[order])
        assert np.all(dp[ds > 0] > 0.0)
        assert np.all(dp[ds == 0] == 0.0)


def test_score_range_construction():
    r = ScoreRange.from_scores(np.array([-1.0, 2.0]), np.array([5.0]), np.array([0.5]))
    assert r.f_min == -1.0 and r.f_max == 5.0
    with pytest.raises(ValueError):
        ScoreRange.from_scores()
    for bad in ([np.nan], [1.0, np.nan, -1.0], [0.0, np.inf, 1.0], [-np.inf, 0.0]):
        with pytest.raises(ValueError, match="non-finite"):
            ScoreRange.from_scores(np.array(bad))
    with pytest.raises(ValueError):
        ScoreRange(2.0, 1.0)


# ----------------------------------------------------------- error proxy

def _planted_error_setup():
    """Base labels wrong exactly on the low cluster, right on the high one."""
    rng = np.random.default_rng(5)
    low = rng.uniform(0.0, 1.0, size=(30, 1))
    high = rng.uniform(10.0, 11.0, size=(30, 1))
    values = np.vstack([low, high])
    labels = np.zeros(60, dtype=np.int64)
    preds = np.concatenate([np.ones(30), np.zeros(30)])  # wrong on the low cluster
    data = FeatureMatrix.from_arrays(values, labels)
    return data, preds


def test_error_proxy_zero_when_base_is_perfect():
    data = make_blobs(n_per_class=20, seed=2)
    proxy = train_error_proxy(data, data.labels, ForestConfig(n_trees=10, seed=1))
    probs = proxy.predict_proba(data.values)
    assert np.all(probs == 0.0)


def test_error_proxy_flags_planted_error_region():
    data, preds = _planted_error_setup()
    proxy = train_error_proxy(data, preds, ForestConfig(n_trees=20, seed=3))
    probs = proxy.predict_proba(data.values)
    assert np.all(probs[:30] >= 0.5)  # the region the base gets wrong
    assert np.all(probs[30:] == 0.0)  # clean region: every tree agrees


def test_error_proxy_constant_forest_kills_easy_set():
    data, preds = _planted_error_setup()
    proxy = train_error_proxy(data, preds, ForestConfig(n_trees=1, max_depth=0, seed=0))
    probs = proxy.predict_proba(data.values)
    assert len(np.unique(probs)) == 1
    assert probs[0] > 0.0


def test_error_proxy_requires_one_prediction_per_row():
    data, preds = _planted_error_setup()
    with pytest.raises(ValueError, match="^train_error_proxy: 59 predictions for 60 rows$"):
        train_error_proxy(data, preds[:-1])


# -------------------------------------------------------------- adapters

def test_logistic_adapter_is_identity():
    data = make_blobs(seed=0)
    model = train_logistic(data)
    adapter = IdentityAdapter(model)
    assert np.array_equal(
        adapter.predict_probabilities(data.values), model.predict_proba(data.values)
    )
    assert np.array_equal(
        adapter.routing_probabilities(data.values), adapter.predict_probabilities(data.values)
    )


def test_forest_adapter_is_identity():
    data = make_blobs(seed=1)
    model = train_random_forest(data, ForestConfig(n_trees=5, seed=2))
    adapter = IdentityAdapter(model)
    assert np.array_equal(
        adapter.predict_probabilities(data.values), model.predict_proba(data.values)
    )


def test_svm_adapter_pools_all_populations():
    train = make_blobs(n_per_class=30, seed=3)
    val = make_blobs(n_per_class=5, seed=4)
    test = make_blobs(n_per_class=5, seed=5)
    model = train_linear_svm(train)
    adapter = SvmAdapter.fit(model, train, val, test)
    pooled = np.concatenate(
        [model.decision_scores(m.values) for m in (train, val, test)]
    )
    assert adapter.score_range.f_min == pooled.min()
    assert adapter.score_range.f_max == pooled.max()
    p = adapter.predict_probabilities(test.values)
    assert np.array_equal(p, adapter.routing_probabilities(test.values))
    assert np.array_equal(p >= 0.5, model.decision_scores(test.values) >= 0.0)


def test_knn_adapter_signs_the_proxy_probability_by_the_1nn_label():
    data, preds = _planted_error_setup()
    proxy = train_error_proxy(data, preds, ForestConfig(n_trees=20, seed=3))
    # both 1-NN labels in each cluster; each row is its own nearest neighbour
    labeled = FeatureMatrix(values=data.values, labels=np.arange(60) % 2, ids=data.ids)
    adapter = KnnAdapter(NearestNeighborModel.fit(labeled), proxy)
    q = proxy.predict_proba(data.values)
    one = labeled.labels == 1

    p = adapter.predict_probabilities(data.values)
    assert np.array_equal(p[one], 1.0 - q[one] / 2.0)
    assert np.array_equal(p[~one], np.minimum(q[~one] / 2.0, np.nextafter(0.5, 0.0)))
    # the prediction is the 1-NN label, also on a label-0 row that the proxy
    # is sure the 1-NN gets wrong
    assert np.any(~one & (q == 1.0))
    assert np.array_equal(p >= 0.5, one)
    # the thresholds (0, 1) that knn archives stored route easy where q == 0
    assert np.array_equal(ThresholdPair(0.0, 1.0).easy(p), q == 0.0)
