"""Core container invariants: matrices, reports, thresholds, partitions."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from guidedboost.data import (
    CONFUSION_TAGS,
    FeatureMatrix,
    SplitAssignment,
    ThresholdPair,
    confusion_partition,
    prediction_report,
)
from guidedboost.thresholding import ToleratedCounts, accumulated_error_curve, select_thresholds


def test_feature_matrix_basic():
    fm = FeatureMatrix.from_arrays([[1.0, 2.0], [3.0, 4.0]], [0, 1])
    assert fm.n_samples == 2
    assert fm.n_features == 2
    assert np.array_equal(fm.ids, [0, 1])
    assert fm.values.dtype == np.float64
    assert fm.labels.dtype == np.int64


def test_feature_matrix_rejects_bad_input():
    for bad in (np.nan, np.inf, -np.inf):
        for cell in ((0, 0), (1, 1), (2, 2)):  # first, middle and last cell
            values = np.arange(9.0).reshape(3, 3)
            values[cell] = bad
            with pytest.raises(ValueError, match="finite"):
                FeatureMatrix.from_arrays(values, [0, 1, 0])
    assert FeatureMatrix.from_arrays(np.zeros((0, 3)), []).n_samples == 0
    assert FeatureMatrix.from_arrays(np.zeros((2, 0)), [0, 1]).n_features == 0
    huge = FeatureMatrix.from_arrays(np.full((2, 3), 1e308), [0, 1])
    assert (huge.values == 1e308).all()
    with pytest.raises(ValueError):
        FeatureMatrix.from_arrays([[1.0]], [2])
    with pytest.raises(ValueError):
        FeatureMatrix.from_arrays([1.0, 2.0], [0, 1])  # 1-D values
    with pytest.raises(ValueError):
        FeatureMatrix(
            values=np.zeros((2, 1)),
            labels=np.array([0, 1], dtype=np.int64),
            ids=np.array([5, 5], dtype=np.int64),  # duplicate ids
        )


@pytest.mark.parametrize("n", [4000, 40000])
def test_feature_matrix_checks_values_without_a_full_size_temporary(n):
    def peak(width):
        values = np.ones((n, width))
        labels, ids = np.zeros(n, dtype=np.int64), np.arange(n)
        tracemalloc.start()
        try:
            FeatureMatrix(values=values, labels=labels, ids=ids)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # labels and ids cost the same at any width; the values check adds a
    # constant, where one bool per cell would add n * 127 bytes
    assert peak(128) - peak(1) < 16_384


@pytest.mark.parametrize(
    "ids",
    [[5, 5], [-3, 1, -3], [0, -1, 2, -1], [7, 3, 9, 3, 8], [-2**62, 2**62, -2**62]],
)
def test_feature_matrix_rejects_duplicate_ids(ids):
    n = len(ids)
    with pytest.raises(ValueError, match="ids must be unique"):
        FeatureMatrix(values=np.zeros((n, 1)), labels=np.zeros(n, dtype=np.int64), ids=ids)


@pytest.mark.parametrize("ids", [[], [7], [-1], [-2, -1, 0], [9, -4, 3, 0, -7], [-2**62, 2**62]])
def test_feature_matrix_accepts_unique_ids(ids):
    n = len(ids)
    fm = FeatureMatrix(values=np.zeros((n, 1)), labels=np.zeros(n, dtype=np.int64), ids=ids)
    assert np.array_equal(fm.ids, ids)  # kept in the given order


def test_feature_matrix_is_immutable():
    fm = FeatureMatrix.from_arrays([[1.0], [2.0]], [0, 1])
    with pytest.raises(ValueError):
        fm.values[0, 0] = 9.0


def test_subset_and_positions():
    fm = FeatureMatrix(
        values=np.arange(8.0).reshape(4, 2),
        labels=np.array([0, 1, 0, 1], dtype=np.int64),
        ids=np.array([10, 11, 12, 13], dtype=np.int64),
    )
    sub = fm.subset(np.array([2, 0]))
    assert np.array_equal(sub.ids, [12, 10])
    assert np.array_equal(sub.values, [[4.0, 5.0], [0.0, 1.0]])

    by_ids = fm.subset_by_ids([13, 11])
    # current row order is preserved, not the requested order
    assert np.array_equal(by_ids.ids, [11, 13])

    pos = fm.positions_of(np.array([13, 10]))
    assert np.array_equal(pos, [3, 0])
    with pytest.raises(KeyError):
        fm.positions_of(np.array([99]))


def test_with_features():
    fm = FeatureMatrix.from_arrays([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [0, 1])
    cut = fm.with_features(np.array([0, 2]))
    assert cut.n_features == 2
    assert np.array_equal(cut.values, [[1.0, 3.0], [4.0, 6.0]])
    assert np.array_equal(cut.ids, fm.ids)


def test_prediction_report_factory_and_confusion():
    probs = np.array([0.9, 0.2, 0.6, 0.4])
    labels = np.array([1, 1, 0, 0])
    rep = prediction_report(probs, labels, np.arange(4))
    assert np.array_equal(rep.predictions, [1, 0, 1, 0])
    assert confusion_partition(probs, labels).tolist() == ["TP", "FN", "FP", "TN"]
    with pytest.raises(ValueError, match="4 probabilities for 3 labels"):
        confusion_partition(probs, labels[:3])
    with pytest.raises(ValueError, match="equal length"):
        prediction_report(probs, labels[:3], np.arange(4))
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        prediction_report(probs + 0.2, labels, np.arange(4))


@pytest.mark.parametrize("bad", [np.nan, -0.1, 1.1, np.inf])
def test_a_probability_outside_0_1_fails_both_rules(bad):
    """A NaN fails every comparison, so a range test written as two
    out-of-range comparisons lets it through."""
    probs, labels = np.array([bad, 0.7]), np.array([1, 1])
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        prediction_report(probs, labels, np.arange(2))
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        confusion_partition(probs, labels)
    tags = np.array(["FN", "TP"])
    with pytest.raises(ValueError, match=r"^select_thresholds: probabilities must lie in \[0, 1\]$"):
        select_thresholds(probs, tags, ToleratedCounts(0, 0))
    with pytest.raises(ValueError,
                       match=r"^accumulated_error_curve: probabilities must lie in \[0, 1\]$"):
        accumulated_error_curve(probs, tags, np.array([0.5]))


def test_boundary_probability_is_positive_prediction():
    rep = prediction_report(np.array([0.5]), np.array([0]), np.array([7]))
    assert rep.predictions[0] == 1
    assert confusion_partition(rep.probabilities, np.array([0]))[0] == "FP"


def test_threshold_pair_bounds():
    ThresholdPair(0.0, 1.0)
    ThresholdPair(0.5, 0.5)
    for th_n, th_p in [(0.6, 0.9), (0.2, 0.4), (-0.1, 0.9), (0.1, 1.1)]:
        with pytest.raises(ValueError):
            ThresholdPair(th_n, th_p)


def test_split_assignment_rejects_overlap():
    with pytest.raises(ValueError):
        SplitAssignment(easy_ids=frozenset({1, 2}), difficult_ids=frozenset({2, 3}))
    with pytest.raises(ValueError):
        SplitAssignment(easy_ids=[1, 2], difficult_ids={2, 3})
    a = SplitAssignment(easy_ids=[1, 2], difficult_ids={3})
    assert a.easy_ids == frozenset({1, 2}) and type(a.difficult_ids) is frozenset


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.integers(min_value=0, max_value=1),
        ),
        min_size=1,
        max_size=60,
    )
)
def test_confusion_partition_partitions_ids(rows):
    probs = np.array([r[0] for r in rows])
    labels = np.array([r[1] for r in rows])
    rep = prediction_report(probs, labels, np.arange(len(rows)))
    tags = confusion_partition(probs, labels)
    # every row gets exactly one tag
    assert tags.shape == (len(rows),)
    assert set(tags.tolist()) <= set(CONFUSION_TAGS)
    # error tags sit exactly where prediction and label disagree
    assert np.array_equal(np.isin(tags, ("FP", "FN")), rep.predictions != labels)
    # the tag's second letter is the prediction: P for 1, N for 0
    assert [t[1] for t in tags] == ["P" if p else "N" for p in rep.predictions]
