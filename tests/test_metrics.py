"""Evaluation reports, error deltas, and the reduction percentage."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from guidedboost.metrics import (
    EvaluationReport,
    delta_errors,
    errors_reduction,
    evaluate,
)


def test_evaluate_hand_counts():
    preds = np.array([1, 1, 0, 0, 1, 0])
    labels = np.array([1, 0, 0, 1, 1, 0])
    rep = evaluate(preds, labels)
    assert rep.n == 6
    assert rep.fp == 1
    assert rep.fn == 1
    assert rep.total_errors == 2
    assert rep.accuracy == pytest.approx(4 / 6)
    # precision 2/3, recall 2/3
    assert rep.f1 == pytest.approx(2 / 3)
    assert rep.scope == "whole"


def test_f1_zero_when_no_positives_anywhere():
    rep = evaluate(np.zeros(4, dtype=int), np.zeros(4, dtype=int))
    assert rep.f1 == 0.0
    assert rep.accuracy == 1.0


def test_evaluate_validation():
    with pytest.raises(ValueError):
        evaluate(np.array([], dtype=int), np.array([], dtype=int))
    with pytest.raises(ValueError):
        evaluate(np.array([2]), np.array([1]))
    with pytest.raises(ValueError):
        evaluate(np.array([1, 0]), np.array([1]))
    with pytest.raises(ValueError):
        evaluate(np.array([0]), np.array([0]), scope="bogus")


def test_report_invariants():
    with pytest.raises(ValueError):
        EvaluationReport(accuracy=1.5, f1=0.0, fp=0, fn=0, n=1)
    with pytest.raises(ValueError):
        EvaluationReport(accuracy=0.5, f1=0.0, fp=3, fn=3, n=4)  # errors exceed n


def test_delta_errors_sign_convention():
    base = evaluate(np.array([1, 0, 1]), np.array([0, 1, 1]))  # 2 errors
    aux = evaluate(np.array([0, 1, 1]), np.array([0, 1, 1]))  # 0 errors
    assert delta_errors(base, aux) == -2  # negative means the auxiliary improved
    with pytest.raises(ValueError):
        delta_errors(base, evaluate(np.array([0, 1]), np.array([0, 1])))


def test_errors_reduction_reported_pairs():
    assert errors_reduction(-69, 540) == 12.78
    assert errors_reduction(-255, 631) == 40.41
    assert errors_reduction(0, 444) == 0.0


def test_errors_reduction_edge_cases():
    assert errors_reduction(5, 100) == -5.0  # got worse
    assert errors_reduction(-3, 0) is None  # undefined without base errors


@given(
    st.lists(
        st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=1, max_size=100
    )
)
def test_evaluate_ranges(pairs):
    preds = np.array([p for p, _ in pairs])
    labels = np.array([y for _, y in pairs])
    rep = evaluate(preds, labels)
    assert 0.0 <= rep.accuracy <= 1.0
    assert 0.0 <= rep.f1 <= 1.0
    assert 0 <= rep.total_errors <= rep.n
    assert rep.total_errors == int(np.sum(preds != labels))
