"""Evaluation reports: accuracy, positive-class F1, and error-delta accounting.

Error deltas follow the reported-results convention: negative means the
auxiliary classifier removed errors relative to the base.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCOPES = ("whole", "easy", "difficult", "combined")


@dataclass(frozen=True)
class EvaluationReport:
    accuracy: float
    f1: float
    fp: int
    fn: int
    n: int
    scope: str = "whole"

    def __post_init__(self):
        if self.scope not in SCOPES:
            raise ValueError(f"EvaluationReport: unknown scope {self.scope!r}")
        if self.fp + self.fn > self.n:
            raise ValueError("EvaluationReport: more errors than samples")
        if not (0.0 <= self.accuracy <= 1.0 and 0.0 <= self.f1 <= 1.0):
            raise ValueError("EvaluationReport: accuracy and f1 must lie in [0, 1]")

    @property
    def total_errors(self) -> int:
        return self.fp + self.fn


def evaluate(preds: np.ndarray, labels: np.ndarray, scope: str = "whole") -> EvaluationReport:
    """Confusion-count evaluation of binary predictions.

    F1 is computed for the positive class; the 0/0 cases (no predicted or no
    actual positives) collapse to 0 by convention.
    """
    preds = np.asarray(preds, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.int64)
    if preds.shape != labels.shape or preds.ndim != 1:
        raise ValueError("evaluate: preds and labels must be matching 1-D arrays")
    n = len(preds)
    if n == 0:
        raise ValueError("evaluate: empty input")
    for name, a in (("preds", preds), ("labels", labels)):
        if not np.isin(a, (0, 1)).all():
            raise ValueError(f"evaluate: {name} must be 0/1")
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    accuracy = (n - fp - fn) / n
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvaluationReport(accuracy=accuracy, f1=f1, fp=fp, fn=fn, n=n, scope=scope)


def delta_errors(base: EvaluationReport, aux: EvaluationReport) -> int:
    """aux_errors - base_errors over the same samples; negative = improvement."""
    if base.n != aux.n:
        raise ValueError("delta_errors: reports cover different sample counts")
    return aux.total_errors - base.total_errors


def errors_reduction(delta: int, base_errors: int) -> float | None:
    """-delta/base_errors as a percentage, 2-decimal rounded; None when base_errors = 0."""
    if base_errors < 0:
        raise ValueError("errors_reduction: base_errors must be non-negative")
    if base_errors == 0:
        return None
    return round(-delta / base_errors * 100.0, 2)

