"""Tolerated-error budgets, threshold calibration, and easy/difficult splitting.

Calibration reads the base classifier's validation confusion tags (one
"TP"/"FP"/"TN"/"FN" per row, aligned with the probabilities) and pushes a
pair of probability thresholds outward from 0.5 until the samples outside
them (the easy set) hold no more than the tolerated number of FPs and FNs.
Everything inside the open interval is difficult and goes to the auxiliary
stage; `ThresholdPair.easy` is the one place that rule is written.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .data import SplitAssignment, ThresholdPair, check_probabilities


@dataclass(frozen=True)
class ToleranceConfig:
    """Percentage of validation FPs (X) and FNs (Y) allowed into the easy set."""

    X: float = 5.0
    Y: float = 5.0

    def __post_init__(self):
        if not (0.0 <= self.X <= 100.0 and 0.0 <= self.Y <= 100.0):
            raise ValueError("ToleranceConfig: X and Y must lie in [0, 100]")


@dataclass(frozen=True)
class ToleratedCounts:
    tolerated_fps: int
    tolerated_fns: int

    def __post_init__(self):
        if self.tolerated_fps < 0 or self.tolerated_fns < 0:
            raise ValueError("ToleratedCounts: counts must be non-negative")


def tolerated_counts(tolerance: ToleranceConfig, fp_v: int, fn_v: int) -> ToleratedCounts:
    """floor(X*FP_v/100) and floor(Y*FN_v/100); floor keeps the budget honest."""
    if fp_v < 0 or fn_v < 0:
        raise ValueError("tolerated_counts: error counts must be non-negative")
    return ToleratedCounts(
        tolerated_fps=math.floor(tolerance.X * fp_v / 100.0),
        tolerated_fns=math.floor(tolerance.Y * fn_v / 100.0),
    )


def _extreme(p: np.ndarray, is_err: np.ndarray, budget: int, side: int) -> float:
    """The cut on one side of 0.5 that leaves at most `budget` errors easy.

    Side +1: the smallest t with at most `budget` errors at p >= t. Side -1:
    the largest t with at most `budget` errors at p <= t, found as side +1 on
    -p (negation is exact). Candidates are the distinct probabilities plus the
    0.5 floor. When even the most extreme probability is over budget, the cut
    moves just past it and the easy side is empty; the cut is clamped to
    [0, 1], so errors at exactly 0.0 or 1.0 can never be quarantined.
    """
    if p.size == 0 or int(is_err.sum()) <= budget:
        return 0.5
    order = np.argsort(-side * p, kind="stable")
    qs = side * p[order]
    cum = np.cumsum(is_err[order])
    run_end = np.flatnonzero(np.r_[qs[1:] != qs[:-1], True])
    counts = cum[run_end]  # errors with side * p >= each distinct value, descending
    values = qs[run_end]
    ok = np.flatnonzero(counts <= budget)
    if ok.size == 0:
        # the clamp of -p's cut is -0.0, so a th_n clamped to 0.0 comes back as +0.0
        return side * min(float(np.nextafter(values[0], np.inf)), 1.0 if side > 0 else -0.0)
    return side * float(values[ok.max()])


def select_thresholds(
    val_probs: np.ndarray, confusion: np.ndarray, tolerated: ToleratedCounts
) -> ThresholdPair:
    """Calibrate (th_n, th_p) on validation probabilities.

    th_p is the smallest positive-side cut whose inclusive easy side
    {p >= th_p} holds at most tolerated_fps validation FPs; th_n mirrors it
    for FNs on {p <= th_n}. When the whole side fits the budget the
    threshold collapses to 0.5 (that side is entirely easy); when no cut
    fits, it moves just outside the observed range (that side is entirely
    difficult).

    Args:
        val_probs: base-classifier probabilities on the validation set.
        confusion: the base's confusion tag of each validation row, aligned
            with val_probs (see data.confusion_partition).
        tolerated: error budget from tolerated_counts.
    """
    p = np.asarray(val_probs, dtype=np.float64)
    confusion = np.asarray(confusion)
    if p.shape != confusion.shape or p.ndim != 1:
        raise ValueError("select_thresholds: probs and tags must be matching 1-D arrays")
    check_probabilities(p, "select_thresholds: ")
    pos = p >= 0.5
    th_p = _extreme(p[pos], confusion[pos] == "FP", tolerated.tolerated_fps, +1)
    th_n = _extreme(p[~pos], confusion[~pos] == "FN", tolerated.tolerated_fns, -1)
    return ThresholdPair(th_n=th_n, th_p=th_p)


def split_dataset(
    probs: np.ndarray, thresholds: ThresholdPair, ids: np.ndarray | None = None
) -> SplitAssignment:
    """Partition sample ids into easy (``thresholds.easy``) and difficult
    (strictly inside the open interval)."""
    p = np.asarray(probs, dtype=np.float64)
    if ids is None:
        ids = np.arange(p.size, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    if p.shape != ids.shape or p.ndim != 1:
        raise ValueError("split_dataset: probs and ids must be matching 1-D arrays")
    easy = thresholds.easy(p)
    return SplitAssignment(
        easy_ids=frozenset(ids[easy].tolist()),
        difficult_ids=frozenset(ids[~easy].tolist()),
    )


@dataclass(frozen=True)
class CurvePoint:
    """One point of the accumulated-error curve: side is 'fn' below 0.5, 'fp' at

    or above; count is the number of that error type captured by the cut."""

    threshold: float
    side: str
    count: int


def accumulated_error_curve(
    probs: np.ndarray, confusion: np.ndarray, grid: np.ndarray
) -> list[CurvePoint]:
    """Accumulated FNs (p <= t for t < 0.5) and FPs (p >= t for t >= 0.5).

    ``confusion`` holds the confusion tag of each row, aligned with probs.
    Sweeping the grid shows how many errors each candidate threshold would
    leave on the easy side, which is what calibration trades off.
    """
    p = np.asarray(probs, dtype=np.float64)
    confusion = np.asarray(confusion)
    if p.shape != confusion.shape or p.ndim != 1:
        raise ValueError("accumulated_error_curve: probs and tags must be matching 1-D arrays")
    check_probabilities(p, "accumulated_error_curve: ")
    grid = np.asarray(grid, dtype=np.float64)
    # a NaN carries through min and max and fails both comparisons
    if grid.size and not (0.0 <= grid.min() and grid.max() <= 1.0):
        raise ValueError("accumulated_error_curve: grid values outside [0, 1]")
    is_fp = confusion == "FP"
    is_fn = confusion == "FN"
    points = []
    for t in grid:
        if t < 0.5:
            points.append(CurvePoint(float(t), "fn", int(np.sum(is_fn & (p <= t)))))
        else:
            points.append(CurvePoint(float(t), "fp", int(np.sum(is_fp & (p >= t)))))
    return points


def curve_to_csv(points: list[CurvePoint]) -> str:
    """Serialize curve points to CSV with columns threshold, side, count."""
    buf = io.StringIO()
    buf.write("threshold,side,count\n")
    for pt in points:
        buf.write(f"{pt.threshold},{pt.side},{pt.count}\n")
    return buf.getvalue()
