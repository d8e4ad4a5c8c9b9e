"""Core data types shared across the pipeline.

Datasets, per-sample prediction reports, calibrated threshold pairs with the
easy-row rule they define, the easy/difficult id sets of a split, and the
per-row confusion tags of a base. Arrays that travel together (a dataset, its
report, its probabilities, its tags) are aligned row by row. All types are
immutable after construction (array buffers are frozen), so they can be
shared freely between parallel workers.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

CONFUSION_TAGS = ("TP", "FP", "TN", "FN")


def _frozen(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class FeatureMatrix:
    """A tabular dataset with binary labels and stable sample ids.

    ``values`` is a dense (n_samples, n_features) float64 matrix. ``ids`` are
    unique integers assigned once at load time and kept by every subset, so a
    row can be traced back to the loaded data. Views derived from one matrix
    (reports, probabilities, confusion tags) align with it by row position.
    """

    values: np.ndarray
    labels: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        values = _frozen(np.asarray(self.values, dtype=np.float64))
        labels = _frozen(np.asarray(self.labels, dtype=np.int64))
        ids = _frozen(np.asarray(self.ids, dtype=np.int64))
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if labels.shape != (values.shape[0],):
            raise ValueError(
                f"labels length {labels.shape} does not match {values.shape[0]} samples"
            )
        if ids.shape != (values.shape[0],):
            raise ValueError("ids length does not match number of samples")
        if labels.size and not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        # equal neighbours after a sort; np.unique took ~80x longer on 320k
        # ids with numpy 2.4
        s = np.sort(ids)
        if (s[1:] == s[:-1]).any():
            raise ValueError("ids must be unique")
        # min and max need no n-by-w temporary; a NaN carries through both,
        # and an infinity is one of them
        if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise ValueError("feature values must be finite")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "ids", ids)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @classmethod
    def from_arrays(cls, values, labels) -> "FeatureMatrix":
        """Build a matrix with dense ids 0..n-1 assigned by row order."""
        values = np.asarray(values, dtype=np.float64)
        return cls(values=values, labels=np.asarray(labels), ids=np.arange(len(values)))

    def subset(self, positions: np.ndarray) -> "FeatureMatrix":
        """Row subset by positional index; original ids are preserved."""
        positions = np.asarray(positions, dtype=np.int64)
        return FeatureMatrix(
            values=self.values[positions],
            labels=self.labels[positions],
            ids=self.ids[positions],
        )

    def subset_by_ids(self, wanted_ids) -> "FeatureMatrix":
        """Row subset by id membership, rows kept in current order."""
        mask = np.isin(self.ids, np.fromiter(wanted_ids, dtype=np.int64, count=-1))
        return self.subset(np.flatnonzero(mask))

    def positions_of(self, wanted_ids: np.ndarray) -> np.ndarray:
        """Positional indices of the given ids, in the given order."""
        lookup = {int(i): pos for pos, i in enumerate(self.ids)}
        try:
            return np.array([lookup[int(i)] for i in wanted_ids], dtype=np.int64)
        except KeyError as exc:
            raise KeyError(f"id {exc} not present in this matrix") from None

    def with_features(self, kept: np.ndarray) -> "FeatureMatrix":
        """Column subset (feature selection); labels and ids unchanged."""
        return FeatureMatrix(
            values=self.values[:, np.asarray(kept, dtype=np.int64)],
            labels=self.labels,
            ids=self.ids,
        )


@dataclass(frozen=True)
class PredictionReport:
    """Per-sample positive-class probability and the binary prediction it implies.

    ``prediction == 1`` iff ``probability >= 0.5``; a probability of exactly
    0.5 is predicted positive. Build reports with ``prediction_report``.
    """

    ids: np.ndarray
    probabilities: np.ndarray

    @property
    def predictions(self) -> np.ndarray:
        return (self.probabilities >= 0.5).astype(np.int64)


def prediction_report(probabilities, labels, ids) -> PredictionReport:
    """Assemble a PredictionReport from probabilities and true labels."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    ids = np.asarray(ids, dtype=np.int64)
    if not (len(probabilities) == len(labels) == len(ids)):
        raise ValueError("probabilities, labels and ids must have equal length")
    check_probabilities(probabilities)
    return PredictionReport(ids=_frozen(ids), probabilities=_frozen(probabilities))


def check_probabilities(probabilities: np.ndarray, where: str = "") -> None:
    """Raise ValueError, its message led by ``where``, unless every
    probability lies in [0, 1]."""
    # a NaN carries through min and max and fails both comparisons
    if probabilities.size and not (0.0 <= probabilities.min() and probabilities.max() <= 1.0):
        raise ValueError(f"{where}probabilities must lie in [0, 1]")


@dataclass(frozen=True)
class ThresholdPair:
    """Calibrated probability thresholds bounding the difficult interval.

    Samples with probability <= th_n or >= th_p are easy; everything strictly
    inside (th_n, th_p) is difficult. The 0.5 boundary counts as a positive
    prediction, so th_n = 0.5 claims only the strict negative side.
    """

    th_n: float
    th_p: float

    def __post_init__(self):
        if not (0.0 <= self.th_n <= 0.5 <= self.th_p <= 1.0):
            raise ValueError(
                f"need 0 <= th_n <= 0.5 <= th_p <= 1, got ({self.th_n}, {self.th_p})"
            )

    def easy(self, probs) -> np.ndarray:
        """Row mask of the easy samples, boundaries inclusive.

        p = 0.5 is a positive prediction, so only th_p can claim it for the
        easy side; letting th_n = 0.5 swallow it would leak boundary FPs past
        the calibrated error budget.
        """
        p = np.asarray(probs, dtype=np.float64)
        return ((p <= self.th_n) & (p < 0.5)) | (p >= self.th_p)


@dataclass(frozen=True)
class SplitAssignment:
    """Disjoint, exhaustive easy/difficult id sets over one dataset.

    The ids are Python ints; ``split_dataset`` builds them so. A frozenset
    passed in is kept as it is, any other iterable is frozen.
    """

    easy_ids: frozenset = field(default_factory=frozenset)
    difficult_ids: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "easy_ids", frozenset(self.easy_ids))
        object.__setattr__(self, "difficult_ids", frozenset(self.difficult_ids))
        if self.easy_ids & self.difficult_ids:
            raise ValueError("easy and difficult id sets overlap")


def confusion_partition(probabilities, labels) -> np.ndarray:
    """One confusion tag ("TP", "FP", "TN" or "FN") per row: the base's
    prediction, ``probability >= 0.5``, against the row's true label."""
    probabilities = np.asarray(probabilities, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if probabilities.shape != labels.shape:
        raise ValueError(f"{probabilities.size} probabilities for {labels.size} labels")
    check_probabilities(probabilities)
    preds = (probabilities >= 0.5).astype(np.int64)
    # CONFUSION_TAGS order: predicted positive then negative, right then wrong
    return _frozen(np.array(CONFUSION_TAGS)[2 * (1 - preds) + (preds != labels)])
