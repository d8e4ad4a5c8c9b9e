"""Two-stage boosting of binary classifiers via difficulty-aware routing."""

__version__ = "0.1.0"

from .data import (
    FeatureMatrix,
    PredictionReport,
    SplitAssignment,
    ThresholdPair,
    confusion_partition,
    prediction_report,
)
from .thresholding import (
    ToleranceConfig,
    ToleratedCounts,
    select_thresholds,
    split_dataset,
    tolerated_counts,
)

__all__ = [
    "__version__",
    "FeatureMatrix",
    "PredictionReport",
    "SplitAssignment",
    "ThresholdPair",
    "confusion_partition",
    "prediction_report",
    "ToleranceConfig",
    "ToleratedCounts",
    "select_thresholds",
    "split_dataset",
    "tolerated_counts",
]
