"""Two-stage boosting of binary classifiers via difficulty-aware routing."""

__version__ = "0.1.0"
