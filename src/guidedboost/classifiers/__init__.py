"""Base classifiers and the probability adapters that make them routable."""
from .adapters import (
    IdentityAdapter,
    KnnAdapter,
    ScoreRange,
    SvmAdapter,
    decision_to_probability,
    train_error_proxy,
)
from .forest import ForestConfig, ForestModel, train_random_forest
from .knn import NearestNeighborModel
from .linear import LinearConfig, LinearModel, SvmConfig, train_linear_svm, train_logistic

__all__ = [
    "ForestConfig",
    "ForestModel",
    "IdentityAdapter",
    "KnnAdapter",
    "LinearConfig",
    "LinearModel",
    "NearestNeighborModel",
    "ScoreRange",
    "SvmAdapter",
    "SvmConfig",
    "decision_to_probability",
    "train_error_proxy",
    "train_linear_svm",
    "train_logistic",
    "train_random_forest",
]
