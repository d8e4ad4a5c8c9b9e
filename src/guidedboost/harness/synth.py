"""Synthetic two-Gaussian data with an optional planted overlap band.

The planted structure exists to exercise the two-stage pipeline: a band of
samples around the class-mean midpoint where the primary feature is
uninformative and the label equals the XOR of the signs of two auxiliary
features. A linear base classifier scores the band near 0.5 and gets about
half of it wrong; the retraining stage can recover it.
"""
from __future__ import annotations

import numpy as np

from ..data import FeatureMatrix
from .config import SyntheticSpec

# feature roles when planted: 0 = primary axis, 1 and 2 = XOR pair
PRIMARY = 0
AUX_A = 1
AUX_B = 2


def band_limits(spec: SyntheticSpec) -> tuple[float, float]:
    """The primary-axis interval that holds the planted band."""
    mid = 0.5 * (spec.mean_negative + spec.mean_positive)
    half = 0.5 * spec.cov_scale
    return mid - half, mid + half


def _class_rows(spec: SyntheticSpec, cls: int) -> np.ndarray:
    rng = np.random.default_rng([spec.seed, cls])
    n = spec.n_per_class
    d = spec.n_features
    X = rng.normal(0.0, spec.cov_scale, size=(n, d))
    mean = spec.mean_positive if cls == 1 else spec.mean_negative
    lo, hi = band_limits(spec)

    if not spec.planted:
        X[:, PRIMARY] += mean
        return X

    n_band = int(round(spec.band_fraction * n))
    band = np.zeros(n, dtype=bool)
    band[:n_band] = True

    # in-band: primary uniform across the band, label carried by the XOR pair
    X[band, PRIMARY] = rng.uniform(lo, hi, size=n_band)
    s1 = rng.choice((-1.0, 1.0), size=n_band)
    s2 = s1 if cls == 1 else -s1
    # magnitudes bounded away from zero so the sign signal is learnable
    X[band, AUX_A] = s1 * (1.0 + np.abs(rng.normal(0.0, 1.0, size=n_band)))
    X[band, AUX_B] = s2 * (1.0 + np.abs(rng.normal(0.0, 1.0, size=n_band)))

    # out-of-band: primary strictly outside the band on the class's own side
    edge = hi if cls == 1 else lo
    gap = abs(mean - edge)
    offset = np.abs(rng.normal(gap, max(spec.cov_scale, 1e-12), size=n - n_band))
    sign = 1.0 if cls == 1 else -1.0
    X[~band, PRIMARY] = edge + sign * offset
    return X


def generate_synthetic(spec: SyntheticSpec) -> FeatureMatrix:
    """Deterministic dataset for ``spec``; ids are row order, classes blocked
    negative-first."""
    X = np.concatenate([_class_rows(spec, 0), _class_rows(spec, 1)])
    y = np.concatenate(
        [
            np.zeros(spec.n_per_class, dtype=np.int64),
            np.ones(spec.n_per_class, dtype=np.int64),
        ]
    )
    return FeatureMatrix.from_arrays(X, y)
