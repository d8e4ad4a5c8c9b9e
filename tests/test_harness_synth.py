"""Synthetic generator: planted band geometry and the XOR label rule."""
import numpy as np
import pytest

from guidedboost.harness.config import SyntheticSpec
from guidedboost.harness.synth import AUX_A, AUX_B, PRIMARY, band_limits, generate_synthetic

SPEC = SyntheticSpec(n_per_class=200, n_features=5, seed=4)


def in_band(spec: SyntheticSpec, values: np.ndarray) -> np.ndarray:
    lo, hi = band_limits(spec)
    return (values[:, PRIMARY] >= lo) & (values[:, PRIMARY] <= hi)


def xor_rule(values: np.ndarray) -> np.ndarray:
    """The planted label rule: positive iff the auxiliary signs agree."""
    return (np.sign(values[:, AUX_A]) * np.sign(values[:, AUX_B]) > 0).astype(np.int64)


def test_band_limits_arithmetic():
    assert band_limits(SPEC) == (-0.5, 0.5)
    wide = SyntheticSpec(mean_negative=-4.0, mean_positive=0.0, cov_scale=3.0)
    assert band_limits(wide) == (-3.5, -0.5)


def test_label_blocks_and_ids():
    data = generate_synthetic(SPEC)
    assert data.n_samples == 400
    assert np.all(data.labels[:200] == 0)
    assert np.all(data.labels[200:] == 1)
    assert np.array_equal(data.ids, np.arange(400))


def test_band_counts_exact():
    data = generate_synthetic(SPEC)
    mask = in_band(SPEC, data.values)
    expect = int(round(SPEC.band_fraction * SPEC.n_per_class))
    assert mask[:200].sum() == expect
    assert mask[200:].sum() == expect


def test_xor_rule_holds_in_band():
    data = generate_synthetic(SPEC)
    mask = in_band(SPEC, data.values)
    assert np.array_equal(data.labels[mask], xor_rule(data.values[mask]))


def test_out_of_band_stays_on_class_side():
    data = generate_synthetic(SPEC)
    mask = in_band(SPEC, data.values)
    lo, hi = band_limits(SPEC)
    primary = data.values[:, 0]
    neg_out = ~mask[:200]
    pos_out = ~mask[200:]
    assert np.all(primary[:200][neg_out] < lo)
    assert np.all(primary[200:][pos_out] > hi)


def test_unplanted_zero_cov_collapses_to_means():
    spec = SyntheticSpec(n_per_class=10, planted=False, cov_scale=0.0)
    data = generate_synthetic(spec)
    assert np.all(data.values[:10, 0] == spec.mean_negative)
    assert np.all(data.values[10:, 0] == spec.mean_positive)
    assert np.all(data.values[:, 1:] == 0.0)


def test_unplanted_is_plain_gaussian():
    spec = SyntheticSpec(n_per_class=500, planted=False, seed=9)
    data = generate_synthetic(spec)
    # class means recovered to sampling noise; no band structure imposed
    assert abs(data.values[:500, 0].mean() - spec.mean_negative) < 0.2
    assert abs(data.values[500:, 0].mean() - spec.mean_positive) < 0.2
    assert abs(data.values[:, 1].mean()) < 0.2


def test_determinism_and_seed_sensitivity():
    a = generate_synthetic(SPEC)
    b = generate_synthetic(SPEC)
    assert np.array_equal(a.values, b.values)
    c = generate_synthetic(SyntheticSpec(n_per_class=200, n_features=5, seed=5))
    assert not np.array_equal(a.values, c.values)


def test_spec_validation():
    with pytest.raises(ValueError, match="n_per_class"):
        SyntheticSpec(n_per_class=0)
    with pytest.raises(ValueError, match="at least 3 features"):
        SyntheticSpec(n_features=2, planted=True)
    assert SyntheticSpec(n_features=2, planted=False).n_features == 2
    with pytest.raises(ValueError, match="cov_scale"):
        SyntheticSpec(cov_scale=-1.0)
    with pytest.raises(ValueError, match="band_fraction"):
        SyntheticSpec(band_fraction=1.5)
    with pytest.raises(ValueError, match="below mean_positive"):
        SyntheticSpec(mean_negative=2.0, mean_positive=-2.0)
