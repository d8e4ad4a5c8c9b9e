"""Loss values against loop-written oracles; gradients against central differences."""
import numpy as np
import pytest
from conftest import numeric_gradient, relative_error
from scipy.special import logsumexp

from guidedboost.nn.losses import bce_loss, supcon_loss

TOL = 1e-4


def oracle_supcon(Z, y, tau):
    """Direct per-anchor loop translation of the loss definition."""
    n = len(y)
    total = 0.0
    for i in range(n):
        positives = [p for p in range(n) if p != i and y[p] == y[i]]
        if not positives:
            continue
        others = [a for a in range(n) if a != i]
        lse = logsumexp([Z[i] @ Z[a] / tau for a in others])
        s = sum(Z[i] @ Z[p] / tau - lse for p in positives)
        total += -s / len(positives)
    return total / n


def unit_rows(rng, n, d):
    Z = rng.normal(size=(n, d))
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)


def test_supcon_matches_loop_oracle():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        d = int(rng.integers(2, 6))
        Z = unit_rows(rng, n, d)
        y = rng.integers(0, 2, size=n)
        loss, _ = supcon_loss(Z, y, 0.07)
        assert loss == pytest.approx(oracle_supcon(Z, y, 0.07), rel=1e-10, abs=1e-10)


def test_supcon_anchor_without_positives_contributes_zero():
    rng = np.random.default_rng(1)
    Z = unit_rows(rng, 3, 4)
    y = np.array([0, 1, 1])  # anchor 0 has no same-label partner
    loss, _ = supcon_loss(Z, y, 0.07)
    assert loss == pytest.approx(oracle_supcon(Z, y, 0.07))
    # all anchors positive-free: loss and gradient are exactly zero
    loss2, grad2 = supcon_loss(Z[:2], np.array([0, 1]), 0.07)
    assert loss2 == 0.0
    assert np.all(grad2 == 0.0)


def test_supcon_permutation_invariance():
    rng = np.random.default_rng(2)
    Z = unit_rows(rng, 8, 3)
    y = np.array([0, 0, 1, 1, 0, 1, 0, 1])
    base, _ = supcon_loss(Z, y, 0.07)
    for _ in range(5):
        perm = rng.permutation(8)
        shuffled, _ = supcon_loss(Z[perm], y[perm], 0.07)
        assert shuffled == pytest.approx(base, rel=1e-9)


def test_supcon_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(2, 5))
        Z = unit_rows(rng, n, d)
        y = rng.integers(0, 2, size=n)
        _, grad = supcon_loss(Z, y, 0.07)
        numeric = numeric_gradient(lambda: supcon_loss(Z, y, 0.07)[0], Z)
        assert relative_error(grad, numeric) < TOL


def test_supcon_validation():
    Z = np.eye(2)
    with pytest.raises(ValueError):
        supcon_loss(Z[:1], np.array([0]))
    with pytest.raises(ValueError):
        supcon_loss(Z, np.array([0, 1]), temperature=0.0)


def test_bce_hand_values():
    loss, grad = bce_loss(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]))
    assert loss == pytest.approx(np.log(2.0))
    # d/do of the mean over 2 units: (o - t) / (o(1-o)) / 2
    assert grad[0, 0] == pytest.approx((0.5 - 1.0) / 0.25 / 2)
    assert grad[0, 1] == pytest.approx((0.5 - 0.0) / 0.25 / 2)


def test_bce_gradient_matches_finite_differences():
    rng = np.random.default_rng(4)
    o = rng.uniform(0.05, 0.95, size=(5, 2))
    t = rng.integers(0, 2, size=(5, 2)).astype(float)
    _, grad = bce_loss(o, t)
    numeric = numeric_gradient(lambda: bce_loss(o, t)[0], o)
    assert relative_error(grad, numeric) < TOL


def test_bce_clips_saturated_outputs():
    loss, grad = bce_loss(np.array([[0.0, 1.0]]), np.array([[1.0, 0.0]]))
    assert np.isfinite(loss)
    assert np.all(np.isfinite(grad))
    with pytest.raises(ValueError):
        bce_loss(np.zeros((2, 2)), np.zeros((2, 3)))


def reference_supcon(projections, labels, temperature):
    """The eye-mask and np.where formulation, kept as a bitwise reference."""
    Z = np.asarray(projections, dtype=np.float64)
    y = np.asarray(labels)
    n = Z.shape[0]
    S = (Z @ Z.T) / temperature
    off = ~np.eye(n, dtype=bool)
    same = (y[:, None] == y[None, :]) & off
    pos_counts = same.sum(axis=1)
    S_off = np.where(off, S, -np.inf)
    row_max = S_off.max(axis=1)
    exp_shift = np.where(off, np.exp(S - row_max[:, None]), 0.0)
    denom = exp_shift.sum(axis=1)
    lse = row_max + np.log(denom)
    active = pos_counts > 0
    per_anchor = np.zeros(n)
    if active.any():
        pos_term = np.where(same, S - lse[:, None], 0.0).sum(axis=1)
        per_anchor[active] = -pos_term[active] / pos_counts[active]
    loss = float(per_anchor.mean())
    softmax = exp_shift / denom[:, None]
    T = np.zeros((n, n))
    T[active] = softmax[active]
    T[active] -= same[active] / pos_counts[active][:, None]
    T /= n
    return loss, (T + T.T) @ Z / temperature


def test_supcon_matches_reference_bit_for_bit():
    rng = np.random.default_rng(11)
    for case in range(120):
        n, d = int(rng.integers(2, 90)), int(rng.integers(1, 12))
        Z = unit_rows(rng, n, d)
        y = rng.integers(0, 2, n)
        if case % 5 == 0:
            y[:] = case % 2  # one class: every anchor active
        elif case % 7 == 0:
            y[:] = 0
            y[int(rng.integers(n))] = 1  # a lone anchor without positives
        tau = float(rng.choice([0.07, 0.5, 1.0]))
        loss, grad = supcon_loss(Z, y, tau)
        ref_loss, ref_grad = reference_supcon(Z, y, tau)
        assert loss == ref_loss
        assert np.array_equal(grad, ref_grad)
