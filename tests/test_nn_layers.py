"""Layer-level checks: value oracles and finite-difference gradients."""
import numpy as np
import pytest
from conftest import numeric_gradient, relative_error, stray_arrays

from guidedboost.nn.layers import BatchNorm, L2Normalize, Linear, ReLU, Sigmoid

TOL = 1e-4


def loss_through(layer, x, R, train=True):
    """Scalar probe loss sum(forward(x) * R) for gradient checking."""
    return float(np.sum(layer.forward(x, train) * R))


def test_linear_init_and_forward():
    rng = np.random.default_rng(0)
    layer = Linear(4, 3, rng)
    limit = np.sqrt(6.0 / 4)
    assert np.all(np.abs(layer.W) <= limit)
    assert np.all(layer.b == 0.0)
    x = np.random.default_rng(1).normal(size=(5, 4))
    assert np.allclose(layer.forward(x, False), x @ layer.W + layer.b)
    with pytest.raises(ValueError):
        layer.forward(np.zeros((2, 7)), False)
    with pytest.raises(ValueError):
        Linear(0, 3, rng)


def test_linear_gradients():
    rng = np.random.default_rng(2)
    layer = Linear(4, 3, rng)
    x = rng.normal(size=(6, 4))
    R = rng.normal(size=(6, 3))
    layer.forward(x, True)
    gx = layer.backward(R)
    assert relative_error(gx, numeric_gradient(lambda: loss_through(layer, x, R), x)) < TOL
    assert relative_error(layer.gW, numeric_gradient(lambda: loss_through(layer, x, R), layer.W)) < TOL
    assert relative_error(layer.gb, numeric_gradient(lambda: loss_through(layer, x, R), layer.b)) < TOL


def test_linear_backward_can_skip_the_input_gradient():
    rng = np.random.default_rng(3)
    layer = Linear(4, 3, rng)
    x, R = rng.normal(size=(6, 4)), rng.normal(size=(6, 3))
    layer.forward(x, True)
    gx = layer.backward(R)
    gW, gb = layer.gW, layer.gb
    layer.forward(x, True)
    assert layer.backward(R, input_grad=False) is None
    assert np.array_equal(layer.gW, gW) and np.array_equal(layer.gb, gb)
    assert np.array_equal(gx, R @ layer.W.T)


def test_linear_backward_requires_training_forward():
    layer = Linear(2, 2, np.random.default_rng(0))
    layer.forward(np.zeros((2, 2)), False)
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros((2, 2)))


@pytest.mark.parametrize("make", [
    lambda: Linear(3, 3, np.random.default_rng(0)), lambda: BatchNorm(3),
    ReLU, Sigmoid, L2Normalize,
], ids=["Linear", "BatchNorm", "ReLU", "Sigmoid", "L2Normalize"])
def test_backward_consumes_the_forward_cache(make):
    layer = make()
    x = np.random.default_rng(9).normal(size=(4, 3))
    layer.forward(x, True)
    layer.backward(np.ones_like(x))
    with pytest.raises(RuntimeError, match="no training-mode forward cached"):
        layer.backward(np.ones_like(x))
    # the step takes the gradients once; after it the layer holds its state only
    assert all(g is not None for g in layer.gradients())
    assert all(g is None for g in layer.gradients())
    assert stray_arrays([layer]) == []


def test_batchnorm_training_statistics():
    layer = BatchNorm(3)
    x = np.random.default_rng(3).normal(loc=5.0, scale=2.0, size=(50, 3))
    out = layer.forward(x, True)
    assert np.allclose(out.mean(axis=0), 0.0, atol=1e-10)
    # biased variance in the denominator: output variance is var/(var + eps)
    assert np.allclose(out.var(axis=0), x.var(axis=0) / (x.var(axis=0) + 1e-5))


def test_batchnorm_running_stats_update_rule():
    layer = BatchNorm(2, momentum=0.9)
    x = np.array([[1.0, 10.0], [3.0, 30.0]])
    layer.forward(x, True)
    assert np.allclose(layer.running_mean, 0.9 * 0.0 + 0.1 * np.array([2.0, 20.0]))
    assert np.allclose(layer.running_var, 0.9 * 1.0 + 0.1 * np.array([1.0, 100.0]))
    # eval mode normalizes with the running stats, not the batch stats
    out = layer.forward(x, False)
    expected = (x - layer.running_mean) / np.sqrt(layer.running_var + 1e-5)
    assert np.allclose(out, expected)


def test_batchnorm_gradients():
    rng = np.random.default_rng(4)
    layer = BatchNorm(3)
    layer.gamma[:] = rng.normal(size=3)
    layer.beta[:] = rng.normal(size=3)
    x = rng.normal(size=(6, 3))
    R = rng.normal(size=(6, 3))
    layer.forward(x, True)
    gx = layer.backward(R)
    assert relative_error(gx, numeric_gradient(lambda: loss_through(layer, x, R), x)) < TOL
    assert relative_error(
        layer.g_gamma, numeric_gradient(lambda: loss_through(layer, x, R), layer.gamma)
    ) < TOL
    assert relative_error(
        layer.g_beta, numeric_gradient(lambda: loss_through(layer, x, R), layer.beta)
    ) < TOL


def test_batchnorm_backward_requires_training_forward():
    layer = BatchNorm(2)
    layer.forward(np.zeros((3, 2)), False)
    with pytest.raises(RuntimeError):
        layer.backward(np.zeros((3, 2)))


def test_relu_and_sigmoid_values_and_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(5, 4))
    R = rng.normal(size=(5, 4))

    relu = ReLU()
    assert np.array_equal(relu.forward(x, False), np.maximum(x, 0.0))
    relu.forward(x, True)
    gx = relu.backward(R)
    assert relative_error(gx, numeric_gradient(lambda: loss_through(relu, x, R), x)) < TOL

    sig = Sigmoid()
    out = sig.forward(x, False)
    assert np.allclose(out, 1.0 / (1.0 + np.exp(-x)))
    # stable on extreme inputs
    extreme = sig.forward(np.array([[-800.0, 800.0]]), False)
    assert np.all(np.isfinite(extreme))
    sig.forward(x, True)
    gx = sig.backward(R)
    assert relative_error(gx, numeric_gradient(lambda: loss_through(sig, x, R), x)) < TOL


def test_l2_normalize_values_and_gradients():
    rng = np.random.default_rng(6)
    layer = L2Normalize()
    x = rng.normal(size=(5, 3))
    out = layer.forward(x, False)
    assert np.allclose(np.linalg.norm(out, axis=1), 1.0)

    with_zero = np.vstack([x, np.zeros((1, 3))])
    out = layer.forward(with_zero, False)
    assert np.all(out[-1] == 0.0)

    R = rng.normal(size=(5, 3))
    layer.forward(x, True)
    gx = layer.backward(R)
    assert relative_error(gx, numeric_gradient(lambda: loss_through(layer, x, R), x)) < TOL


# ------------------------------------------- reference formulas, bit for bit

def _reference_batchnorm_train(layer, x):
    """Train-mode forward written with x.mean/x.var, as first implemented."""
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    running_mean = layer.momentum * layer.running_mean + (1.0 - layer.momentum) * mean
    running_var = layer.momentum * layer.running_var + (1.0 - layer.momentum) * var
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    xhat = (x - mean) * inv_std
    return layer.gamma * xhat + layer.beta, running_mean, running_var, xhat, inv_std


def _reference_batchnorm_backward(gamma, xhat, inv_std, grad):
    n = grad.shape[0]
    g_gamma = (grad * xhat).sum(axis=0)
    g_beta = grad.sum(axis=0)
    gx_hat = grad * gamma
    gx = inv_std / n * (n * gx_hat - gx_hat.sum(axis=0) - xhat * (gx_hat * xhat).sum(axis=0))
    return gx, g_gamma, g_beta


def _bit_cases(seed, count=60):
    """Random batches of assorted size, width, scale and offset."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, w = int(rng.integers(1, 70)), int(rng.integers(1, 40))
        scale = 10.0 ** rng.uniform(-3, 3)
        yield rng, rng.normal(size=(n, w)) * scale + rng.normal(size=w) * 10.0 * scale


def test_batchnorm_matches_reference_formulas_bit_for_bit():
    for rng, x in _bit_cases(seed=7):
        w = x.shape[1]
        layer = BatchNorm(w)
        layer.gamma[:] = rng.normal(size=w)
        layer.beta[:] = rng.normal(size=w)
        layer.running_mean[:] = rng.normal(size=w)
        layer.running_var[:] = rng.uniform(0.5, 2.0, size=w)
        out, running_mean, running_var, xhat, inv_std = _reference_batchnorm_train(layer, x)
        assert np.array_equal(layer.forward(x, True), out)
        assert np.array_equal(layer.running_mean, running_mean)
        assert np.array_equal(layer.running_var, running_var)

        grad = rng.normal(size=x.shape)
        gx, g_gamma, g_beta = _reference_batchnorm_backward(layer.gamma, xhat, inv_std, grad)
        assert np.array_equal(layer.backward(grad), gx)
        assert np.array_equal(layer.g_gamma, g_gamma)
        assert np.array_equal(layer.g_beta, g_beta)

        expected = layer.gamma * (
            (x - layer.running_mean) * (1.0 / np.sqrt(layer.running_var + layer.eps))
        ) + layer.beta
        before = x.copy()
        assert np.array_equal(layer.forward(x, False), expected)
        assert np.array_equal(x, before)  # eval works on its own buffer


def test_linear_forward_matches_reference_bit_for_bit():
    for rng, x in _bit_cases(seed=8, count=30):
        layer = Linear(x.shape[1], int(rng.integers(1, 20)), rng)
        layer.b[:] = rng.normal(size=layer.b.shape)
        for train in (True, False):
            assert np.array_equal(layer.forward(x, train), x @ layer.W + layer.b)
