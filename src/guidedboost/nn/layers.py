"""Building blocks for the from-scratch MLP stack.

Every layer implements forward/backward on float64 arrays. A training-mode
forward caches what its backward needs, and backward consumes that cache: a
second backward without a new training-mode forward raises RuntimeError.
Backward sets the parameter gradients, and ``gradients()`` hands them to the
SGD step and drops them, so they live only from backward to the step.
Evaluation-mode forwards cache nothing. Outside a step a layer holds only its
state arrays. Shapes are (batch, width) throughout.
"""
from __future__ import annotations

import numpy as np


class Layer:
    """What a layer holds by default: no parameters, and state arrays that are
    its parameters."""

    def parameters(self):
        return []

    def gradients(self):
        return []

    def state_arrays(self):
        return self.parameters()


class Linear(Layer):
    """Affine layer y = x W + b with He-style uniform init."""

    def __init__(self, in_width: int, out_width: int, rng: np.random.Generator):
        if in_width < 1 or out_width < 1:
            raise ValueError("Linear: widths must be positive")
        limit = np.sqrt(6.0 / in_width)
        self.W = rng.uniform(-limit, limit, size=(in_width, out_width))
        self.b = np.zeros(out_width)
        self.gW: np.ndarray | None = None
        self.gb: np.ndarray | None = None
        self._x: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if x.shape[1] != self.W.shape[0]:
            raise ValueError(
                f"Linear: input width {x.shape[1]} does not match layer width {self.W.shape[0]}"
            )
        if train:
            self._x = x
        out = x @ self.W
        out += self.b
        return out

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Store the parameter gradients; return dx, or None when not input_grad."""
        x, self._x = self._x, None
        if x is None:
            raise RuntimeError("Linear.backward: no training-mode forward cached")
        self.gW = x.T @ grad
        self.gb = grad.sum(axis=0)
        return grad @ self.W.T if input_grad else None

    def parameters(self):
        return [self.W, self.b]

    def gradients(self):
        grads, self.gW, self.gb = [self.gW, self.gb], None, None
        return grads


class BatchNorm(Layer):
    """Per-feature normalization with running statistics for eval mode.

    Training uses biased batch variance; running stats keep momentum * old +
    (1 - momentum) * batch. Backward is defined for training-mode forwards
    only (eval-mode normalization is an affine map we never differentiate).
    """

    def __init__(self, width: int, momentum: float = 0.9, eps: float = 1e-5):
        self.gamma = np.ones(width)
        self.beta = np.zeros(width)
        self.running_mean = np.zeros(width)
        self.running_var = np.ones(width)
        self.momentum = momentum
        self.eps = eps
        self.g_gamma: np.ndarray | None = None
        self.g_beta: np.ndarray | None = None
        self._xhat: np.ndarray | None = None
        self._inv_std: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if train:
            # x.mean(0) and x.var(0) spelled out, with the variance reusing
            # the centred batch instead of taking the mean again: same bits
            n = x.shape[0]
            mean = np.add.reduce(x, 0) / n
            xhat = x - mean
            var = np.add.reduce(xhat * xhat, 0) / n  # biased, matches the backward formula
            self.running_mean = self.momentum * self.running_mean + (1.0 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1.0 - self.momentum) * var
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat *= inv_std
            self._xhat = xhat
            self._inv_std = inv_std
            out = self.gamma * xhat
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            # scale and shift in place on our own temporary: nothing caches
            # xhat in eval mode, and xhat * gamma has the bits of gamma * xhat
            out = x - self.running_mean
            out *= inv_std
            out *= self.gamma
        out += self.beta
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        xhat, inv_std, self._xhat, self._inv_std = self._xhat, self._inv_std, None, None
        if xhat is None:
            raise RuntimeError("BatchNorm.backward: no training-mode forward cached")
        n = grad.shape[0]
        tmp = grad * xhat
        self.g_gamma = tmp.sum(axis=0)
        self.g_beta = grad.sum(axis=0)
        # inv_std / n * (n * gx_hat - sum(gx_hat) - xhat * sum(gx_hat * xhat)),
        # evaluated in that order on two buffers
        gx_hat = grad * self.gamma
        np.multiply(gx_hat, xhat, out=tmp)
        proj = tmp.sum(axis=0)
        total = gx_hat.sum(axis=0)
        gx_hat *= n
        gx_hat -= total
        np.multiply(xhat, proj, out=tmp)
        gx_hat -= tmp
        gx_hat *= inv_std / n
        return gx_hat

    def parameters(self):
        return [self.gamma, self.beta]

    def gradients(self):
        grads, self.g_gamma, self.g_beta = [self.g_gamma, self.g_beta], None, None
        return grads

    def state_arrays(self):
        # running stats ride along so eval behaviour survives persistence
        return [self.gamma, self.beta, self.running_mean, self.running_var]


class ReLU(Layer):
    def __init__(self):
        self._mask: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        if train:
            self._mask = x > 0.0
        return np.maximum(x, 0.0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        mask, self._mask = self._mask, None
        if mask is None:
            raise RuntimeError("ReLU.backward: no training-mode forward cached")
        return grad * mask


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function: exp only ever sees non-positive input."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class Sigmoid(Layer):
    def __init__(self):
        self._out: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        out = sigmoid(x)
        if train:
            self._out = out
        return out

    def backward(self, grad: np.ndarray) -> np.ndarray:
        out, self._out = self._out, None
        if out is None:
            raise RuntimeError("Sigmoid.backward: no training-mode forward cached")
        return grad * out * (1.0 - out)


class L2Normalize(Layer):
    """Row-wise projection onto the unit sphere; zero rows pass through as zero."""

    def __init__(self, eps: float = 1e-12):
        self.eps = eps
        self._x: np.ndarray | None = None
        self._r: np.ndarray | None = None

    def forward(self, x: np.ndarray, train: bool) -> np.ndarray:
        r = np.sqrt(np.einsum("ij,ij->i", x, x))
        r_safe = np.maximum(r, self.eps)[:, None]
        if train:
            self._x = x
            self._r = r_safe
        return x / r_safe

    def backward(self, grad: np.ndarray) -> np.ndarray:
        x, r, self._x, self._r = self._x, self._r, None, None
        if x is None:
            raise RuntimeError("L2Normalize.backward: no training-mode forward cached")
        dot = np.einsum("ij,ij->i", x, grad)[:, None]
        return grad / r - x * dot / r**3
