"""Shared test helpers: dataset builders, JSON edits and numeric gradient checking.

BLAS runs one thread unless the environment sets a count, as in
``bench/run_bench.py``. The variables are set here, before numpy loads: at
OpenBLAS's default of one thread per core, a host with another busy process
can stall the suite's wall-clock budgets for no fault in the code.
"""
import copy
import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

from guidedboost.data import FeatureMatrix  # noqa: E402


def make_blobs(n_per_class=50, n_features=3, gap=6.0, scale=1.0, seed=0):
    """Two well-separated Gaussian blobs, class 0 below class 1."""
    rng = np.random.default_rng(seed)
    neg = rng.normal(-gap / 2.0, scale, size=(n_per_class, n_features))
    pos = rng.normal(gap / 2.0, scale, size=(n_per_class, n_features))
    values = np.vstack([neg, pos])
    labels = np.concatenate(
        [np.zeros(n_per_class, dtype=np.int64), np.ones(n_per_class, dtype=np.int64)]
    )
    return FeatureMatrix.from_arrays(values, labels)


def empty_like(data):
    """A dataset of no rows at data's width."""
    return FeatureMatrix(
        values=np.empty((0, data.n_features)),
        labels=np.empty(0, dtype=np.int64),
        ids=np.empty(0, dtype=np.int64),
    )


# the base probabilities of an empty validation set
NO_PROBABILITIES = np.empty(0)


def json_paths(node, path=()):
    """The path, a tuple of keys and list indices, of every value inside node."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from json_paths(value, path + (key,))


def json_at(node, path):
    for key in path:
        node = node[key]
    return node


def json_edited(node, path, value):
    """A copy of node with the value at path replaced by value."""
    node = copy.deepcopy(node)
    json_at(node, path[:-1])[path[-1]] = value
    return node


def numeric_gradient(f, x, h=1e-5):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        old = x[idx]
        x[idx] = old + h
        up = f()
        x[idx] = old - h
        down = f()
        x[idx] = old
        g[idx] = (up - down) / (2.0 * h)
        it.iternext()
    return g


def relative_error(analytic, numeric):
    """Max elementwise |a - n| / max(|a|, |n|, 1e-6)."""
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
    return float(np.max(np.abs(a - n) / denom))


def stray_arrays(layers):
    """Arrays the layers hold beyond their state arrays, as 'Class.attribute'."""
    return [
        f"{type(layer).__name__}.{name}"
        for layer in layers
        for name, value in vars(layer).items()
        if isinstance(value, np.ndarray) and not any(value is a for a in layer.state_arrays())
    ]
