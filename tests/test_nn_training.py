"""Training loops: batching, early stopping, snapshot restore, determinism."""
import numpy as np
import pytest
from conftest import make_blobs

from guidedboost.data import FeatureMatrix
from guidedboost.nn.layers import Linear
from guidedboost.nn.losses import supcon_loss
from guidedboost.nn.network import encoder_spec, head_labels, projection_spec
from guidedboost.nn.training import (
    TrainConfig,
    stratified_batches,
    train_auxiliary,
    train_model,
)

TINY = dict(enc_spec=encoder_spec((6, 4)), proj_spec=projection_spec((4, 2)))


def fast_cfg(**kw):
    base = dict(max_epochs=8, patience=4, learning_rate=0.01)
    base.update(kw)
    return TrainConfig(**base)


def test_batch_size_rule():
    cfg = TrainConfig()
    assert cfg.batch_size(200) == 20
    assert cfg.batch_size(25) == 2
    assert cfg.batch_size(5) == 2  # floor of 2 regardless of n
    assert TrainConfig(batch_divisor=4).batch_size(40) == 10


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(temperature=-1.0)


def test_stratified_batches_partition_and_balance():
    rng = np.random.default_rng(0)
    labels = np.array([1] * 6 + [0] * 6)
    batches = stratified_batches(labels, 4, rng)
    assert len(batches) == 3
    flat = np.concatenate(batches)
    assert sorted(flat.tolist()) == list(range(12))
    for b in batches:
        assert len(b) == 4
        assert set(labels[b]) == {0, 1}


def test_stratified_batches_merges_degenerate_tail():
    rng = np.random.default_rng(1)
    # 3 ones / 7 zeros with batch size 3: the tail would be single-class
    labels = np.array([1] * 3 + [0] * 7)
    batches = stratified_batches(labels, 3, rng)
    flat = np.concatenate(batches)
    assert sorted(flat.tolist()) == list(range(10))
    for b in batches:
        assert len(b) >= 2
    if len(batches) > 1:
        for b in batches:
            assert len(set(labels[b])) == 2 or len(np.unique(labels)) < 2


def test_stratified_batches_determinism():
    labels = np.random.default_rng(5).integers(0, 2, 30)
    a = stratified_batches(labels, 7, np.random.default_rng(42))
    b = stratified_batches(labels, 7, np.random.default_rng(42))
    assert all(np.array_equal(x, y) for x, y in zip(a, b))



def reference_stratified_batches(labels, batch_size, rng):
    """The element-by-element round-robin deal, kept as a bitwise reference."""
    labels = np.asarray(labels)
    n = len(labels)
    n_batches = max(1, -(-n // batch_size))
    buckets = [[] for _ in range(n_batches)]
    slot = 0
    for cls in (1, 0):
        members = np.flatnonzero(labels == cls)
        members = members[rng.permutation(len(members))]
        for m in members:
            buckets[slot % n_batches].append(int(m))
            slot += 1
    batches = [np.array(b, dtype=np.int64) for b in buckets if b]
    if len(batches) > 1:
        last = batches[-1]
        if len(last) < 2 or len(np.unique(labels[last])) < 2:
            batches[-2] = np.concatenate([batches[-2], last])
            batches.pop()
    return batches


def test_stratified_batches_match_reference_deal():
    rng = np.random.default_rng(2024)
    cases = [(np.array([1] * 3 + [0] * 7), 3), (np.zeros(9, dtype=np.int64), 4)]
    for _ in range(600):
        n = int(rng.integers(0, 150))
        share = rng.choice([0.0, 1.0, rng.uniform(0.02, 0.98)])
        cases.append(((rng.random(n) < share).astype(np.int64), int(rng.integers(1, 40))))
    merged = single_class = 0
    for i, (labels, batch_size) in enumerate(cases):
        got = stratified_batches(labels, batch_size, np.random.default_rng([i, 7]))
        want = reference_stratified_batches(labels, batch_size, np.random.default_rng([i, 7]))
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        merged += 0 < len(want) < -(-len(labels) // batch_size)
        single_class += len(labels) > 0 and len(np.unique(labels)) == 1
    assert merged >= 50 and single_class >= 50


def _split(data, n_val):
    train = data.subset(np.arange(data.n_samples - n_val))
    val = data.subset(np.arange(data.n_samples - n_val, data.n_samples))
    return train, val


def test_train_model_runs_and_is_deterministic():
    data = make_blobs(n_per_class=15, n_features=4, seed=0)
    order = np.random.default_rng(0).permutation(data.n_samples)
    train, val = _split(data.subset(order), 6)
    m1 = train_model(train, val, fast_cfg(), **TINY, seed=11)
    m2 = train_model(train, val, fast_cfg(), **TINY, seed=11)
    assert np.array_equal(m1.embed(val.values), m2.embed(val.values))
    m3 = train_model(train, val, fast_cfg(), **TINY, seed=12)
    assert not np.array_equal(m1.embed(val.values), m3.embed(val.values))


def test_train_model_restores_best_epoch():
    data = make_blobs(n_per_class=12, n_features=3, seed=2)
    order = np.random.default_rng(1).permutation(data.n_samples)
    train, val = _split(data.subset(order), 6)
    model = train_model(train, val, fast_cfg(max_epochs=12), **TINY, seed=0)
    proj = model.forward(val.values, train=False)
    loss, _ = supcon_loss(proj, val.labels, 0.07)
    assert model.train_state.best_metric == pytest.approx(loss, abs=1e-12)
    assert 1 <= model.train_state.epochs_run <= 12


def test_train_model_stops_after_patience_without_improvement():
    data = make_blobs(n_per_class=10, n_features=3, seed=3)
    order = np.random.default_rng(2).permutation(data.n_samples)
    train, val = _split(data.subset(order), 4)
    # a vanishing learning rate freezes the loss, so the stop fires at
    # exactly patience + 1 epochs
    cfg = fast_cfg(max_epochs=50, patience=3, learning_rate=1e-30)
    model = train_model(train, val, cfg, **TINY, seed=1)
    assert model.train_state.epochs_run == 4


def test_train_model_monitors_train_when_val_too_small(tmp_path):
    data = make_blobs(n_per_class=10, n_features=3, seed=4)
    order = np.random.default_rng(3).permutation(data.n_samples)
    train, val = _split(data.subset(order), 1)  # one-sample validation set
    model = train_model(train, val, fast_cfg(), **TINY, seed=2)
    proj = model.forward(train.values, train=False)
    loss, _ = supcon_loss(proj, train.labels, 0.07)
    assert model.train_state.best_metric == pytest.approx(loss, abs=1e-12)


def test_train_model_validation():
    empty = FeatureMatrix.from_arrays(np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(ValueError):
        train_model(empty, empty, fast_cfg(), **TINY, seed=0)
    single = FeatureMatrix.from_arrays([[0.0, 0.0], [1.0, 1.0]], [1, 1])
    with pytest.raises(ValueError):
        train_model(single, empty, fast_cfg(), **TINY, seed=0)


def _overflowing(data):
    """Finite features large enough that the first layer's sums turn NaN.

    FeatureMatrix rejects NaN itself, so this is how NaN reaches training.
    """
    return FeatureMatrix(values=data.values * 1e307, labels=data.labels, ids=data.ids)


def test_train_model_raises_on_non_finite_loss():
    train, val = _split(_overflowing(make_blobs(n_per_class=10, n_features=3, seed=6)), 4)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="at epoch 1$"):
        train_model(train, val, fast_cfg(), **TINY, seed=0)


def _embedding_problem(seed, n=30, d=4):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(-1.0, 0.4, size=(n // 2, d)), rng.normal(1.0, 0.4, size=(n // 2, d))])
    y = np.array([0] * (n // 2) + [1] * (n // 2))
    perm = rng.permutation(n)
    return X[perm], y[perm]


def test_train_auxiliary_learns_and_restores_best():
    X, y = _embedding_problem(0)
    Xv, yv = _embedding_problem(1, n=10)
    head = train_auxiliary(X, y, Xv, yv, fast_cfg(max_epochs=60, patience=20, learning_rate=0.05), seed=3)
    acc = float((head_labels(head, Xv) == yv).mean())
    assert head.train_state.best_metric == pytest.approx(acc, abs=1e-12)
    assert acc >= 0.8


def test_train_auxiliary_patience_and_fallback():
    X, y = _embedding_problem(2)
    cfg = fast_cfg(max_epochs=50, patience=5, learning_rate=1e-30)
    # empty validation: accuracy monitored on the training embeddings
    head = train_auxiliary(X, y, np.zeros((0, X.shape[1])), np.zeros(0, dtype=int), cfg, seed=0)
    # weights are frozen; the eval metric settles once the normalization
    # statistics stop drifting, so the run must stop well before max_epochs,
    # and a stop implies a full stale window after the last improvement
    assert cfg.patience + 1 <= head.train_state.epochs_run < cfg.max_epochs
    assert head.train_state.best_metric == pytest.approx(float((head_labels(head, X) == y).mean()))


def test_train_auxiliary_validation():
    X, y = _embedding_problem(3)
    with pytest.raises(ValueError):
        train_auxiliary(X, np.ones(len(X), dtype=int), X, y, fast_cfg(), seed=0)
    with pytest.raises(ValueError):
        train_auxiliary(X, y[:-1], X, y, fast_cfg(), seed=0)


def test_train_auxiliary_raises_on_non_finite_loss():
    X, y = _embedding_problem(6)
    with np.errstate(all="ignore"), pytest.raises(FloatingPointError, match="at epoch 1$"):
        train_auxiliary(X * 1e308, y, X, y, fast_cfg(), seed=0)


def test_train_auxiliary_determinism():
    X, y = _embedding_problem(4)
    Xv, yv = _embedding_problem(5, n=10)
    cfg = fast_cfg(max_epochs=10, learning_rate=0.05)
    h1 = train_auxiliary(X, y, Xv, yv, cfg, seed=9)
    h2 = train_auxiliary(X, y, Xv, yv, cfg, seed=9)
    assert np.array_equal(h1.forward(Xv), h2.forward(Xv))


def test_skipping_the_first_input_gradient_keeps_the_trained_bits(monkeypatch):
    data = make_blobs(n_per_class=15, n_features=4, seed=0)
    order = np.random.default_rng(0).permutation(data.n_samples)
    train, val = _split(data.subset(order), 6)
    X, y = _embedding_problem(4)
    Xv, yv = _embedding_problem(5, n=10)

    def fit():
        model = train_model(train, val, fast_cfg(), **TINY, seed=11)
        head = train_auxiliary(X, y, Xv, yv, fast_cfg(max_epochs=10, learning_rate=0.05), seed=9)
        return model.state_arrays() + head.state_arrays()

    skipped = fit()
    backward = Linear.backward
    asked = []

    def always_dx(self, grad, input_grad=True):
        asked.append(input_grad)
        return backward(self, grad)

    monkeypatch.setattr(Linear, "backward", always_dx)
    computed = fit()
    assert False in asked  # the trainers do opt out
    assert len(skipped) == len(computed)
    assert all(np.array_equal(a, b) for a, b in zip(skipped, computed))
