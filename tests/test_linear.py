"""Linear base classifiers: logistic regression and the hinge-loss SVM."""
import sys
import threading

import numpy as np
import pytest
from conftest import make_blobs

from guidedboost import parallel
from guidedboost.classifiers import linear
from guidedboost.classifiers.linear import (
    BLOCK_ROWS,
    LinearConfig,
    LinearModel,
    SvmConfig,
    train_linear_svm,
    train_logistic,
)
from guidedboost.data import FeatureMatrix
from guidedboost.harness.config import ExperimentConfig
from guidedboost.harness.experiment import StageError, prepare
from guidedboost.harness.io import write_dense_csv
from guidedboost.parallel import run_all


def best_linear_accuracy_2d(values, labels, n_angles=720):
    """Grid oracle: best accuracy of any 2-D linear rule w = (cos a, sin a)."""
    best = 0.0
    for a in np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False):
        scores = values @ np.array([np.cos(a), np.sin(a)])
        order = np.sort(scores)
        cuts = np.concatenate([[order[0] - 1.0], (order[1:] + order[:-1]) / 2.0, [order[-1] + 1.0]])
        for c in cuts:
            acc = float(((scores >= c).astype(int) == labels).mean())
            best = max(best, acc)
    return best


def test_logistic_matches_grid_oracle_on_blobs():
    data = make_blobs(n_per_class=100, n_features=2, seed=3)
    model = train_logistic(data)
    acc = float((model.predict_proba(data.values).round() == data.labels).mean())
    assert acc >= 0.99
    oracle = best_linear_accuracy_2d(data.values, data.labels)
    assert acc >= oracle - 0.01


def test_logistic_determinism_and_output_range():
    data = make_blobs(seed=1)
    m1 = train_logistic(data, LinearConfig())
    m2 = train_logistic(data, LinearConfig())
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias
    probs = m1.predict_proba(data.values)
    assert np.all((probs > 0.0) & (probs < 1.0))


def test_logistic_single_class_rejected():
    bad = FeatureMatrix.from_arrays([[0.0], [1.0]], [1, 1])
    with pytest.raises(ValueError):
        train_logistic(bad)
    with pytest.raises(ValueError):
        train_linear_svm(bad)


def test_logistic_one_step_hand_update():
    # X=[[1],[-1]], y=[1,0]: at w=0 both probabilities are 0.5, so
    # grad_w = (1*(-0.5) + (-1)*0.5)/2 = -0.5 and grad_b = 0
    data = FeatureMatrix.from_arrays([[1.0], [-1.0]], [1, 0])
    model = train_logistic(data, LinearConfig(learning_rate=0.1, epochs=1, l2=0.0))
    assert model.weights[0] == pytest.approx(0.05)
    assert model.bias == 0.0


def test_svm_separates_blobs_with_label_polarity():
    data = make_blobs(n_per_class=100, n_features=3, seed=5)
    model = train_linear_svm(data)
    scores = model.decision_scores(data.values)
    signs = np.where(data.labels == 1, 1.0, -1.0)
    violations = int(np.sum(scores * signs <= 0.0))
    assert violations == 0


def test_svm_zero_epochs_scores_equal_bias():
    data = make_blobs(seed=0)
    model = train_linear_svm(data, SvmConfig(epochs=0))
    scores = model.decision_scores(data.values)
    assert np.all(scores == model.bias)
    assert model.bias == 0.0


def test_svm_one_step_hand_update():
    # both margins are 0 < 1, so grad_w = -(1*1 + (-1)*(-1))/2 = -1, grad_b = 0
    data = FeatureMatrix.from_arrays([[1.0], [-1.0]], [1, 0])
    model = train_linear_svm(data, SvmConfig(learning_rate=0.05, epochs=1, regularization=0.0))
    assert model.weights[0] == pytest.approx(0.05)
    assert model.bias == 0.0


def test_svm_determinism():
    data = make_blobs(seed=2)
    m1 = train_linear_svm(data)
    m2 = train_linear_svm(data)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.bias == m2.bias


@pytest.mark.parametrize("cls", [LinearConfig, SvmConfig])
def test_settings_reject_negative_epochs_and_non_positive_rates(cls):
    assert cls(epochs=0).epochs == 0
    rule = f"{cls.__name__}: need epochs >= 0 and learning_rate > 0"
    for bad in ({"epochs": -1}, {"learning_rate": 0.0}, {"learning_rate": float("nan")}):
        with pytest.raises(ValueError, match=rule):
            cls(**bad)


def test_linear_model_validation():
    model = LinearModel(weights=np.zeros(2), bias=0.0)
    with pytest.raises(ValueError):
        model.decision_scores(np.zeros((3, 5)))
    with pytest.raises(ValueError):
        model.weights[0] = 1.0  # frozen


def _reference_svm(data, cfg):
    """The first subgradient loop, boolean-mask indexing and all."""
    X = data.values
    y = np.where(data.labels == 1, 1.0, -1.0)
    n = X.shape[0]
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(cfg.epochs):
        margins = y * (X @ w + b)
        viol = margins < 1.0
        grad_w = cfg.regularization * w - (X[viol].T @ y[viol]) / n
        grad_b = -float(y[viol].sum()) / n
        w -= cfg.learning_rate * grad_w
        b -= cfg.learning_rate * grad_b
    return w, b


@pytest.mark.parametrize("epochs", [0, 1, 2, 40])
def test_svm_matches_reference_loop_bit_for_bit(epochs):
    # overlapping blobs keep a changing share of rows inside the margin;
    # epoch 1 starts from w = 0, where every row violates
    # the last set is exactly one block, the largest fit that runs unthreaded
    for seed, (n, d) in enumerate([(2, 1), (60, 3), (700, 12), (3001, 7), (BLOCK_ROWS // 2, 4)]):
        data = make_blobs(n_per_class=n, n_features=d, gap=1.0, scale=1.5, seed=seed)
        cfg = SvmConfig(learning_rate=0.3, epochs=epochs, regularization=1e-3)
        model = train_linear_svm(data, cfg)
        w, b = _reference_svm(data, cfg)
        assert np.array_equal(model.weights, w)
        assert model.bias == b


def _shuffled_blobs(n_rows, seed):
    """Overlapping blobs with the classes interleaved, cut to n_rows rows."""
    data = make_blobs(n_per_class=(n_rows + 1) // 2, n_features=5, gap=1.0, scale=1.5, seed=seed)
    order = np.random.default_rng(seed).permutation(data.n_samples)[:n_rows]
    return FeatureMatrix.from_arrays(data.values[order], data.labels[order])


@pytest.fixture
def blocks(monkeypatch):
    """A function that sets the svm's rows per block and the usable CPU count."""
    def set_blocks(rows, cpus):
        monkeypatch.setattr(linear, "BLOCK_ROWS", rows)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
    return set_blocks


@pytest.mark.parametrize("n_rows", [65, 321, 448])
def test_svm_blocks_give_the_same_bits_on_any_cpu_count(blocks, n_rows):
    # 321 = 5 blocks of 64 and a 1-row tail; 448 is 7 full blocks, which 2 and
    # 4 threads split unevenly
    data = _shuffled_blobs(n_rows, seed=n_rows)
    cfg = SvmConfig(learning_rate=0.3, epochs=40, regularization=1e-3)
    fits = []
    # a short switch interval interleaves the threads often: a buffer that
    # two threads shared would change the bits
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 4):
            blocks(64, cpus)
            fits.append(train_linear_svm(data, cfg))
    finally:
        sys.setswitchinterval(interval)
    for fit in fits[1:]:
        assert np.array_equal(fit.weights, fits[0].weights)
        assert fit.bias == fits[0].bias
    w, b = _reference_svm(data, cfg)
    assert np.max(np.abs(fits[0].weights - w)) <= 1e-12 * np.max(np.abs(w))
    assert fits[0].bias == pytest.approx(b, rel=1e-12)


@pytest.mark.parametrize("n_rows, pools", [(64, []), (65, [1]), (321, [1])])
def test_svm_pools_threads_only_for_more_than_one_block(blocks, monkeypatch, n_rows, pools):
    # on 2 CPUs the calling thread sums one share and a 1-thread pool the other
    made = []

    class RecordedPool(parallel.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    blocks(64, 2)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordedPool)
    before = threading.active_count()
    train_linear_svm(_shuffled_blobs(n_rows, seed=1), SvmConfig(epochs=3))
    assert made == pools
    # every pool thread is joined, so a fork right after copies no live worker
    assert threading.active_count() == before
    assert run_all([lambda: 1, lambda: 2]) == [1, 2]


def _overflowing_blobs():
    """200 rows, class 0 first, whose second column lies in [1e307, 2e307]:
    finite values whose first gradient sums overflow."""
    data = make_blobs(n_per_class=100, seed=7)
    values = data.values.copy()
    values[:, 1] = np.random.default_rng(7).uniform(1e307, 2e307, size=200)
    return FeatureMatrix.from_arrays(values, data.labels)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("rows, cpus", [(BLOCK_ROWS, 2), (64, 1), (64, 2)])
@pytest.mark.parametrize("train", [train_logistic, train_linear_svm])
def test_non_finite_training_fails_naming_the_trainer_and_epoch(blocks, train, rows, cpus):
    blocks(rows, cpus)
    before = threading.active_count()
    with pytest.raises(FloatingPointError,
                       match=f"^{train.__name__}: weights are not finite at epoch 1$"):
        train(_overflowing_blobs())
    assert threading.active_count() == before


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("base", ["logistic", "svm"])
def test_prepare_tags_non_finite_training_train_base(tmp_path, base):
    path = tmp_path / "data.csv"
    write_dense_csv(_overflowing_blobs(), path)
    with pytest.raises(StageError, match="^stage train-base: train_") as err:
        prepare(ExperimentConfig(data_path=str(path), base=base))
    assert isinstance(err.value.original, FloatingPointError)
