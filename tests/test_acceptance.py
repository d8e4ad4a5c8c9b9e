"""Release gate: the eight acceptance criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the checklist. The
planted-synthetic battery (criterion 6) trains ten networks per seed over
five seeds and dominates the runtime; everything else finishes in seconds.
"""
import time

import numpy as np
import pytest
from conftest import numeric_gradient, relative_error
from test_thresholding import oracle_thresholds, random_instance

from guidedboost.classifiers.adapters import ScoreRange, decision_to_probability
from guidedboost.harness.config import ExperimentConfig, SyntheticSpec
from guidedboost.harness.experiment import load_data, metrics_to_csv, run_experiment
from guidedboost.metrics import delta_errors, errors_reduction, evaluate
from guidedboost.nn.layers import ReLU
from guidedboost.nn.losses import bce_loss, supcon_loss
from guidedboost.nn.network import (
    MLP,
    EncoderProjectionModel,
    MlpSpec,
    encoder_spec,
    projection_spec,
)
from guidedboost.nn.training import TrainConfig
from guidedboost.persistence import load as load_pipeline
from guidedboost.persistence import save as save_pipeline
from guidedboost.pipeline import RetrainConfig, pipeline_predict
from guidedboost.thresholding import (
    ToleranceConfig,
    accumulated_error_curve,
    select_thresholds,
    split_dataset,
)

CURVE_GRID = np.linspace(0.0, 1.0, 101)


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def instances():
    """1000 random validation instances shared by criteria 1, 2 and 7."""
    rng = np.random.default_rng(20250825)
    return [random_instance(rng) for _ in range(1000)]


def test_criterion_1_threshold_oracle_equivalence(instances):
    t0 = time.perf_counter()
    mismatches = 0
    for probs, confusion, tol in instances:
        got = select_thresholds(probs, confusion, tol)
        want = oracle_thresholds(probs, confusion, tol)
        if got != want:
            mismatches += 1
    elapsed = time.perf_counter() - t0
    _verdict(
        1, "threshold oracle equivalence",
        mismatches == 0 and elapsed < 10.0,
        f"{len(instances)} instances, {mismatches} mismatches, {elapsed:.2f}s",
    )


def test_criterion_2_split_error_budget(instances):
    violations = 0
    for probs, confusion, tol in instances:
        th = select_thresholds(probs, confusion, tol)
        assignment = split_dataset(probs, th)
        easy, diff = assignment.easy_ids, assignment.difficult_ids
        fp_ids = frozenset(np.flatnonzero(confusion == "FP").tolist())
        fn_ids = frozenset(np.flatnonzero(confusion == "FN").tolist())
        ok = (
            len(fp_ids & easy) <= tol.tolerated_fps
            and len(fn_ids & easy) <= tol.tolerated_fns
            and len(fp_ids & diff) >= len(fp_ids) - tol.tolerated_fps
            and len(fn_ids & diff) >= len(fn_ids) - tol.tolerated_fns
            and easy | diff == frozenset(range(len(probs)))
            and not easy & diff
        )
        violations += not ok
    _verdict(
        2, "split error budget",
        violations == 0,
        f"{len(instances)} instances, {violations} violations",
    )


def test_criterion_3_paper_arithmetic():
    cases = [(540, -69, 12.78), (631, -255, 40.41), (444, 0, 0.0)]
    got = [errors_reduction(delta, base) for base, delta, _ in cases]
    ok = got == [expect for _, _, expect in cases]
    # the delta itself follows the aux-minus-base convention
    base_rep = evaluate(np.r_[np.ones(69, dtype=int), np.zeros(31, dtype=int)], np.zeros(100, dtype=int))
    aux_rep = evaluate(np.zeros(100, dtype=int), np.zeros(100, dtype=int))
    ok = ok and delta_errors(base_rep, aux_rep) == -69
    _verdict(3, "reported-results arithmetic", ok, f"reductions {got}")


def test_criterion_4_transform_contract():
    rng = np.random.default_rng(7)
    violations = 0
    for i in range(1000):
        n = int(rng.integers(1, 51))
        scores = rng.normal(0.0, rng.uniform(0.1, 100.0), size=n)
        if i % 5 == 0:
            scores = np.abs(scores)  # one-sided populations
        elif i % 5 == 1:
            scores = -np.abs(scores)
        if i % 7 == 0 and n > 2:
            scores[: n // 2] = scores[n // 2 : 2 * (n // 2)]  # ties
        if i % 3 == 0:
            scores[0] = 0.0
        probs = decision_to_probability(scores, ScoreRange.from_scores(scores))
        order = np.argsort(scores, kind="stable")
        ok = (
            np.all(np.diff(probs[order]) >= 0.0)
            and np.array_equal(scores >= 0.0, probs >= 0.5)
            and np.array_equal(
                (scores >= 0.0).astype(int), (probs >= 0.5).astype(int)
            )
        )
        violations += not ok
    _verdict(4, "score transform contract", violations == 0,
             f"1000 vectors, {violations} violations")


# ------------------------------------------------------------ criterion 5
#
# Finite differences can only certify gradients at differentiable points, so
# degenerate draws are rejected on geometry alone before anything is measured:
# a ReLU input within 1e-3 of its kink, or an exactly-zero projection row
# (where L2 normalization has no derivative). Directions whose analytic and
# numeric gradients are both below differencing noise count as agreement; a
# Linear bias feeding BatchNorm is such a direction, its true gradient is
# identically zero because the normalization cancels constant shifts.

_KINK_MARGIN = 1e-3
_NOISE_FLOOR = 1e-7


def _grad_error(analytic, numeric):
    a = np.asarray(analytic, dtype=np.float64)
    n = np.asarray(numeric, dtype=np.float64)
    live = np.maximum(np.abs(a), np.abs(n)) >= _NOISE_FLOOR
    if not live.any():
        return 0.0
    return relative_error(a[live], n[live])


def _relu_margin(layers, x):
    """Smallest |input| any ReLU in the layers sees, plus their output."""
    out = np.asarray(x, dtype=np.float64)
    margin = np.inf
    for layer in layers:
        if isinstance(layer, ReLU):
            margin = min(margin, float(np.abs(out).min()))
        out = layer.forward(out, train=True)
    return margin, out


def _supcon_config(rng):
    n = int(rng.integers(2, 7))
    d = int(rng.integers(2, 9))
    Z = rng.normal(size=(n, d))
    if rng.random() < 0.5:
        Z /= np.linalg.norm(Z, axis=1, keepdims=True)
    else:
        Z *= 0.5  # keep logits moderate at temperature 0.07
    labels = rng.integers(0, 2, size=n)
    _, grad = supcon_loss(Z, labels)
    return _grad_error(
        grad, numeric_gradient(lambda: supcon_loss(Z, labels)[0], Z)
    )


def _model_config(rng):
    """Full encoder+projection stack: Linear, BatchNorm, ReLU, L2 normalize."""
    for _ in range(50):
        n = int(rng.integers(3, 7))
        d = int(rng.integers(2, 6))
        enc = encoder_spec(tuple(int(w) for w in rng.integers(2, 9, size=rng.integers(1, 3))))
        proj = projection_spec(tuple(int(w) for w in rng.integers(2, 9, size=rng.integers(1, 3))))
        model = EncoderProjectionModel(d, enc, proj, seed=int(rng.integers(1 << 16)))
        x = rng.normal(size=(n, d))
        labels = rng.integers(0, 2, size=n)
        # every layer but the closing L2 normalisation
        margin, proj_out = _relu_margin(model.layers[:-1], x)
        row_norms = np.linalg.norm(proj_out, axis=1)
        if margin > _KINK_MARGIN and row_norms.min() > _KINK_MARGIN:
            break

    def f():
        # closes over x and the model; perturbing either reruns the full stack
        return supcon_loss(model.forward(x, train=True), labels)[0]

    _, grad = supcon_loss(model.forward(x, train=True), labels)
    dx = model.backward(grad)
    params = model.parameters()
    grads = [g.copy() for g in model.gradients()]
    k = int(rng.integers(len(params)))
    worst = _grad_error(dx, numeric_gradient(f, x))
    return max(worst, _grad_error(grads[k], numeric_gradient(f, params[k])))


def _head_config(rng):
    """Sigmoid-capped MLP with batch norm, trained against one-hot BCE."""
    for _ in range(50):
        n = int(rng.integers(2, 7))
        d = int(rng.integers(2, 6))
        w = int(rng.integers(2, 9))
        spec = MlpSpec((w, 2), ("batch_norm", "none"), ("relu", "sigmoid"))
        mlp = MLP(d, spec, seed=int(rng.integers(1 << 16)))
        x = rng.normal(size=(n, d))
        labels = rng.integers(0, 2, size=n)
        targets = np.eye(2)[labels]
        margin, _ = _relu_margin(mlp.layers, x)
        if margin > _KINK_MARGIN:
            break

    def f():
        return bce_loss(mlp.forward(x, train=True), targets)[0]

    _, grad = bce_loss(mlp.forward(x, train=True), targets)
    dx = mlp.backward(grad)
    grads = [g.copy() for g in mlp.gradients()]
    params = mlp.parameters()
    k = int(rng.integers(len(params)))
    worst = _grad_error(dx, numeric_gradient(f, x))
    return max(worst, _grad_error(grads[k], numeric_gradient(f, params[k])))


def test_criterion_5_gradient_checks():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    errors = (
        [_supcon_config(rng) for _ in range(40)]
        + [_model_config(rng) for _ in range(40)]
        + [_head_config(rng) for _ in range(30)]
    )
    elapsed = time.perf_counter() - t0
    worst = max(errors)
    _verdict(
        5, "gradient checks",
        len(errors) >= 100 and worst < 1e-4 and elapsed < 30.0,
        f"{len(errors)} configs, worst rel err {worst:.2e}, {elapsed:.2f}s",
    )


# ------------------------------------------------------------ criterion 6

def _planted_cfg(seed: int, out_dir: str | None = None) -> ExperimentConfig:
    # epochs and learning rate chosen to fit the wall-clock budget; the
    # remaining knobs are the published desk-scale setup
    return ExperimentConfig(
        synthetic=SyntheticSpec(n_per_class=2000, seed=seed),
        base="svm",
        tolerance=ToleranceConfig(X=5.0, Y=5.0),
        retrain=RetrainConfig(
            encoder=encoder_spec((256, 128, 64, 32)),
            projection=projection_spec((16, 8)),
            train=TrainConfig(max_epochs=300, patience=50, learning_rate=0.003),
        ),
        feature_top_k=0,
        seed=seed,
        out_dir=out_dir,
    )


@pytest.fixture(scope="module")
def planted_battery():
    t0 = time.perf_counter()
    results = [run_experiment(_planted_cfg(seed)) for seed in range(5)]
    return results, time.perf_counter() - t0


def test_criterion_6_planted_improvement(planted_battery):
    results, elapsed = planted_battery
    captures = [r.summary["error_capture_pct"] for r in results]
    deltas = [r.summary["guided_difficult_delta_errors"] for r in results]
    guided = [r.summary["guided_difficult_errors_reduction_pct"] for r in results]
    classic = [r.summary["classic_difficult_errors_reduction_pct"] for r in results]
    mean_guided = float(np.mean(guided))
    mean_classic = float(np.mean(classic))
    ok = (
        min(captures) >= 85.0
        and float(np.mean(deltas)) < 0.0
        and mean_guided >= 30.0
        and mean_guided >= mean_classic - 2.0
        and elapsed < 600.0
    )
    _verdict(
        6, "planted synthetic improvement", ok,
        f"capture {captures}, guided reduction {guided} (mean {mean_guided:.2f}), "
        f"classic mean {mean_classic:.2f}, {elapsed:.0f}s",
    )


def test_criterion_7_curve_monotonicity(instances, planted_battery):
    results, _ = planted_battery
    curves = [c for r in results for c in r.curves.values()]
    for probs, confusion, _ in instances[:200]:
        curves.append(accumulated_error_curve(probs, confusion, CURVE_GRID))
    violations = 0
    for curve in curves:
        fns = [p.count for p in curve if p.side == "fn"]
        fps = [p.count for p in curve if p.side == "fp"]
        if np.any(np.diff(fns) < 0) or np.any(np.diff(fps) > 0):
            violations += 1
    _verdict(7, "curve monotonicity", violations == 0,
             f"{len(curves)} curves, {violations} violations")


# ------------------------------------------------------------ criterion 8

def _small_cfg(out_dir=None):
    return ExperimentConfig(
        synthetic=SyntheticSpec(n_per_class=100, n_features=3, seed=0),
        base="logistic",
        retrain=RetrainConfig(
            encoder=encoder_spec((8, 4)),
            projection=projection_spec((4, 2)),
            train=TrainConfig(max_epochs=10, patience=5, learning_rate=0.01),
        ),
        seed=0,
        out_dir=out_dir,
    )


def test_criterion_8_determinism_and_persistence(tmp_path):
    first = run_experiment(_small_cfg())
    second = run_experiment(_small_cfg())
    same_rows = metrics_to_csv(first.rows) == metrics_to_csv(second.rows)
    same_summary = first.summary == second.summary
    same_curves = first.curves == second.curves

    assert first.guided is not None
    path = tmp_path / "pipe.zip"
    save_pipeline(first.guided, path)
    reloaded = load_pipeline(path)
    batch = load_data(_small_cfg())
    l1, r1 = pipeline_predict(first.guided, batch)
    l2, r2 = pipeline_predict(reloaded, batch)
    same_preds = np.array_equal(l1, l2) and np.array_equal(r1, r2)
    _verdict(
        8, "determinism and persistence",
        same_rows and same_summary and same_curves and same_preds,
        f"rows {same_rows}, summary {same_summary}, curves {same_curves}, "
        f"reload {same_preds}",
    )
