"""Outside-in layer tracer for the benchmark.

The tracer replaces public callables of the package with timing wrappers for
the duration of a ``with tracer.installed(phase):`` block and puts the
originals back afterwards, so nothing inside ``src/`` carries tracing code.
Each name is wrapped where the caller looks it up: ``supcon_loss`` is
replaced in ``nn.training`` (which imported it by name), not in
``nn.losses``. A target whose module or attribute no longer exists is
recorded in ``absent`` and skipped, so refactors that delete or merge
callables leave the benchmark running.

Every span records calls, inclusive time and self time (inclusive time minus
the time of wrapped calls made inside it). Spans are named after the module
that defines the callable, relative to the package, e.g.
``nn.losses.supcon_loss``; layer forwards are split by their ``train``
argument into ``forward_train`` and ``forward_eval``.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PACKAGE = "guidedboost"


def _forward_mode(args, kwargs) -> str:
    train = args[2] if len(args) > 2 else kwargs.get("train", False)
    return "forward_train" if train else "forward_eval"


def _rows_arg1(s, args, kwargs, result):
    # forward(self, x, train) / decision_scores(self, X) / predict_proba(self, X)
    s["rows"] += len(args[1])


def _supcon_pairs(s, args, kwargs, result):
    n = len(args[0])
    s["pairs"] += n * n


def _fit_epochs(s, args, kwargs, result):
    # train_model(data: FeatureMatrix, ...) / train_auxiliary(embeddings: ndarray, ...)
    n = getattr(args[0], "n_samples", None)
    n = len(args[0]) if n is None else n
    epochs = result.train_state.epochs_run
    s["epochs"] += epochs
    s["samples"] += n * epochs


def _pairs_skipped(s, args, kwargs, result):
    s["pairs_skipped"] += sum(m is None for m in result.models_1_to_4)


def _routes(s, args, kwargs, result):
    _, routes = result
    s["rows"] += len(routes)
    s["aux_rows"] += int((routes == "auxiliary").sum())


@dataclass(frozen=True)
class Target:
    """One callable to wrap: span name, lookup module, attribute path."""

    span: str
    module: str
    attr: str
    count: Callable | None = None
    split: Callable | None = None


def _layer_targets():
    out = []
    for cls in ("Linear", "BatchNorm", "ReLU", "L2Normalize", "Sigmoid"):
        out.append(Target(f"nn.layers.{cls}", "nn.layers", f"{cls}.forward",
                          count=_rows_arg1, split=_forward_mode))
        out.append(Target(f"nn.layers.{cls}.backward", "nn.layers", f"{cls}.backward"))
    return out


TARGETS: tuple[Target, ...] = (
    # entry points the benchmark itself calls
    Target("harness.experiment.run_experiment", "harness.experiment", "run_experiment"),
    Target("harness.experiment.prepare", "harness.experiment", "prepare"),
    Target("pipeline.pipeline_predict", "pipeline", "pipeline_predict", count=_routes),
    Target("persistence.load", "persistence", "load"),
    Target("persistence.save", "persistence", "save"),
    # the front half, as run_experiment/prepare look the names up
    Target("harness.experiment.fit_base", "harness.experiment", "fit_base"),
    Target("harness.synth.generate_synthetic", "harness.experiment", "generate_synthetic"),
    Target("harness.splits.split_80_10_10", "harness.experiment", "split_80_10_10"),
    Target("classifiers.linear.train_linear_svm", "harness.experiment", "train_linear_svm"),
    Target("classifiers.forest.train_random_forest", "harness.experiment",
           "train_random_forest"),
    Target("classifiers.forest.train_random_forest", "classifiers.adapters",
           "train_random_forest"),
    Target("classifiers.linear.LinearModel.decision_scores", "classifiers.linear",
           "LinearModel.decision_scores", count=_rows_arg1),
    Target("classifiers.forest.ForestModel.predict_proba", "classifiers.forest",
           "ForestModel.predict_proba", count=_rows_arg1),
    Target("data.FeatureMatrix.subset_by_ids", "data", "FeatureMatrix.subset_by_ids"),
    Target("data.FeatureMatrix.positions_of", "data", "FeatureMatrix.positions_of"),
    Target("data.confusion_partition", "harness.experiment", "confusion_partition"),
    Target("data.confusion_partition", "pipeline", "confusion_partition"),
    Target("data.prediction_report", "harness.experiment", "prediction_report"),
    Target("thresholding.select_thresholds", "harness.experiment", "select_thresholds"),
    Target("thresholding.split_dataset", "harness.experiment", "split_dataset"),
    Target("thresholding.accumulated_error_curve", "harness.experiment",
           "accumulated_error_curve"),
    Target("persistence.save", "harness.experiment", "save"),
    # the second stage, as run_experiment/pipeline/nn.training look the names up
    Target("pipeline.guided_fit", "harness.experiment", "guided_fit", count=_pairs_skipped),
    Target("pipeline.classic_fit", "harness.experiment", "classic_fit"),
    Target("nn.training.train_model", "pipeline", "train_model", count=_fit_epochs),
    Target("nn.training.train_auxiliary", "pipeline", "train_auxiliary", count=_fit_epochs),
    Target("nn.losses.supcon_loss", "nn.training", "supcon_loss", count=_supcon_pairs),
    Target("nn.losses.bce_loss", "nn.training", "bce_loss"),
    Target("nn.training.stratified_batches", "nn.training", "stratified_batches"),
    Target("nn.network.MLP.sgd_step", "nn.network", "MLP.sgd_step"),
    *_layer_targets(),
)


def _resolve(module: str, attr: str):
    """(owner, name) for ``module:attr``, or None when either is gone."""
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module}")
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Span statistics keyed by (phase, span name)."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS):
        self.targets = targets
        self.stats: dict[tuple[str, str], dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.absent: list[str] = []
        self._stack: list[list[float]] = []

    def _wrap(self, fn, target: Target, phase: str):
        stats, stack = self.stats, self._stack

        def wrapper(*args, **kwargs):
            span = target.span
            if target.split is not None:
                span = f"{span}.{target.split(args, kwargs)}"
            frame = [0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                s = stats[(phase, span)]
                s["calls"] += 1
                s["incl_s"] += dt
                s["self_s"] += dt - frame[0]
            if target.count is not None:
                target.count(s, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, phase: str):
        """Wrap every resolvable target while the block runs."""
        undo = []
        try:
            for t in self.targets:
                found = _resolve(t.module, t.attr)
                if found is None:
                    where = f"{t.module}.{t.attr}"
                    if where not in self.absent:
                        self.absent.append(where)
                    continue
                owner, name = found
                own = vars(owner)
                had = name in own
                original = own[name] if had else getattr(owner, name)
                setattr(owner, name, self._wrap(original, t, phase))
                undo.append((owner, name, had, original))
            yield self
        finally:
            for owner, name, had, original in reversed(undo):
                if had:
                    setattr(owner, name, original)
                else:
                    delattr(owner, name)

    def get(self, phase: str, span: str, stat: str) -> float:
        s = self.stats.get((phase, span))
        return 0.0 if s is None else float(s.get(stat, 0.0))


# Per-layer metrics, named <span>.<stat>. Counts and times are per timed call
# (per setup for setup_self_s); the last three are properties of the run.
_LAYER_SPANS = [
    f"nn.layers.{cls}.{mode}"
    for cls in ("Linear", "BatchNorm", "ReLU", "L2Normalize", "Sigmoid")
    for mode in ("forward_train", "forward_eval", "backward")
]
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((f"{span}.self_s", "s", "lower") for span in _LAYER_SPANS),
    ("nn.layers.Linear.forward_train.calls", "count", "lower"),
    ("nn.layers.Linear.forward_eval.calls", "count", "lower"),
    ("nn.layers.Linear.forward_eval.rows", "count", "lower"),
    ("nn.losses.supcon_loss.self_s", "s", "lower"),
    ("nn.losses.supcon_loss.calls", "count", "lower"),
    ("nn.losses.supcon_loss.pairs", "count", "lower"),
    ("nn.losses.bce_loss.self_s", "s", "lower"),
    ("nn.losses.bce_loss.calls", "count", "lower"),
    ("nn.network.MLP.sgd_step.self_s", "s", "lower"),
    ("nn.network.MLP.sgd_step.calls", "count", "lower"),
    ("nn.training.stratified_batches.self_s", "s", "lower"),
    ("nn.training.stratified_batches.calls", "count", "lower"),
    ("nn.training.train_model.self_s", "s", "lower"),
    ("nn.training.train_model.epochs", "count", "lower"),
    ("nn.training.train_model.samples_per_s", "1/s", "higher"),
    ("nn.training.train_auxiliary.self_s", "s", "lower"),
    ("nn.training.train_auxiliary.epochs", "count", "lower"),
    ("nn.training.train_auxiliary.samples_per_s", "1/s", "higher"),
    ("pipeline.guided_fit.incl_s", "s", "lower"),
    ("pipeline.guided_fit.pairs_skipped", "count", "lower"),
    ("pipeline.classic_fit.incl_s", "s", "lower"),
    ("pipeline.pipeline_predict.self_s", "s", "lower"),
    ("pipeline.pipeline_predict.calls", "count", "lower"),
    ("pipeline.pipeline_predict.aux_share", "ratio", "lower"),
    ("harness.experiment.run_experiment.self_s", "s", "lower"),
    ("harness.experiment.prepare.self_s", "s", "lower"),
    ("harness.experiment.fit_base.self_s", "s", "lower"),
    ("classifiers.linear.train_linear_svm.self_s", "s", "lower"),
    ("classifiers.linear.LinearModel.decision_scores.self_s", "s", "lower"),
    ("classifiers.linear.LinearModel.decision_scores.rows_ratio", "ratio", "lower"),
    ("classifiers.forest.train_random_forest.self_s", "s", "lower"),
    ("classifiers.forest.ForestModel.predict_proba.self_s", "s", "lower"),
    ("classifiers.forest.ForestModel.predict_proba.rows_ratio", "ratio", "lower"),
    ("data.FeatureMatrix.subset_by_ids.self_s", "s", "lower"),
    ("data.FeatureMatrix.positions_of.self_s", "s", "lower"),
    ("data.confusion_partition.self_s", "s", "lower"),
    ("data.prediction_report.self_s", "s", "lower"),
    ("thresholding.select_thresholds.self_s", "s", "lower"),
    ("thresholding.split_dataset.self_s", "s", "lower"),
    ("thresholding.accumulated_error_curve.self_s", "s", "lower"),
    ("harness.synth.generate_synthetic.self_s", "s", "lower"),
    ("harness.splits.split_80_10_10.self_s", "s", "lower"),
    ("persistence.save.self_s", "s", "lower"),
    ("persistence.save.setup_self_s", "s", "lower"),
    ("persistence.load.setup_self_s", "s", "lower"),
    ("process.cpu_per_wall", "ratio", "lower"),
    ("trace.uncovered_share", "ratio", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer, root_spans: tuple[str, ...], n_ops: int, n_setups: int, input_rows: int,
    op_wall: float, op_cpu: float, overhead_s: float,
) -> dict[str, float]:
    """Values for every PER_LAYER name from one traced run.

    root_spans are the entry points the benchmark timed; their self time is
    the wall time no deeper wrapped call accounts for (trace.uncovered_share).
    op_wall/op_cpu are summed over the n_ops traced calls.
    """
    get = tracer.get
    special = {
        "process.cpu_per_wall": _ratio(op_cpu, op_wall),
        "trace.uncovered_share": _ratio(sum(get("op", r, "self_s") for r in root_spans),
                                        sum(get("op", r, "incl_s") for r in root_spans)),
        "trace.overhead_s": overhead_s,
    }
    out = {}
    for name, _, _ in PER_LAYER:
        if name in special:
            out[name] = special[name]
            continue
        span, stat = name.rsplit(".", 1)
        if stat == "samples_per_s":
            value = _ratio(get("op", span, "samples"), get("op", span, "incl_s"))
        elif stat == "aux_share":
            value = _ratio(get("op", span, "aux_rows"), get("op", span, "rows"))
        elif stat == "rows_ratio":
            value = _ratio(get("op", span, "rows"), n_ops * input_rows)
        elif stat == "setup_self_s":
            value = _ratio(get("setup", span, "self_s"), n_setups)
        else:
            value = _ratio(get("op", span, stat), n_ops)
        out[name] = value
    return out
