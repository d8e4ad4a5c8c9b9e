"""End-to-end experiment driver.

Runs the full protocol: base training, probability calibration, easy/difficult
splitting, guided + classic retraining, evaluation, and artifact emission.
prepare() covers the shared front half (load through splitting and curves) so
partial CLI commands and the full run use identical logic. Every stage failure
is re-raised as a StageError naming the stage.
"""
from __future__ import annotations

import io
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .. import __version__
from ..classifiers.adapters import IdentityAdapter, KnnAdapter, SvmAdapter
from ..classifiers.forest import train_random_forest
from ..classifiers.knn import NearestNeighborModel
from ..classifiers.linear import train_linear_svm, train_logistic
from ..data import (
    FeatureMatrix,
    PredictionReport,
    SplitAssignment,
    ThresholdPair,
    confusion_partition,
    prediction_report,
)
from ..metrics import EvaluationReport, delta_errors, errors_reduction, evaluate
from ..parallel import run_all
from ..persistence import save
from ..pipeline import (
    Pipeline,
    Stage,
    classic_fit,
    difficult_set_problem,
    guided_fit,
    guided_pair_jobs,
    pair_models,
)
from ..thresholding import (
    CurvePoint,
    ToleratedCounts,
    accumulated_error_curve,
    curve_to_csv,
    select_thresholds,
    split_dataset,
    tolerated_counts,
)
from .config import BASE_PARAMS, ExperimentConfig, config_to_dict, save_config
from .features import feature_select_topk
from .io import load_file, output_dir
from .splits import split_80_10_10
from .synth import generate_synthetic

CURVE_GRID = np.linspace(0.0, 1.0, 101)
# the retraining variants, in the order their metrics.csv rows and summary
# keys are written
VARIANTS = ("classic", "guided")


class StageError(RuntimeError):
    """An experiment stage failed; carries the stage name for diagnostics."""

    def __init__(self, stage: str, original: BaseException):
        super().__init__(f"stage {stage}: {original}")
        self.stage = stage
        self.original = original

    def __reduce__(self):
        # so that a StageError raised in a worker process reaches the parent
        return StageError, (self.stage, self.original)


@contextmanager
def _stage(name: str):
    try:
        yield
    except StageError:
        raise
    except Exception as exc:
        raise StageError(name, exc) from exc


@dataclass(frozen=True)
class MetricsRow:
    """One Table-style report line: a predictor's report and, for a retrained
    variant, its change in errors against the base on the same rows."""

    predictor: str
    report: EvaluationReport
    delta_errors: int | None = None
    errors_reduction_pct: float | None = None


def _row(predictor: str, report: EvaluationReport,
         base: EvaluationReport | None = None) -> MetricsRow:
    if base is None:
        return MetricsRow(predictor, report)
    delta = delta_errors(base, report)
    return MetricsRow(predictor, report, delta, errors_reduction(delta, base.total_errors))


def metrics_to_csv(rows: list[MetricsRow]) -> str:
    buf = io.StringIO()
    buf.write("predictor,scope,n,accuracy,f1,errors,delta_errors,errors_reduction_pct\n")
    for r in rows:
        rep = r.report
        delta = "" if r.delta_errors is None else r.delta_errors
        red = "" if r.errors_reduction_pct is None else f"{r.errors_reduction_pct:.2f}"
        buf.write(f"{r.predictor},{rep.scope},{rep.n},{rep.accuracy:.6f},{rep.f1:.6f},"
                  f"{rep.total_errors},{delta},{red}\n")
    return buf.getvalue()


def load_data(cfg: ExperimentConfig) -> FeatureMatrix:
    if cfg.synthetic is not None:
        return generate_synthetic(cfg.synthetic)
    return load_file(cfg.data_path, cfg.data_format)


def fit_base(kind: str, params: dict, train: FeatureMatrix, val: FeatureMatrix,
             test: FeatureMatrix, seed: int):
    """Train the configured base classifier and wrap it in its adapter.

    The run seed reaches only the randomised kinds (forest, and knn's
    error-proxy forest); the linear trainers draw no random numbers.
    """
    if kind in ("forest", "knn"):
        params = {"seed": seed, **params}
    settings = BASE_PARAMS[kind](**params)
    if kind == "logistic":
        return IdentityAdapter(train_logistic(train, settings))
    if kind == "svm":
        return SvmAdapter.fit(train_linear_svm(train, settings), train, val, test)
    if kind == "forest":
        return IdentityAdapter(train_random_forest(train, settings))
    return KnnAdapter.fit(NearestNeighborModel.fit(train), train, settings)


@dataclass
class Prepared:
    """State after the front half of the protocol (everything before retraining).

    ``n_samples`` and ``n_raw_features`` give the loaded dataset's size before
    feature selection; its rows are held only by the three splits.
    ``routing[split]`` is ``reports[split].probabilities``, which calibrate and route.
    """

    n_samples: int
    n_raw_features: int
    kept: np.ndarray | None
    train: FeatureMatrix
    val: FeatureMatrix
    test: FeatureMatrix
    adapter: object
    reports: dict[str, PredictionReport]
    routing: dict[str, np.ndarray]
    tolerated: ToleratedCounts
    thresholds: ThresholdPair
    assignments: dict[str, SplitAssignment]
    difficult_train: FeatureMatrix
    difficult_val: FeatureMatrix
    difficult_test: FeatureMatrix
    curves: dict[str, list[CurvePoint]]


def _report_for(adapter, data: FeatureMatrix) -> PredictionReport:
    return prediction_report(adapter.predict_probabilities(data.values), data.labels, data.ids)


def prepare(cfg: ExperimentConfig) -> Prepared:
    """Load, split, select features, train the base, calibrate, and partition.

    The loaded matrix is released once the split has copied its rows.
    """
    with _stage("load"):
        data = load_data(cfg)
    n_samples, n_raw_features = data.n_samples, data.n_features
    with _stage("split"):
        parts = split_80_10_10(data, cfg.fractions, cfg.seed)
    del data

    kept = None
    if cfg.feature_top_k:
        with _stage("features"):
            kept, parts = feature_select_topk(parts[0], cfg.feature_top_k, *parts[1:])
    parts = dict(zip(("train", "validation", "test"), parts))

    with _stage("train-base"):
        adapter = fit_base(cfg.base, cfg.base_params, *parts.values(), cfg.seed)
        reports = {split: _report_for(adapter, part) for split, part in parts.items()}
        routing = {split: r.probabilities for split, r in reports.items()}

    with _stage("calibrate"):
        tags = confusion_partition(routing["validation"], parts["validation"].labels)
        tolerated = tolerated_counts(
            cfg.tolerance, int(np.sum(tags == "FP")), int(np.sum(tags == "FN"))
        )
        thresholds = select_thresholds(routing["validation"], tags, tolerated)

    with _stage("split-sets"):
        assignments = {
            split: split_dataset(routing[split], thresholds, part.ids)
            for split, part in parts.items()
        }
        difficult = {
            split: part.subset_by_ids(assignments[split].difficult_ids)
            for split, part in parts.items()
        }

    with _stage("curve"):
        test_tags = confusion_partition(routing["test"], parts["test"].labels)
        curves = {
            "validation": accumulated_error_curve(routing["validation"], tags, CURVE_GRID),
            "test": accumulated_error_curve(routing["test"], test_tags, CURVE_GRID),
        }

    return Prepared(
        n_samples=n_samples, n_raw_features=n_raw_features, kept=kept, train=parts["train"],
        val=parts["validation"], test=parts["test"], adapter=adapter, reports=reports,
        routing=routing, tolerated=tolerated, thresholds=thresholds, assignments=assignments,
        difficult_train=difficult["train"], difficult_val=difficult["validation"],
        difficult_test=difficult["test"], curves=curves,
    )


@dataclass
class ExperimentResult:
    """Everything a run produced, kept in memory; files mirror it when out_dir is set."""

    config: ExperimentConfig
    thresholds: ThresholdPair
    rows: list[MetricsRow]
    curves: dict[str, list[CurvePoint]]
    guided: Pipeline | None
    classic: Pipeline | None
    skipped: str | None
    summary: dict = field(default_factory=dict)


def _guided_args(prep: Prepared, cfg: ExperimentConfig) -> tuple:
    """guided_fit's positional arguments: the difficult rows, with the base
    probabilities that routed them (not a second pass), and the settings."""
    train_p, val_p = (prep.routing[split][~prep.thresholds.easy(prep.routing[split])]
                      for split in ("train", "validation"))
    return prep.difficult_train, train_p, prep.difficult_val, val_p, cfg.retrain


def _fit_variant(name: str, prep: Prepared, cfg: ExperimentConfig,
                 models_1_to_4: tuple) -> tuple:
    """(Model, head) of variant name's retraining stage, fitted on the
    difficult rows: only the networks trained here, so a worker sends back
    no pair Model. The guided stage is given its trained pair Models."""
    with _stage(f"{name}-retrain"):
        if name == "classic":
            stage = classic_fit(prep.difficult_train, prep.difficult_val, cfg.retrain,
                                seed=cfg.seed)
        else:
            stage = guided_fit(*_guided_args(prep, cfg), seed=cfg.seed,
                               models_1_to_4=models_1_to_4)
    return stage.model, stage.auxiliary


def run_experiment(
    cfg: ExperimentConfig, variants: tuple[str, ...] = VARIANTS
) -> ExperimentResult:
    """Execute the full protocol; see the module docstring.

    variants picks which retraining stages to fit; the default runs all of
    them so their reports can be compared. The stages fit in two rounds of
    ``run_all``, both started here, so no worker forks: first the guided
    pair Models 1-4, then each variant's embedding Model with its head, in
    ``VARIANTS`` order. In serial that order is the pairs, the classic
    stage, then Model 5, and a failure raises the error it meets first.
    """
    unknown = set(variants) - set(VARIANTS)
    if unknown:
        raise ValueError(f"run_experiment: unknown variants {sorted(unknown)}")
    prep = prepare(cfg)
    test, difficult_test = prep.test, prep.difficult_test
    base_preds = prep.reports["test"].predictions

    with _stage("evaluate"):
        easy = prep.thresholds.easy(prep.routing["test"])
        base_whole = evaluate(base_preds, test.labels, scope="whole")
        scoped = {
            scope: evaluate(base_preds[mask], test.labels[mask], scope=scope)
            for scope, mask in (("easy", easy), ("difficult", ~easy))
            if mask.any()
        }
        rows = [_row("base", r) for r in (base_whole, *scoped.values())]
        base_difficult = scoped.get("difficult")

    pipelines: dict[str, Pipeline] = {}
    skipped = difficult_set_problem(prep.difficult_train)
    if skipped is None:
        names = [name for name in VARIANTS if name in variants]
        pairs = {"classic": ()}
        if "guided" in names:
            with _stage("guided-retrain"):
                jobs = guided_pair_jobs(*_guided_args(prep, cfg), seed=cfg.seed)
                pairs["guided"] = pair_models(jobs, run_all(list(jobs.values())))
        trained = run_all([partial(_fit_variant, name, prep, cfg, pairs[name])
                           for name in names])
        pipelines = {
            name: Pipeline(
                prep.adapter, prep.thresholds, Stage(pairs[name], *networks),
                prep.n_raw_features, feature_selection=prep.kept,
                metadata={"seed": cfg.seed, "config": config_to_dict(cfg),
                          "package_version": __version__},
            )
            for name, networks in zip(names, trained)
        }

    summary: dict = {
        "n_samples": prep.n_samples,
        "n_features": prep.n_raw_features,
        "kept_features": None if prep.kept is None else [int(i) for i in prep.kept],
        "split_sizes": {
            "train": prep.train.n_samples, "validation": prep.val.n_samples,
            "test": test.n_samples,
        },
        "difficult_sizes": {
            "train": prep.difficult_train.n_samples,
            "validation": prep.difficult_val.n_samples,
            "test": difficult_test.n_samples,
        },
        "thresholds": {"th_n": prep.thresholds.th_n, "th_p": prep.thresholds.th_p},
        "tolerated": {
            "fps": prep.tolerated.tolerated_fps, "fns": prep.tolerated.tolerated_fns,
        },
        "base_test_errors": base_whole.total_errors,
        "base_difficult_test_errors": (
            None if base_difficult is None else base_difficult.total_errors
        ),
        "error_capture_pct": None,
        "skipped": skipped,
    }
    if base_whole.total_errors and base_difficult is not None:
        summary["error_capture_pct"] = round(
            base_difficult.total_errors / base_whole.total_errors * 100.0, 2
        )

    if difficult_test.n_samples:
        with _stage("evaluate"):
            for name, pipe in pipelines.items():
                aux_preds = pipe.stage.predict(difficult_test.values)
                # difficult_test holds the test rows at ~easy, in test order
                combined = base_preds.copy()
                combined[~easy] = aux_preds
                on_difficult = _row(name, evaluate(aux_preds, difficult_test.labels,
                                                   scope="difficult"), base_difficult)
                on_whole = _row(name, evaluate(combined, test.labels, scope="combined"),
                                base_whole)
                rows += [on_difficult, on_whole]
                summary[f"{name}_difficult_delta_errors"] = on_difficult.delta_errors
                summary[f"{name}_difficult_errors_reduction_pct"] = (
                    on_difficult.errors_reduction_pct
                )
                summary[f"{name}_combined_errors"] = on_whole.report.total_errors

    result = ExperimentResult(
        config=cfg,
        thresholds=prep.thresholds,
        rows=rows,
        curves=prep.curves,
        skipped=skipped,
        summary=summary,
        **{name: pipelines.get(name) for name in VARIANTS},
    )
    if cfg.out_dir:
        with _stage("persist"):
            _write_bundle(result)
    return result


def _write_bundle(result: ExperimentResult) -> None:
    out = output_dir(result.config.out_dir)
    (out / "metrics.csv").write_text(metrics_to_csv(result.rows))
    for name, points in result.curves.items():
        (out / f"curve_{name}.csv").write_text(curve_to_csv(points))
    (out / "summary.json").write_text(json.dumps(result.summary, indent=2) + "\n")
    save_config(result.config, out / "config.json")
    for name in VARIANTS:
        pipe = getattr(result, name)
        if pipe is not None:
            save(pipe, out / f"pipeline_{name}.zip")
