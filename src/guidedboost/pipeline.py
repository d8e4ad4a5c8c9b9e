"""End-to-end orchestration of the two-stage classifier.

A fitted `Pipeline` routes each sample by its base probability: outside the
calibrated thresholds the base's own prediction stands; inside, the sample
goes through the pipeline's retraining `Stage`, whose embedder feeds the
auxiliary head. A guided stage embeds through the four confusion-pair Models
and Model 5 on their concatenated embeddings; a classic stage (the baseline)
through a single Model.

The pair Models are the jobs of ``guided_pair_jobs``. ``guided_fit`` runs
them side by side (``parallel.run_all``), or takes them already trained
(``models_1_to_4``) and trains only Model 5 and its head: that is how
``run_experiment`` trains Model 5 beside the classic stage.

Every eval-mode pass of the networks over a set of rows, in training (the
embeddings that Model 5 and the head train on) and in prediction, runs over
fixed blocks of ``PREDICT_BLOCK_ROWS`` rows into one preallocated output. So
the memory it needs beyond that output is bounded at any input size, and the
bits are those of one whole-batch pass. In prediction a row's label does not
depend on the batch it came in. The blocks are dealt to threads by the rule
of ``parallel`` (``thread_map``); each block is computed on its own, so only
the thread that runs it depends on the CPU count, never its bits.
"""
from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import FeatureMatrix, ThresholdPair, confusion_partition
from .nn.network import (
    MLP,
    EncoderProjectionModel,
    MlpSpec,
    encoder_spec,
    head_labels,
    projection_spec,
)
from .nn.training import TrainConfig, train_auxiliary, train_model
from .parallel import run_all, thread_map

log = logging.getLogger(__name__)

# confusion-cell pairings, in fixed concatenation order
MODEL_PAIRS = (("TP", "FP"), ("TN", "FN"), ("TP", "TN"), ("FP", "FN"))
# seed tags: models 1-4 use 1-4; the embedding provider (model 5 or the
# classic single model) uses 5 and the auxiliary 6, so guided and classic
# heads start from identical weights
_EMBEDDER_TAG = 5
_AUX_TAG = 6
# rows per block of every eval-mode network pass: each layer's temporaries
# stay this tall, the widest 256 x 256 float64 (512 KB). 1024-row blocks
# raised a README quick-start run's peak RSS by about 5 MB; 128 saved little.
PREDICT_BLOCK_ROWS = 256


@dataclass
class RetrainConfig:
    """Architecture and regime for the retraining stage."""

    encoder: MlpSpec = field(default_factory=encoder_spec)
    projection: MlpSpec = field(default_factory=projection_spec)
    train: TrainConfig = field(default_factory=TrainConfig)


def concat_embeddings(
    models: tuple[EncoderProjectionModel | None, ...], X: np.ndarray, block_width: int
) -> np.ndarray:
    """Fixed-order concatenation of the four embedding blocks of the rows X,
    one pass of each model. A skipped model leaves its block of the
    configured width at zero, so the concatenated layout never changes."""
    out = np.zeros((X.shape[0], len(models) * block_width))
    for k, m in enumerate(models):
        if m is not None:
            out[:, k * block_width : (k + 1) * block_width] = m.embed(X)
    return out


def _embed(model: EncoderProjectionModel, X: np.ndarray) -> np.ndarray:
    """``model.embed(X)``, computed block by block."""
    return _in_blocks(model.embed, X, np.empty((X.shape[0], model.embedding_width)))


def _in_blocks(fn, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out[rows] = fn(X[rows])`` over the ``_row_blocks`` of X; returns out.

    The blocks are the items of one ``parallel.thread_map``.
    """
    blocks = _row_blocks(X.shape[0])

    def fill(i: int) -> None:
        out[blocks[i]] = fn(X[blocks[i]])

    with thread_map(len(blocks)) as (_, map_items):
        map_items(fill)
    return out


def _row_blocks(n: int) -> list[slice]:
    """Consecutive slices of PREDICT_BLOCK_ROWS rows covering ``range(n)``.

    A 1-row tail joins the block before it: a 1-row matmul takes BLAS's
    matrix-vector path, whose bits differ from the same row in a batch,
    while blocks of two rows or more give the bits of one whole-batch pass.
    """
    starts = list(range(0, n, PREDICT_BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


@dataclass
class Stage:
    """Trained retraining stage: an embedder feeding the auxiliary head.

    The head is an MLP built from ``auxiliary_spec()``; ``head_labels`` gives
    its labels.

    Guided: ``models_1_to_4`` holds the four confusion-pair Models (None for a
    skipped pairing) and ``model`` is Model 5, fed their concatenated
    embeddings. Classic: ``models_1_to_4`` is empty and ``model`` is the single
    Model, fed the samples themselves.
    """

    models_1_to_4: tuple[EncoderProjectionModel | None, ...]
    model: EncoderProjectionModel
    auxiliary: MLP

    def __post_init__(self):
        if len(self.models_1_to_4) not in (0, 4):
            raise ValueError("Stage: expected four pair models (guided) or none (classic)")
        if self.models_1_to_4:
            widths = {m.embedding_width for m in self.models_1_to_4 if m is not None}
            if len(widths) > 1:
                raise ValueError("Stage: pair models disagree on embedding width")
            block = widths.pop() if widths else self.model.input_width // 4
            if self.model.input_width != 4 * block:
                raise ValueError(
                    f"Stage: model 5 input width {self.model.input_width} "
                    f"is not 4 x block width {block}"
                )
        if self.auxiliary.input_width != self.model.embedding_width:
            raise ValueError("Stage: auxiliary width does not match model output")

    def embed(self, X: np.ndarray) -> np.ndarray:
        """The embeddings the auxiliary head classifies, in one pass over X."""
        if self.models_1_to_4:
            X = concat_embeddings(self.models_1_to_4, X, self.model.input_width // 4)
        return self.model.embed(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """The head's labels, computed block by block (see ``_row_blocks``)."""
        if X.shape[0] == 1:
            # a lone row goes in twice, so it takes the batch path as well
            return self.predict(np.repeat(X, 2, axis=0))[:1]
        return _in_blocks(
            lambda block: head_labels(self.auxiliary, self.embed(block)), X,
            np.empty(X.shape[0], dtype=np.int64),
        )


@contextmanager
def _training(network: str):
    """Name the failing network in a non-finite training error."""
    try:
        yield
    except FloatingPointError as exc:
        raise FloatingPointError(f"{network}: {exc}") from exc


def difficult_set_problem(train: FeatureMatrix) -> str | None:
    """Why the second stage cannot train on this difficult training set, or None."""
    if train.n_samples == 0:
        return "difficult training set is empty"
    if len(np.unique(train.labels)) < 2:
        return "difficult training set contains a single class"
    return None


def _check_difficult(train: FeatureMatrix, val: FeatureMatrix, what: str):
    problem = difficult_set_problem(train)
    if problem is not None:
        raise ValueError(f"{what}: {problem}")
    if val.n_features != train.n_features:
        raise ValueError(f"{what}: validation feature width differs from training")


def _fit_stage(
    models_1_to_4: tuple[EncoderProjectionModel | None, ...],
    train: FeatureMatrix,
    val: FeatureMatrix,
    cfg: RetrainConfig,
    seed: int,
    what: str,
    model_name: str,
) -> Stage:
    """Train the embedding Model (seed tag 5) on train, then the head (tag 6)."""
    with _training(f"{what}: {model_name}"):
        model = train_model(
            train, val, cfg.train, cfg.encoder, cfg.projection, seed=[seed, _EMBEDDER_TAG]
        )
    with _training(f"{what}: auxiliary head"):
        auxiliary = train_auxiliary(
            _embed(model, train.values), train.labels, _embed(model, val.values), val.labels,
            cfg.train, seed=[seed, _AUX_TAG],
        )
    return Stage(models_1_to_4=models_1_to_4, model=model, auxiliary=auxiliary)


def _fit_pair(k: int, train: FeatureMatrix, rows: np.ndarray, val: FeatureMatrix,
              val_rows: np.ndarray, cfg: RetrainConfig, seed: int) -> EncoderProjectionModel:
    """Model k (seed tag k) on the given rows of train. It early-stops on the
    given rows of val, or on all of val when they are fewer than 2."""
    val_k = val.subset(val_rows) if len(val_rows) >= 2 else val
    with _training(f"guided_fit: model {k}"):
        return train_model(train.subset(rows), val_k, cfg.train, cfg.encoder, cfg.projection,
                           seed=[seed, k])


def guided_pair_jobs(difficult_train: FeatureMatrix, probabilities: np.ndarray,
                     difficult_val: FeatureMatrix, val_probabilities: np.ndarray,
                     cfg: RetrainConfig, *, seed: int) -> dict[int, partial]:
    """``{k: job}``: the job that trains Model k, for each pairing of
    ``MODEL_PAIRS`` that is not skipped. A pairing with an empty cell is
    skipped, with a warning, and its embedding block stays zero. The
    arguments are ``guided_fit``'s."""
    _check_difficult(difficult_train, difficult_val, "guided_fit")
    try:
        tags = confusion_partition(probabilities, difficult_train.labels)
        val_tags = confusion_partition(val_probabilities, difficult_val.labels)
    except ValueError as exc:
        raise ValueError(f"guided_fit: {exc}") from None
    jobs = {}
    for k, pair in enumerate(MODEL_PAIRS, start=1):
        rows = np.flatnonzero(np.isin(tags, pair))
        if len(np.unique(difficult_train.labels[rows])) < 2:
            log.warning("guided_fit: model %d (%s+%s) skipped, confusion cell empty; "
                        "its embedding block will be zeros", k, *pair)
            continue
        val_rows = np.flatnonzero(np.isin(val_tags, pair))
        jobs[k] = partial(_fit_pair, k, difficult_train, rows, difficult_val, val_rows, cfg, seed)
    return jobs


def pair_models(jobs: dict[int, partial],
                trained: list) -> tuple[EncoderProjectionModel | None, ...]:
    """Models 1-4 from the results of ``guided_pair_jobs``' jobs, in job
    order; None for a skipped pairing."""
    done = dict(zip(jobs, trained))
    return tuple(done.get(k) for k in range(1, len(MODEL_PAIRS) + 1))


def guided_fit(
    difficult_train: FeatureMatrix,
    probabilities: np.ndarray,
    difficult_val: FeatureMatrix,
    val_probabilities: np.ndarray,
    cfg: RetrainConfig,
    *,
    seed: int,
    models_1_to_4: tuple[EncoderProjectionModel | None, ...] | None = None,
) -> Stage:
    """Train the guided stage on the difficult training subset.

    Models 1-4 are trained on the confusion-cell pairings TP'+FP', TN'+FN',
    TP'+TN' and FP'+FN' of the base's predictions, using true labels as
    contrastive classes; a pairing with an empty cell is skipped and its
    embedding block zeroed. Model 5 trains on the concatenated embeddings
    and the auxiliary head on Model 5's embeddings.

    Args:
        difficult_train: samples inside the calibrated threshold interval.
        probabilities: the base's probability of each difficult_train row,
            in row order: the one that routed it. ``confusion_partition``
            turns it into the row's tag.
        difficult_val: validation samples inside the interval (may be empty).
        val_probabilities: the base's probability of each difficult_val row.
            Each pair model early-stops on its own confusion-pair validation
            subset, or on all of difficult_val when that subset has fewer
            than 2 rows.
        cfg: architecture + training regime.
        seed: master seed.
        models_1_to_4: Models 1-4 already trained from these arguments by
            the jobs of ``guided_pair_jobs`` (see ``pair_models``). When None,
            they are trained here, side by side (``run_all``).
    """
    _check_difficult(difficult_train, difficult_val, "guided_fit")
    if models_1_to_4 is None:
        jobs = guided_pair_jobs(difficult_train, probabilities, difficult_val,
                                val_probabilities, cfg, seed=seed)
        models_1_to_4 = pair_models(jobs, run_all(list(jobs.values())))

    def concat(data: FeatureMatrix) -> FeatureMatrix:
        width = cfg.encoder.out_width
        values = _in_blocks(partial(concat_embeddings, models_1_to_4, block_width=width),
                            data.values, np.empty((data.n_samples, len(models_1_to_4) * width)))
        return FeatureMatrix(values=values, labels=data.labels, ids=data.ids)

    return _fit_stage(
        models_1_to_4, concat(difficult_train), concat(difficult_val), cfg, seed,
        "guided_fit", "model 5",
    )


def classic_fit(
    difficult_train: FeatureMatrix,
    difficult_val: FeatureMatrix,
    cfg: RetrainConfig,
    seed: int,
) -> Stage:
    """Train the baseline: one Model on all difficult samples, then the head."""
    _check_difficult(difficult_train, difficult_val, "classic_fit")
    return _fit_stage(
        (), difficult_train, difficult_val, cfg, seed, "classic_fit", "classic model"
    )


@dataclass
class Pipeline:
    """Complete predictor: base + thresholds + a guided or classic retraining stage."""

    base: object
    thresholds: ThresholdPair
    stage: Stage
    n_raw_features: int
    feature_selection: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)


ROUTE_BASE = "base"
ROUTE_AUXILIARY = "auxiliary"


def pipeline_predict(pipeline: Pipeline, samples: FeatureMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Route every sample through exactly one of base/auxiliary.

    Inputs carry the raw feature width; the pipeline applies its stored
    feature selection itself. Returns (labels, route tags) aligned with the
    sample order.
    """
    if samples.n_features != pipeline.n_raw_features:
        raise ValueError(
            f"pipeline_predict: expected {pipeline.n_raw_features} features, "
            f"got {samples.n_features}"
        )
    X = samples.values
    if pipeline.feature_selection is not None:
        X = X[:, pipeline.feature_selection]
    probabilities = pipeline.base.predict_probabilities(X)
    base_pred = (probabilities >= 0.5).astype(np.int64)
    easy = pipeline.thresholds.easy(probabilities)
    labels = np.empty(samples.n_samples, dtype=np.int64)
    routes = np.full(samples.n_samples, ROUTE_BASE, dtype="<U9")
    labels[easy] = base_pred[easy]
    if (~easy).any():
        labels[~easy] = pipeline.stage.predict(X[~easy])
        routes[~easy] = ROUTE_AUXILIARY
    return labels, routes
