"""End-to-end orchestration of the two-stage classifier.

The fitted pipeline routes each sample by its base probability: outside the
calibrated thresholds the base's own prediction stands; inside, the sample is
embedded (through the four confusion-pair Models and the concatenation Model
for the guided variant, or the single Model for the classic baseline) and the
auxiliary head decides.
"""
from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .data import (
    ConfusionPartition,
    FeatureMatrix,
    PredictionReport,
    ThresholdPair,
    confusion_partition,
)
from .nn.network import (
    AuxiliaryClassifier,
    EncoderProjectionModel,
    MlpSpec,
    encoder_spec,
    projection_spec,
)
from .nn.training import TrainConfig, train_auxiliary, train_model
from .persistence import load, save  # noqa: F401  (re-exported as part of this module's API)

log = logging.getLogger(__name__)

# confusion-cell pairings, in fixed concatenation order
MODEL_PAIRS = (("TP", "FP"), ("TN", "FN"), ("TP", "TN"), ("FP", "FN"))
# seed tags: models 1-4 use 1-4; the embedding provider (model 5 or the
# classic single model) uses 5 and the auxiliary 6, so guided and classic
# heads start from identical weights
_EMBEDDER_TAG = 5
_AUX_TAG = 6


@dataclass
class RetrainConfig:
    """Architecture and regime for the retraining stage."""

    encoder: MlpSpec = field(default_factory=encoder_spec)
    projection: MlpSpec = field(default_factory=projection_spec)
    train: TrainConfig = field(default_factory=TrainConfig)


@dataclass
class GuidedStage:
    """Trained components of the guided retraining stage."""

    models_1_to_4: tuple[EncoderProjectionModel | None, ...]
    model_5: EncoderProjectionModel
    auxiliary: AuxiliaryClassifier

    def __post_init__(self):
        if len(self.models_1_to_4) != 4:
            raise ValueError("GuidedStage: expected exactly four pair models")


def _pair_ids(partition: ConfusionPartition, pair: tuple[str, str]) -> frozenset:
    cells = {
        "TP": partition.tp_ids,
        "FP": partition.fp_ids,
        "TN": partition.tn_ids,
        "FN": partition.fn_ids,
    }
    return cells[pair[0]] | cells[pair[1]]


def concat_embeddings(
    models: tuple[EncoderProjectionModel | None, ...], X: np.ndarray, block_width: int
) -> np.ndarray:
    """Fixed-order concatenation of the four embedding blocks.

    A skipped model contributes a zero block of the configured width so the
    concatenated layout never changes.
    """
    n = X.shape[0]
    blocks = []
    for m in models:
        blocks.append(np.zeros((n, block_width)) if m is None else m.embed(X))
    return np.concatenate(blocks, axis=1)


@contextmanager
def _training(network: str):
    """Name the failing network in a non-finite training error."""
    try:
        yield
    except FloatingPointError as exc:
        raise FloatingPointError(f"{network}: {exc}") from exc


def _check_report_alignment(report: PredictionReport, data: FeatureMatrix, what: str):
    if not np.array_equal(report.ids, data.ids):
        raise ValueError(f"{what}: report ids do not align with the dataset's ids")


def guided_fit(
    difficult_train: FeatureMatrix,
    base_report: PredictionReport,
    difficult_val: FeatureMatrix,
    cfg: RetrainConfig,
    val_report: PredictionReport | None = None,
    seed: int | None = None,
) -> GuidedStage:
    """Train the guided stage on the difficult training subset.

    Models 1-4 are trained on the confusion-cell pairings TP'+FP', TN'+FN',
    TP'+TN' and FP'+FN' of the base's predictions, using true labels as
    contrastive classes; a pairing with an empty cell is skipped and its
    embedding block zeroed. Model 5 trains on the concatenated embeddings and
    the auxiliary head on Model 5's embeddings.

    Args:
        difficult_train: samples inside the calibrated threshold interval.
        base_report: base predictions on difficult_train (ids aligned).
        difficult_val: validation samples inside the interval (may be empty).
        cfg: architecture + training regime.
        val_report: base predictions on difficult_val; when given, each pair
            model early-stops on its own confusion-pair validation subset.
        seed: master seed; defaults to cfg.train.seed.
    """
    if difficult_train.n_samples == 0:
        raise ValueError("guided_fit: difficult training set is empty")
    if len(np.unique(difficult_train.labels)) < 2:
        raise ValueError("guided_fit: difficult training set contains a single class")
    _check_report_alignment(base_report, difficult_train, "guided_fit")
    if val_report is not None:
        _check_report_alignment(val_report, difficult_val, "guided_fit (validation)")
    seed = cfg.train.seed if seed is None else seed

    partition = confusion_partition(base_report, difficult_train.labels)
    val_partition = (
        confusion_partition(val_report, difficult_val.labels) if val_report is not None else None
    )
    empty_val = FeatureMatrix(
        values=np.empty((0, difficult_train.n_features)),
        labels=np.empty(0, dtype=np.int64),
        ids=np.empty(0, dtype=np.int64),
    )
    if difficult_val.n_samples and difficult_val.n_features != difficult_train.n_features:
        raise ValueError("guided_fit: validation feature width differs from training")

    models: list[EncoderProjectionModel | None] = []
    for k, pair in enumerate(MODEL_PAIRS, start=1):
        ids = _pair_ids(partition, pair)
        train_k = difficult_train.subset_by_ids(ids)
        if len(np.unique(train_k.labels)) < 2:
            log.warning(
                "guided_fit: model %d (%s+%s) skipped, confusion cell empty; "
                "its embedding block will be zeros",
                k,
                pair[0],
                pair[1],
            )
            models.append(None)
            continue
        val_k = empty_val
        if val_partition is not None:
            candidate = difficult_val.subset_by_ids(_pair_ids(val_partition, pair))
            val_k = candidate if candidate.n_samples >= 2 else difficult_val
        elif difficult_val.n_samples:
            val_k = difficult_val
        with _training(f"guided_fit: model {k}"):
            models.append(
                train_model(
                    train_k, val_k, cfg.train, cfg.encoder, cfg.projection, seed=[seed, k]
                )
            )
    models_t = tuple(models)

    width = cfg.encoder.out_width
    concat_train = concat_embeddings(models_t, difficult_train.values, width)
    train_5 = FeatureMatrix(
        values=concat_train, labels=difficult_train.labels, ids=difficult_train.ids
    )
    if difficult_val.n_samples:
        val_5 = FeatureMatrix(
            values=concat_embeddings(models_t, difficult_val.values, width),
            labels=difficult_val.labels,
            ids=difficult_val.ids,
        )
    else:
        val_5 = FeatureMatrix(
            values=np.empty((0, concat_train.shape[1])),
            labels=np.empty(0, dtype=np.int64),
            ids=np.empty(0, dtype=np.int64),
        )
    with _training("guided_fit: model 5"):
        model_5 = train_model(
            train_5, val_5, cfg.train, cfg.encoder, cfg.projection, seed=[seed, _EMBEDDER_TAG]
        )

    emb_train = model_5.embed(train_5.values)
    emb_val = model_5.embed(val_5.values) if val_5.n_samples else np.empty((0, model_5.embedding_width))
    with _training("guided_fit: auxiliary head"):
        auxiliary = train_auxiliary(
            emb_train,
            difficult_train.labels,
            emb_val,
            val_5.labels,
            cfg.train,
            seed=[seed, _AUX_TAG],
        )
    return GuidedStage(models_1_to_4=models_t, model_5=model_5, auxiliary=auxiliary)


@dataclass
class ClassicStage:
    """Trained components of the unguided baseline stage."""

    model: EncoderProjectionModel
    auxiliary: AuxiliaryClassifier


def classic_fit(
    difficult_train: FeatureMatrix,
    difficult_val: FeatureMatrix,
    cfg: RetrainConfig,
    seed: int | None = None,
) -> ClassicStage:
    """Train the baseline: one Model on all difficult samples, then the head."""
    if difficult_train.n_samples == 0:
        raise ValueError("classic_fit: difficult training set is empty")
    if len(np.unique(difficult_train.labels)) < 2:
        raise ValueError("classic_fit: difficult training set contains a single class")
    seed = cfg.train.seed if seed is None else seed
    with _training("classic_fit: classic model"):
        model = train_model(
            difficult_train, difficult_val, cfg.train, cfg.encoder, cfg.projection,
            seed=[seed, _EMBEDDER_TAG],
        )
    emb_train = model.embed(difficult_train.values)
    if difficult_val.n_samples:
        emb_val = model.embed(difficult_val.values)
        val_labels = difficult_val.labels
    else:
        emb_val = np.empty((0, model.embedding_width))
        val_labels = np.empty(0, dtype=np.int64)
    with _training("classic_fit: auxiliary head"):
        auxiliary = train_auxiliary(
            emb_train, difficult_train.labels, emb_val, val_labels, cfg.train,
            seed=[seed, _AUX_TAG],
        )
    return ClassicStage(model=model, auxiliary=auxiliary)


@dataclass
class GuidedPipeline:
    """Complete guided predictor: base + thresholds + Models 1-5 + auxiliary."""

    base: object
    thresholds: ThresholdPair
    models_1_to_4: tuple[EncoderProjectionModel | None, ...]
    model_5: EncoderProjectionModel
    auxiliary: AuxiliaryClassifier
    n_raw_features: int
    feature_selection: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if len(self.models_1_to_4) != 4:
            raise ValueError("GuidedPipeline: expected four pair models")
        widths = {m.embedding_width for m in self.models_1_to_4 if m is not None}
        if len(widths) > 1:
            raise ValueError("GuidedPipeline: pair models disagree on embedding width")
        block = widths.pop() if widths else self.model_5.input_width // 4
        if self.model_5.input_width != 4 * block:
            raise ValueError(
                f"GuidedPipeline: model 5 input width {self.model_5.input_width} "
                f"is not 4 x block width {block}"
            )
        if self.auxiliary.input_width != self.model_5.embedding_width:
            raise ValueError("GuidedPipeline: auxiliary width does not match model 5 output")

    def difficult_embeddings(self, X: np.ndarray) -> np.ndarray:
        block = self.model_5.input_width // 4
        return self.model_5.embed(concat_embeddings(self.models_1_to_4, X, block))


@dataclass
class ClassicPipeline:
    """Complete baseline predictor: base + thresholds + one Model + auxiliary."""

    base: object
    thresholds: ThresholdPair
    model: EncoderProjectionModel
    auxiliary: AuxiliaryClassifier
    n_raw_features: int
    feature_selection: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.auxiliary.input_width != self.model.embedding_width:
            raise ValueError("ClassicPipeline: auxiliary width does not match model output")

    def difficult_embeddings(self, X: np.ndarray) -> np.ndarray:
        return self.model.embed(X)


ROUTE_BASE = "base"
ROUTE_AUXILIARY = "auxiliary"


def pipeline_predict(
    pipeline: GuidedPipeline | ClassicPipeline, samples: FeatureMatrix
) -> tuple[np.ndarray, np.ndarray]:
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
    routing = pipeline.base.routing_probabilities(X)
    base_pred = (pipeline.base.predict_probabilities(X) >= 0.5).astype(np.int64)
    th = pipeline.thresholds
    # same boundary rule as split_dataset: 0.5 belongs to the positive side
    easy = ((routing <= th.th_n) & (routing < 0.5)) | (routing >= th.th_p)
    labels = np.empty(samples.n_samples, dtype=np.int64)
    routes = np.full(samples.n_samples, ROUTE_BASE, dtype="<U9")
    labels[easy] = base_pred[easy]
    if (~easy).any():
        emb = pipeline.difficult_embeddings(X[~easy])
        labels[~easy] = pipeline.auxiliary.predict(emb)
        routes[~easy] = ROUTE_AUXILIARY
    return labels, routes
