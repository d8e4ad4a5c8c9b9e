"""Retraining stages and end-to-end routing."""
import logging
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import NO_PROBABILITIES, empty_like, make_blobs, stray_arrays

from guidedboost.classifiers.linear import train_logistic
from guidedboost.classifiers.adapters import IdentityAdapter
from guidedboost.data import FeatureMatrix, ThresholdPair, confusion_partition
from guidedboost.nn.layers import BatchNorm
from guidedboost.nn.network import (
    MLP,
    EncoderProjectionModel,
    auxiliary_spec,
    encoder_spec,
    head_labels,
    projection_spec,
)
from guidedboost import parallel, pipeline
from guidedboost.nn.training import TrainConfig, train_auxiliary, train_model
from guidedboost.persistence import load
from guidedboost.pipeline import (
    MODEL_PAIRS,
    PREDICT_BLOCK_ROWS,
    Pipeline,
    RetrainConfig,
    Stage,
    _row_blocks,
    classic_fit,
    concat_embeddings,
    guided_fit,
    pipeline_predict,
)

CFG = RetrainConfig(
    encoder=encoder_spec((6, 4)),
    projection=projection_spec((4, 2)),
    train=TrainConfig(max_epochs=5, patience=3, learning_rate=0.01),
)


def _difficult_setup(seed=0, n=40):
    """Dataset plus base probabilities populating all four confusion cells."""
    rng = np.random.default_rng(seed)
    data = make_blobs(n_per_class=n // 2, n_features=3, gap=1.0, scale=1.5, seed=seed)
    # synthetic base probabilities correlated with the label but noisy, so
    # TP/FP/TN/FN all occur
    probs = np.clip(0.5 + 0.3 * (data.labels - 0.5) + rng.normal(0, 0.25, n), 0.01, 0.99)
    return data, probs


def test_model_pairs_fixed_order():
    assert MODEL_PAIRS == (("TP", "FP"), ("TN", "FN"), ("TP", "TN"), ("FP", "FN"))


def test_guided_fit_trains_all_pairs_when_cells_populated():
    data, probs = _difficult_setup()
    tags = confusion_partition(probs, data.labels)
    # fixture sanity: every pairing can train
    assert set(tags.tolist()) == {"TP", "FP", "TN", "FN"}
    stage = guided_fit(data, probs, empty_like(data), NO_PROBABILITIES, CFG, seed=1)
    assert all(m is not None for m in stage.models_1_to_4)
    assert stage.model.input_width == 4 * CFG.encoder.out_width
    assert stage.auxiliary.input_width == CFG.encoder.out_width


def test_guided_fit_skips_pairs_with_empty_cells(caplog):
    data = make_blobs(n_per_class=10, n_features=3, seed=2)
    # base predicts positive everywhere: only TP and FP cells are populated
    probs = np.full(data.n_samples, 0.8)
    with caplog.at_level(logging.WARNING, logger="guidedboost.pipeline"):
        stage = guided_fit(data, probs, empty_like(data), NO_PROBABILITIES, CFG, seed=0)
    assert stage.models_1_to_4[0] is not None  # TP+FP trains
    assert stage.models_1_to_4[1] is None  # TN+FN both empty
    assert stage.models_1_to_4[2] is None  # TN empty
    assert stage.models_1_to_4[3] is None  # FN empty
    assert sum("skipped" in r.message for r in caplog.records) == 3

    # skipped models contribute zero blocks at their fixed positions
    emb = concat_embeddings(stage.models_1_to_4, data.values, CFG.encoder.out_width)
    w = CFG.encoder.out_width
    assert np.all(emb[:, w:] == 0.0)
    assert np.any(emb[:, :w] != 0.0)
    assert np.array_equal(emb[:, :w], stage.models_1_to_4[0].embed(data.values))


def test_guided_fit_validation_errors():
    data, probs = _difficult_setup()
    with pytest.raises(ValueError):
        guided_fit(empty_like(data), probs, empty_like(data), NO_PROBABILITIES, CFG, seed=0)
    single = FeatureMatrix(values=data.values, labels=np.zeros(data.n_samples, dtype=np.int64), ids=data.ids)
    with pytest.raises(ValueError):
        guided_fit(single, np.full(data.n_samples, 0.8), empty_like(data), NO_PROBABILITIES,
                   CFG, seed=0)


@pytest.mark.parametrize("bad, message", [
    (lambda p: p[:-1], "39 probabilities for 40 labels"),
    (lambda p: np.where(np.arange(len(p)) == 3, np.nan, p), r"probabilities must lie in \[0, 1\]"),
], ids=["wrong-length", "nan"])
@pytest.mark.parametrize("key", ["probabilities", "val_probabilities"],
                         ids=["train", "validation"])
def test_guided_fit_refuses_probabilities_that_do_not_fit_the_rows(bad, message, key):
    """One probability in [0, 1] per row, which a NaN is not; the error names
    guided_fit."""
    data, probs = _difficult_setup()
    args = {"probabilities": probs, "val_probabilities": probs, key: bad(probs)}
    with pytest.raises(ValueError, match=f"^guided_fit: {message}$"):
        guided_fit(data, difficult_val=data, cfg=CFG, seed=0, **args)


@pytest.mark.parametrize("labels, problem", [
    ([], "difficult training set is empty"),
    ([1, 1, 1], "difficult training set contains a single class"),
    ([0, 1, 1], None),
], ids=["empty", "one-class", "trainable"])
def test_one_rule_decides_whether_the_second_stage_trains(labels, problem):
    train = FeatureMatrix.from_arrays(np.zeros((len(labels), 3)), labels)
    assert pipeline.difficult_set_problem(train) == problem
    if problem is None:
        return
    probs = np.full(len(labels), 0.6)
    with pytest.raises(ValueError, match=f"^guided_fit: {problem}$"):
        guided_fit(train, probs, empty_like(train), NO_PROBABILITIES, CFG, seed=0)
    with pytest.raises(ValueError, match=f"^classic_fit: {problem}$"):
        classic_fit(train, empty_like(train), CFG, seed=0)


def test_guided_fit_deterministic():
    data, probs = _difficult_setup(seed=3)
    s1 = guided_fit(data, probs, empty_like(data), NO_PROBABILITIES, CFG, seed=5)
    s2 = guided_fit(data, probs, empty_like(data), NO_PROBABILITIES, CFG, seed=5)
    e1 = s1.model.embed(concat_embeddings(s1.models_1_to_4, data.values, CFG.encoder.out_width))
    e2 = s2.model.embed(concat_embeddings(s2.models_1_to_4, data.values, CFG.encoder.out_width))
    assert np.array_equal(e1, e2)
    assert np.array_equal(s1.embed(data.values), e1)


def test_classic_fit_shapes_and_determinism():
    data, _ = _difficult_setup(seed=4)
    c1 = classic_fit(data, empty_like(data), CFG, seed=2)
    c2 = classic_fit(data, empty_like(data), CFG, seed=2)
    assert c1.models_1_to_4 == ()
    assert c1.model.embedding_width == CFG.encoder.out_width
    assert c1.auxiliary.input_width == CFG.encoder.out_width
    assert np.array_equal(c1.model.embed(data.values), c2.model.embed(data.values))
    assert np.array_equal(c1.embed(data.values), c1.model.embed(data.values))
    with pytest.raises(ValueError):
        classic_fit(empty_like(data), empty_like(data), CFG, seed=0)


def test_non_finite_training_names_the_model_and_epoch():
    data, probs = _difficult_setup()
    # finite features whose first-layer sums overflow to NaN
    huge = FeatureMatrix(
        values=data.values / np.abs(data.values).max() * 1e308, labels=data.labels, ids=data.ids
    )
    with np.errstate(all="ignore"):
        with pytest.raises(FloatingPointError, match=r"^guided_fit: model 1: .* at epoch 1$"):
            guided_fit(huge, probs, empty_like(data), NO_PROBABILITIES, CFG, seed=0)
        with pytest.raises(FloatingPointError, match=r"^classic_fit: classic model: .* epoch 1$"):
            classic_fit(huge, empty_like(data), CFG, seed=0)


def _fitted_guided_pipeline(seed=0):
    data, probs = _difficult_setup(seed=seed)
    stage = guided_fit(data, probs, empty_like(data), NO_PROBABILITIES, CFG, seed=seed)
    base = IdentityAdapter(train_logistic(data))
    return data, Pipeline(
        base=base,
        thresholds=ThresholdPair(0.35, 0.65),
        stage=stage,
        n_raw_features=data.n_features,
    )


def test_pipeline_predict_routes_by_threshold(monkeypatch):
    data, pipe = _fitted_guided_pipeline(seed=6)
    probabilities = pipe.base.predict_probabilities(data.values)
    calls = []
    # routes and labels come from one scoring pass of the base, by either name
    for name in ("predict_probabilities", "routing_probabilities"):
        monkeypatch.setattr(pipe.base, name, lambda X: calls.append(len(X)) or probabilities)
    labels, routes = pipeline_predict(pipe, data)
    assert calls == [data.n_samples]
    easy = (probabilities <= 0.35) | (probabilities >= 0.65)
    assert np.array_equal(routes == "base", easy)

    base_pred = (probabilities >= 0.5).astype(np.int64)
    assert np.array_equal(labels[easy], base_pred[easy])
    aux_pred = head_labels(pipe.stage.auxiliary, pipe.stage.embed(data.values[~easy]))
    assert np.array_equal(labels[~easy], aux_pred)


def test_pipeline_predict_applies_feature_selection():
    data, pipe = _fitted_guided_pipeline(seed=7)
    # widen the raw data with junk columns; the pipeline must slice them away
    junk = np.random.default_rng(0).normal(size=(data.n_samples, 2))
    wide = FeatureMatrix(
        values=np.hstack([junk[:, :1], data.values, junk[:, 1:]]),
        labels=data.labels,
        ids=data.ids,
    )
    pipe.n_raw_features = wide.n_features
    pipe.feature_selection = np.array([1, 2, 3])
    labels_wide, routes_wide = pipeline_predict(pipe, wide)

    pipe.n_raw_features = data.n_features
    pipe.feature_selection = None
    labels_raw, routes_raw = pipeline_predict(pipe, data)
    assert np.array_equal(labels_wide, labels_raw)
    assert np.array_equal(routes_wide, routes_raw)


def test_pipeline_predict_width_check():
    data, pipe = _fitted_guided_pipeline(seed=8)
    bad = FeatureMatrix.from_arrays(np.zeros((2, data.n_features + 1)), np.array([0, 1]))
    with pytest.raises(ValueError):
        pipeline_predict(pipe, bad)


def test_guided_pipeline_structural_validation():
    data, pipe = _fitted_guided_pipeline(seed=9)
    stage = pipe.stage
    with pytest.raises(ValueError, match="four pair models"):
        Stage(models_1_to_4=stage.models_1_to_4[:3], model=stage.model, auxiliary=stage.auxiliary)
    # a pair model in front of the raw-width model: model 5 width check
    with pytest.raises(ValueError, match="not 4 x block width"):
        Stage(
            models_1_to_4=stage.models_1_to_4, model=stage.models_1_to_4[0],
            auxiliary=stage.auxiliary,
        )
    # a head that does not take the model's embedding width
    head = MLP(stage.model.embedding_width + 1, auxiliary_spec(), seed=0)
    with pytest.raises(ValueError, match="auxiliary width"):
        Stage(models_1_to_4=(), model=stage.model, auxiliary=head)


def test_classic_pipeline_predicts():
    data, _ = _difficult_setup(seed=10)
    stage = classic_fit(data, empty_like(data), CFG, seed=1)
    base = IdentityAdapter(train_logistic(data))
    pipe = Pipeline(
        base=base,
        thresholds=ThresholdPair(0.4, 0.6),
        stage=stage,
        n_raw_features=data.n_features,
    )
    labels, routes = pipeline_predict(pipe, data)
    assert labels.shape == (data.n_samples,)
    assert set(routes.tolist()) <= {"base", "auxiliary"}
    diff = routes == "auxiliary"
    if diff.any():
        want = head_labels(pipe.stage.auxiliary, pipe.stage.model.embed(data.values[diff]))
        assert np.array_equal(labels[diff], want)


# ------------------------------------------------ block-wise prediction

def _perturb_batch_norms(mlp, rng):
    """Give every BatchNorm non-trivial affine and running statistics."""
    for layer in mlp.layers:
        if isinstance(layer, BatchNorm):
            w = len(layer.gamma)
            layer.gamma[:] = rng.uniform(0.5, 1.5, w)
            layer.beta[:] = rng.normal(0.0, 0.3, w)
            layer.running_mean[:] = rng.normal(0.0, 0.5, w)
            layer.running_var[:] = rng.uniform(0.5, 2.0, w)


def _untrained_stage(guided, n_features=12, seed=0):
    """A stage at the default widths, without training: prediction only
    needs the layers' arrays. The guided stage skips pair model 2."""
    enc, proj = encoder_spec(), projection_spec()
    rng = np.random.default_rng(seed)

    def model(width, tag):
        m = EncoderProjectionModel(width, enc, proj, seed=[seed, tag])
        _perturb_batch_norms(m, rng)
        return m

    pairs = (model(n_features, 1), None, model(n_features, 3), model(n_features, 4))
    if not guided:
        pairs = ()
    embedder = model(4 * enc.out_width if guided else n_features, 5)
    head = MLP(enc.out_width, auxiliary_spec(), seed=[seed, 6])
    _perturb_batch_norms(head, rng)
    return Stage(models_1_to_4=pairs, model=embedder, auxiliary=head)


def test_row_blocks_cover_the_rows_without_a_one_row_block():
    B = PREDICT_BLOCK_ROWS
    assert B >= 2
    spans = {n: [(b.start, b.stop) for b in _row_blocks(n)]
             for n in (0, 1, 2, B, B + 1, B + 2, 2 * B + 1)}
    assert spans == {
        0: [],
        1: [(0, 1)],
        2: [(0, 2)],
        B: [(0, B)],
        B + 1: [(0, B + 1)],
        B + 2: [(0, B), (B, B + 2)],
        2 * B + 1: [(0, B), (B, 2 * B + 1)],
    }


@pytest.mark.parametrize("guided", [True, False], ids=["guided", "classic"])
@pytest.mark.parametrize("n", sorted({
    2,
    # each edge of a block: B - 1, B, B + 1 (its 1-row tail joins the block),
    # B + 2 and 3B + 1, for B = PREDICT_BLOCK_ROWS
    PREDICT_BLOCK_ROWS - 1,
    PREDICT_BLOCK_ROWS,
    PREDICT_BLOCK_ROWS + 1,
    PREDICT_BLOCK_ROWS + 2,
    3 * PREDICT_BLOCK_ROWS + 1,
    # many blocks, with tails of B - 1, B, 1, 2 and 1 rows at B = 256
    1023, 1024, 1025, 1026, 3073,
}))
def test_stage_predict_matches_whole_batch_bit_for_bit(guided, n):
    stage = _untrained_stage(guided)
    X = np.random.default_rng(n).normal(size=(n, 12))
    whole = stage.embed(X)
    want = head_labels(stage.auxiliary, whole)
    assert np.array_equal(stage.predict(X), want)
    # the labels rest on the embeddings: each block carries the batch's bits
    for rows in _row_blocks(n):
        assert rows.stop - rows.start >= 2
        assert np.array_equal(stage.embed(X[rows]), whole[rows])
    if n > PREDICT_BLOCK_ROWS:
        assert set(want.tolist()) == {0, 1}  # fixture sanity: labels can differ


@pytest.mark.parametrize("guided", [True, False], ids=["guided", "classic"])
def test_block_size_does_not_change_a_bit(guided, monkeypatch):
    """Stage.predict, the concatenated pair embeddings and the training
    embeddings (``_embed``) carry the same bits at any block size."""
    stage = _untrained_stage(guided)
    X = np.random.default_rng(7).normal(size=(1031, 12))

    def outputs(rows):
        monkeypatch.setattr(pipeline, "PREDICT_BLOCK_ROWS", rows)
        assert len(_row_blocks(X.shape[0])) > 1
        inputs = (
            concat_embeddings(stage.models_1_to_4, X, stage.model.input_width // 4)
            if guided else X
        )
        return stage.predict(X), inputs, pipeline._embed(stage.model, inputs)

    want = outputs(1024)
    for rows in (2, 256):
        got = outputs(rows)
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), rows


def test_guided_concatenation_zeroes_only_the_skipped_block():
    stage = _untrained_stage(guided=True)
    X = np.random.default_rng(1).normal(size=(5, 12))
    w = stage.model.input_width // 4
    emb = concat_embeddings(stage.models_1_to_4, X, w)
    assert np.all(emb[:, w : 2 * w] == 0.0)
    for k in (0, 2, 3):
        assert np.array_equal(emb[:, k * w : (k + 1) * w], stage.models_1_to_4[k].embed(X))


def test_stage_predict_memory_does_not_grow_with_rows():
    stage = _untrained_stage(guided=True)

    def peak(n):
        X = np.random.default_rng(0).normal(size=(n, 12))
        tracemalloc.start()
        try:
            stage.predict(X)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40_000) <= 2 * peak(4_000)


@pytest.mark.parametrize("guided", [True, False], ids=["guided", "classic"])
def test_stage_predict_gives_a_lone_row_its_batch_bits(guided, monkeypatch):
    stage = _untrained_stage(guided)
    X = np.random.default_rng(2).normal(size=(50, 12))
    whole = stage.embed(X)
    seen = []
    head_forward = stage.auxiliary.forward
    monkeypatch.setattr(stage.auxiliary, "forward",
                        lambda E, train=False: seen.append(E) or head_forward(E, train))
    for i in (0, 17, 49):
        label = stage.predict(X[i : i + 1])
        assert label.shape == (1,)
        assert np.array_equal(seen[-1][0], whole[i])
        assert label[0] == head_labels(stage.auxiliary, whole)[i]


def test_pipeline_predict_one_row():
    data, pipe = _fitted_guided_pipeline(seed=6)
    labels, routes = pipeline_predict(pipe, data)
    for route in ("base", "auxiliary"):
        i = np.flatnonzero(routes == route)[0]
        one_label, one_route = pipeline_predict(pipe, data.subset(np.array([i])))
        assert one_route.tolist() == [route]
        assert one_label.tolist() == [labels[i]]


def test_all_easy_batch_does_not_call_the_stage(monkeypatch):
    data, pipe = _fitted_guided_pipeline(seed=6)
    pipe.thresholds = ThresholdPair(0.5, 0.5)  # every probability is easy

    def refuse(X):
        raise AssertionError("the stage was called for an all-easy batch")

    monkeypatch.setattr(pipe.stage, "predict", refuse)
    labels, routes = pipeline_predict(pipe, data)
    assert set(routes.tolist()) == {"base"}
    base_pred = (pipe.base.predict_probabilities(data.values) >= 0.5).astype(np.int64)
    assert np.array_equal(labels, base_pred)


# ------------------------------------------------ blocks on threads

@pytest.fixture
def blocks(monkeypatch):
    """A function that sets the rows per block and the usable CPU count."""
    def set_blocks(rows, cpus):
        monkeypatch.setattr(pipeline, "PREDICT_BLOCK_ROWS", rows)
        monkeypatch.setattr(parallel, "_usable_cpus", lambda: cpus)
    return set_blocks


@pytest.fixture
def pools(monkeypatch):
    """The worker counts of the thread pools made while a test runs."""
    made = []

    class RecordedPool(parallel.ThreadPoolExecutor):
        def __init__(self, max_workers):
            made.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", RecordedPool)
    return made


@pytest.mark.parametrize("guided", [True, False], ids=["guided", "classic"])
@pytest.mark.parametrize("n", [65, 322, 448])
def test_blocks_give_the_same_bits_on_any_cpu_count(blocks, guided, n):
    # with 64-row blocks: 65 rows are one block with its 1-row tail, 322 are
    # five blocks and a 2-row tail, and 448 are seven full blocks, which 2
    # and 4 threads split unevenly
    stage = _untrained_stage(guided)
    X = np.random.default_rng(n).normal(size=(n, 12))

    def outputs():
        inputs = (
            concat_embeddings(stage.models_1_to_4, X, stage.model.input_width // 4)
            if guided else X
        )
        return stage.predict(X), inputs, pipeline._embed(stage.model, inputs)

    got = []
    # a short switch interval interleaves the threads often: a buffer that
    # two threads shared would change the bits
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 4):
            blocks(64, cpus)
            got.append(outputs())
    finally:
        sys.setswitchinterval(interval)
    for other in got[1:]:
        assert all(np.array_equal(a, b) for a, b in zip(other, got[0]))
    assert np.array_equal(got[0][0], head_labels(stage.auxiliary, stage.embed(X)))


@pytest.mark.parametrize("guided", [True, False], ids=["guided", "classic"])
@pytest.mark.parametrize("n, cpus, made", [
    (64, 2, []), (65, 2, []), (130, 2, [1]), (130, 1, []), (448, 4, [3]),
])
def test_stage_predict_pools_threads_only_for_more_than_one_block(
        blocks, pools, guided, n, cpus, made):
    # the concatenation inside a threaded block sees one block: no pool of its own
    blocks(64, cpus)
    stage = _untrained_stage(guided)
    before = threading.active_count()
    stage.predict(np.random.default_rng(n).normal(size=(n, 12)))
    assert pools == made
    # every pool thread is joined, so a fork right after copies no live worker
    assert threading.active_count() == before
    assert parallel.run_all([lambda: 1, lambda: 2]) == [1, 2]


def test_no_rows_start_no_pool(blocks, pools):
    blocks(64, 4)
    stage = _untrained_stage(guided=True)
    X = np.empty((0, 12))
    assert stage.predict(X).shape == (0,)
    emb = concat_embeddings(stage.models_1_to_4, X, stage.model.input_width // 4)
    assert emb.shape == (0, stage.model.input_width)
    assert pipeline._embed(stage.model, emb).shape == (0, stage.model.embedding_width)
    assert pools == []


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_a_failing_block_raises_from_the_caller_and_leaves_no_thread(blocks, cpus):
    blocks(64, cpus)
    stage = _untrained_stage(guided=True)
    before = threading.active_count()
    with pytest.raises(ValueError, match="^Linear: input width 11 does not match"):
        stage.predict(np.zeros((448, 11)))
    assert threading.active_count() == before


@pytest.mark.parametrize("cpus", [1, 2, 4])
def test_the_serial_loops_first_failure_is_raised(blocks, cpus):
    blocks(64, cpus)
    X = np.arange(448.0)[:, None]

    def fn(block):
        # blocks 1, 2 and 3 fail; 2 and 3 fail on other threads than 1
        start = int(block[0, 0])
        if start in (64, 128, 192):
            raise ValueError(f"block at row {start}")
        return block

    with pytest.raises(ValueError, match="^block at row 64$"):
        pipeline._in_blocks(fn, X, np.empty_like(X))


# ------------------------------------------------ block-wise training embeddings

def _rows(n, seed):
    """n rows of 12 features, both classes present from n = 2."""
    X = np.random.default_rng(seed).normal(size=(n, 12))
    return FeatureMatrix.from_arrays(X, np.arange(n) % 2)


def _fake_training(monkeypatch, stage, on_call=lambda tag, outputs: None):
    """Make the trainers hand back the stage's networks, recording what the
    fits feed them. on_call(tag, arrays) runs at each trainer call."""
    seen = {}
    pairs = dict(enumerate(stage.models_1_to_4, start=1))

    def train_model(data, val, cfg, enc, proj, seed):
        tag = seed[1]
        seen[tag] = (data.values, val.values)
        on_call(tag, seen[tag])
        return stage.model if tag == 5 else pairs[tag]

    def train_auxiliary(emb, labels, val_emb, val_labels, cfg, seed):
        seen["auxiliary"] = (emb, val_emb)
        on_call("auxiliary", seen["auxiliary"])
        return stage.auxiliary

    monkeypatch.setattr(pipeline, "train_model", train_model)
    monkeypatch.setattr(pipeline, "train_auxiliary", train_auxiliary)
    return seen


def _fit(guided, train, val):
    if guided:
        probs, val_probs = (np.random.default_rng(seed).uniform(0.01, 0.99, part.n_samples)
                            for seed, part in ((2, train), (3, val)))
        return guided_fit(train, probs, val, val_probs, RetrainConfig(), seed=0)
    return classic_fit(train, val, RetrainConfig(), seed=0)


@pytest.mark.parametrize("guided", [True, False], ids=["guided", "classic"])
@pytest.mark.parametrize(
    "n, n_val", [(2, 2), (1023, 1023), (1024, 1024), (1025, 1025), (3073, 3073), (40, 1)]
)
def test_training_embeddings_match_whole_batch_bit_for_bit(guided, n, n_val, monkeypatch):
    stage = _untrained_stage(guided)
    train, val = _rows(n, 0), _rows(n_val, 1)
    seen = _fake_training(monkeypatch, stage)
    fitted = _fit(guided, train, val)
    inputs = (train.values, val.values)
    if guided:
        w = stage.model.input_width // 4

        def whole(X):  # the concatenation as one whole-batch pass per model
            out = np.zeros((X.shape[0], 4 * w))
            for k, m in enumerate(fitted.models_1_to_4):
                if m is not None:
                    out[:, k * w : (k + 1) * w] = m.embed(X)
            return out

        inputs = tuple(whole(X) for X in inputs)
        assert all(np.array_equal(a, b) for a, b in zip(seen[5], inputs))
    # a lone validation row is embedded alone, as before: no doubling
    assert all(
        np.array_equal(emb, stage.model.embed(X)) for emb, X in zip(seen["auxiliary"], inputs)
    )


def test_training_memory_does_not_grow_with_rows(monkeypatch):
    """Peak traced memory of the guided concatenation, and of the head's
    training embeddings, beyond the arrays they return."""
    # serial: the fake trainers keep their state in this process
    monkeypatch.setattr(parallel, "_usable_cpus", lambda: 1)
    stage = _untrained_stage(guided=True)
    excess = {}

    def on_call(tag, outputs):
        # each window opens at one trainer call and closes at the next
        if tag in (5, "auxiliary"):
            peak = tracemalloc.get_traced_memory()[1]
            excess[tag] = peak - excess["start"] - sum(a.nbytes for a in outputs)
        tracemalloc.reset_peak()
        excess["start"] = tracemalloc.get_traced_memory()[0]

    _fake_training(monkeypatch, stage, on_call)

    def measure(n):
        train, val = _rows(n, 0), _rows(0, 1)
        tracemalloc.start()
        try:
            _fit(True, train, val)
        finally:
            tracemalloc.stop()
        return excess[5], excess["auxiliary"]

    small, large = measure(4_000), measure(40_000)
    assert large[0] <= 2 * small[0]  # concatenation
    assert large[1] <= 2 * small[1]  # head's training embeddings


# ------------------------------------------------ what a network keeps

def _layers(*networks):
    """Every layer of the given networks; None entries are skipped pairs."""
    return [layer for net in networks if net is not None for layer in net.layers]


def _stage_layers(stage):
    return _layers(*stage.models_1_to_4, stage.model, stage.auxiliary)


def _trained_model():
    data, _ = _difficult_setup(seed=2)
    return _layers(train_model(data, empty_like(data), CFG.train, CFG.encoder, CFG.projection,
                               seed=1))


def _trained_head():
    data, _ = _difficult_setup(seed=3)
    return _layers(train_auxiliary(data.values, data.labels, data.values[:0], data.labels[:0],
                                   CFG.train, seed=2))


def _guided_stage():
    data, probs = _difficult_setup(seed=4)
    return _stage_layers(guided_fit(data, probs, empty_like(data), NO_PROBABILITIES, CFG, seed=1))


def _classic_stage():
    data, _ = _difficult_setup(seed=5)
    return _stage_layers(classic_fit(data, empty_like(data), CFG, seed=1))


def _loaded_stages():
    archives = Path(__file__).parent / "data"
    return [layer for kind in ("guided", "classic", "forest", "knn")
            for layer in _stage_layers(load(archives / f"archive_{kind}_v1.zip").stage)]


@pytest.mark.parametrize(
    "layers", [_trained_model, _trained_head, _guided_stage, _classic_stage, _loaded_stages],
    ids=["train_model", "train_auxiliary", "guided_fit", "classic_fit", "load"],
)
def test_fitted_and_loaded_networks_hold_only_their_state_arrays(layers):
    found = layers()
    assert {"Linear", "BatchNorm", "ReLU"} <= {type(layer).__name__ for layer in found}
    assert stray_arrays(found) == []


def test_a_fitted_stage_retains_nothing_that_grows_with_rows():
    """Traced bytes a classic_fit stage keeps beyond its state arrays, at 400
    and at 4,000 difficult training rows."""

    def retained(n):
        train, val = _rows(n, 0), _rows(n // 10, 1)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stage = classic_fit(train, val, CFG, seed=0)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        state = stage.model.state_arrays() + stage.auxiliary.state_arrays()
        return held - sum(a.nbytes for a in state)

    retained(40)  # first calls allocate module-level caches once
    small, large = retained(400), retained(4_000)
    # one last batch of caches at 4,000 rows is about 0.5 MB here
    assert large <= small + 16_384
