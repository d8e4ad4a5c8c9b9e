"""Pipeline container round-trips and corruption diagnostics."""
import copy
import io
import json
import re
import signal
import struct
import time
import tracemalloc
import zipfile
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from conftest import NO_PROBABILITIES, empty_like, json_at, json_edited, json_paths, make_blobs
from hypothesis import given, settings
from hypothesis import strategies as st

from guidedboost.classifiers.adapters import (
    IdentityAdapter,
    KnnAdapter,
    SvmAdapter,
)
from guidedboost.classifiers.forest import ForestConfig, ForestModel, train_random_forest
from guidedboost.classifiers.knn import NearestNeighborModel
from guidedboost.classifiers.linear import train_linear_svm, train_logistic
from guidedboost.data import FeatureMatrix, ThresholdPair
from guidedboost.nn.network import encoder_spec, projection_spec
from guidedboost.nn.training import TrainConfig
from guidedboost.persistence import FORMAT_TAG, load, save
from guidedboost.pipeline import (
    ROUTE_AUXILIARY,
    ROUTE_BASE,
    Pipeline,
    RetrainConfig,
    classic_fit,
    guided_fit,
    pipeline_predict,
)

CFG = RetrainConfig(
    encoder=encoder_spec((6, 4)),
    projection=projection_spec((4, 2)),
    train=TrainConfig(max_epochs=4, patience=2, learning_rate=0.01),
)


def _data_and_probabilities(seed=0):
    rng = np.random.default_rng(seed)
    data = make_blobs(n_per_class=20, n_features=3, gap=1.0, scale=1.5, seed=seed)
    probs = np.clip(0.5 + 0.3 * (data.labels - 0.5) + rng.normal(0, 0.25, 40), 0.01, 0.99)
    return data, probs


def _adapter(kind, data):
    if kind == "logistic":
        return IdentityAdapter(train_logistic(data))
    if kind == "svm":
        return SvmAdapter.fit(train_linear_svm(data), data)
    if kind == "forest":
        return IdentityAdapter(train_random_forest(data, ForestConfig(n_trees=5, seed=1)))
    return KnnAdapter.fit(NearestNeighborModel.fit(data), data, ForestConfig(n_trees=5, seed=2))


def _guided_pipeline(kind, data, probs, feature_selection=None, n_raw=None):
    stage = guided_fit(data, probs, empty_like(data), NO_PROBABILITIES, CFG, seed=3)
    return Pipeline(
        base=_adapter(kind, data),
        thresholds=ThresholdPair(0.35, 0.65) if kind != "knn" else ThresholdPair(0.0, 1.0),
        stage=stage,
        n_raw_features=n_raw if n_raw is not None else data.n_features,
        feature_selection=feature_selection,
        metadata={"note": "round-trip probe", "seed": 3},
    )


@pytest.mark.parametrize("kind", ["logistic", "svm", "forest", "knn"])
def test_guided_round_trip_per_base(kind, tmp_path):
    data, probs = _data_and_probabilities()
    pipe = _guided_pipeline(kind, data, probs)
    path = tmp_path / f"{kind}.zip"
    save(pipe, path)
    back = load(path)
    l1, r1 = pipeline_predict(pipe, data)
    l2, r2 = pipeline_predict(back, data)
    assert np.array_equal(l1, l2)
    assert np.array_equal(r1, r2)
    assert np.array_equal(
        back.base.predict_probabilities(data.values), pipe.base.predict_probabilities(data.values)
    )
    assert back.metadata == pipe.metadata
    assert back.thresholds == pipe.thresholds


def test_round_trip_preserves_feature_selection(tmp_path):
    data, probs = _data_and_probabilities(seed=1)
    wide = FeatureMatrix(
        values=np.hstack([np.zeros((data.n_samples, 1)), data.values]),
        labels=data.labels,
        ids=data.ids,
    )
    pipe = _guided_pipeline(
        "logistic", data, probs,
        feature_selection=np.array([1, 2, 3]), n_raw=wide.n_features,
    )
    path = tmp_path / "fs.zip"
    save(pipe, path)
    back = load(path)
    assert np.array_equal(back.feature_selection, [1, 2, 3])
    l1, _ = pipeline_predict(pipe, wide)
    l2, _ = pipeline_predict(back, wide)
    assert np.array_equal(l1, l2)


def test_round_trip_with_skipped_models(tmp_path):
    data = make_blobs(n_per_class=12, n_features=3, seed=5)
    probs = np.full(data.n_samples, 0.8)
    stage = guided_fit(data, probs, empty_like(data), NO_PROBABILITIES, CFG, seed=0)
    assert any(m is None for m in stage.models_1_to_4)
    pipe = Pipeline(
        base=_adapter("logistic", data),
        thresholds=ThresholdPair(0.3, 0.7),
        stage=stage,
        n_raw_features=data.n_features,
    )
    path = tmp_path / "skipped.zip"
    save(pipe, path)
    back = load(path)
    assert [m is None for m in back.stage.models_1_to_4] == [
        m is None for m in pipe.stage.models_1_to_4
    ]
    l1, _ = pipeline_predict(pipe, data)
    l2, _ = pipeline_predict(back, data)
    assert np.array_equal(l1, l2)


def test_classic_round_trip(tmp_path):
    data, _ = _data_and_probabilities(seed=2)
    stage = classic_fit(data, empty_like(data), CFG, seed=4)
    pipe = Pipeline(
        base=_adapter("svm", data),
        thresholds=ThresholdPair(0.4, 0.6),
        stage=stage,
        n_raw_features=data.n_features,
    )
    path = tmp_path / "classic.zip"
    save(pipe, path)
    back = load(path)
    assert back.stage.models_1_to_4 == ()
    l1, r1 = pipeline_predict(pipe, data)
    l2, r2 = pipeline_predict(back, data)
    assert np.array_equal(l1, l2)
    assert np.array_equal(r1, r2)


def test_save_stores_members_uncompressed(tmp_path):
    data, probs = _data_and_probabilities(seed=3)
    path = tmp_path / "pipe.zip"
    save(_guided_pipeline("logistic", data, probs), path)
    with zipfile.ZipFile(path) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}


def test_deflated_archive_still_loads(tmp_path):
    data, probs = _data_and_probabilities(seed=3)
    pipe = _guided_pipeline("logistic", data, probs)
    path = tmp_path / "pipe.zip"
    save(pipe, path)
    deflated = tmp_path / "deflated.zip"
    with zipfile.ZipFile(path) as zin, zipfile.ZipFile(
        deflated, "w", compression=zipfile.ZIP_DEFLATED
    ) as zout:
        for info in zin.infolist():
            zout.writestr(info.filename, zin.read(info.filename))
    with zipfile.ZipFile(deflated) as zf:
        assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_DEFLATED}
    labels, routes = pipeline_predict(load(deflated), data)
    want_labels, want_routes = pipeline_predict(pipe, data)
    assert np.array_equal(labels, want_labels)
    assert np.array_equal(routes, want_routes)


def test_saving_twice_gives_the_same_bytes(tmp_path, monkeypatch):
    data, probs = _data_and_probabilities(seed=3)
    pipe = _guided_pipeline("logistic", data, probs)
    saved = []
    for now in (1_000_000_000.0, 1_700_000_000.0):  # 2001 and 2023
        monkeypatch.setattr(time, "time", lambda now=now: now)
        path = tmp_path / f"pipe_{now:.0f}.zip"
        save(pipe, path)
        saved.append(path.read_bytes())
    assert saved[0] == saved[1]


def test_save_and_load_hold_one_blob_at_a_time(tmp_path):
    """A knn base's values are most of its archive. Beyond what it returns,
    neither save nor load holds a quarter of that one blob: a save writes
    each blob from its array's memory, and a load reads each blob in chunks
    into the array it returns. (An earlier save held every blob's bytes at
    once, 2 x the largest here; an earlier load read each blob whole.)"""
    data, probs = _data_and_probabilities(seed=3)
    pipe = _guided_pipeline("knn", data, probs)
    n = 400_000
    rng = np.random.default_rng(0)
    pipe.base.model = NearestNeighborModel(
        values=rng.normal(size=(n, data.n_features)),
        labels=rng.integers(0, 2, n),
        ids=np.arange(n),
    )
    path = tmp_path / "knn.zip"

    def excess(call):
        """Peak traced memory of call beyond what it leaves allocated."""
        tracemalloc.start()
        try:
            result = call()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak - current, result

    saved, _ = excess(lambda: save(pipe, path))
    loaded, back = excess(lambda: load(path))
    with zipfile.ZipFile(path) as zf:
        sizes = {i.filename: i.file_size for i in zf.infolist() if i.filename != "manifest.json"}
    largest = max(sizes.values())
    assert largest == sizes["arrays/knn_values.bin"] > sum(sizes.values()) / 2
    assert saved < largest / 4
    assert loaded < largest / 4
    assert np.array_equal(back.base.model.values, pipe.base.model.values)
    assert back.base.model.values.flags.writeable


# Archives written by an earlier release. guided and classic predate the
# shared pipeline type: make_blobs(12, 3, seed=5), a base that predicts
# positive everywhere (so pair models 2-4 are skipped), CFG, seed 0, a
# logistic adapter and thresholds (0.3, 0.7), through guided_fit and
# classic_fit. forest and knn predate the flat-array forest: on
# make_blobs(12, 3, gap=1.0, scale=1.5, seed=5), a forest base
# (ForestConfig(n_trees=3, max_depth=3, seed=1), thresholds (0.3, 0.7)) and a
# 1-NN base over make_blobs(6, 3, gap=1.0, scale=1.5, seed=6) whose error
# proxy was fitted on the data (ForestConfig(n_trees=3, max_depth=3, seed=2),
# thresholds (0, 1)); each through guided_fit with its own base's probabilities,
# CFG and seed 0. svm_fs has an svm base and a feature selection blob: on
# make_blobs(12, 5, gap=1.0, scale=1.5, seed=5), features [3, 0, 4] kept,
# an svm base fitted on them, thresholds (0.3, 0.7), through guided_fit with
# its own probabilities, CFG and seed 0. Labels and routes ("a" for the auxiliary
# head, "b" for the base) are those the writing release predicted on the
# same data.
ARCHIVES = Path(__file__).parent / "data"
EARLIER = {
    "guided": ({}, "0" * 12 + "1" * 12, "b" * 24),
    "classic": ({}, "0" * 12 + "1" * 12, "b" * 24),
    "forest": ({"gap": 1.0, "scale": 1.5},
               "010000000000110110110111", "baaaaabbbbbbbbaabbbbaabb"),
    "knn": ({"gap": 1.0, "scale": 1.5},
            "010100100011000110101011", "aaaaaaabaaaaaaaababaaaaa"),
    "svm_fs": ({"gap": 1.0, "scale": 1.5, "n_features": 5},
               "010000001101111001011111", "ababaabbaaabbaaababaabaa"),
}


def _rows(kind):
    """The rows whose labels and routes fixture kind recorded."""
    return make_blobs(**{"n_per_class": 12, "n_features": 3, "seed": 5, **EARLIER[kind][0]})


@pytest.mark.parametrize("kind, present", [
    ("guided", [True, False, False, False]),
    ("classic", []),
    ("forest", [True] * 4),
    ("knn", [True] * 4),
    ("svm_fs", [True] * 4),
])
def test_earlier_archive_loads_and_saves_byte_identical(kind, present, tmp_path):
    path = ARCHIVES / f"archive_{kind}_v1.zip"
    back = load(path)
    with zipfile.ZipFile(path) as zf:
        manifest = json.loads(zf.read("manifest.json"))
    assert manifest["kind"] == ("guided" if present else "classic")
    assert manifest["base"]["type"] == {"forest": "forest", "knn": "knn", "svm_fs": "svm"}.get(
        kind, "logistic")
    assert manifest["feature_selection"] == (kind == "svm_fs")
    assert [m is not None for m in back.stage.models_1_to_4] == present
    again = tmp_path / "again.zip"
    save(back, again)
    with zipfile.ZipFile(path) as old, zipfile.ZipFile(again) as new:
        assert old.namelist() == new.namelist()
        for name in old.namelist():
            assert old.read(name) == new.read(name), name
    _, labels, routes = EARLIER[kind]
    got_labels, got_routes = pipeline_predict(back, _rows(kind))
    assert "".join(map(str, got_labels)) == labels
    assert "".join(r[0] for r in got_routes) == routes


def _loads_as_recorded_or_fails_with_a_value_error(kind, raw):
    """Load the (damaged) bytes of fixture kind: either a ValueError, or a
    pipeline that predicts the fixture's recorded labels and routes."""
    try:
        back = load(io.BytesIO(raw))
    except ValueError:
        return
    _, labels, routes = EARLIER[kind]
    got_labels, got_routes = pipeline_predict(back, _rows(kind))
    assert "".join(map(str, got_labels)) == labels
    assert "".join(r[0] for r in got_routes) == routes


_FIXTURES = {kind: (ARCHIVES / f"archive_{kind}_v1.zip").read_bytes() for kind in EARLIER}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(kind=st.sampled_from(sorted(EARLIER)), data=st.data())
def test_a_fixture_with_one_flipped_byte_loads_as_recorded_or_fails_loudly(kind, data):
    raw = bytearray(_FIXTURES[kind])
    offset = data.draw(st.integers(0, len(raw) - 1), "offset")
    raw[offset] ^= data.draw(st.integers(1, 255), "mask")
    _loads_as_recorded_or_fails_with_a_value_error(kind, bytes(raw))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(kind=st.sampled_from(sorted(EARLIER)), data=st.data())
def test_a_truncated_fixture_fails_loudly(kind, data):
    raw = _FIXTURES[kind]
    _loads_as_recorded_or_fails_with_a_value_error(
        kind, raw[: data.draw(st.integers(0, len(raw) - 1), "length")]
    )


def _manifest(raw):
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        return json.loads(zf.read("manifest.json"))


_MANIFESTS = {kind: _manifest(raw) for kind, raw in _FIXTURES.items()}
# the path of every manifest value that is not an object or a list
_LEAVES = {
    kind: [p for p in json_paths(m) if not isinstance(json_at(m, p), (dict, list))]
    for kind, m in _MANIFESTS.items()
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(EARLIER)), data=st.data())
def test_a_fixture_with_one_manifest_value_edited_predicts_or_fails_loudly(kind, data):
    """The edited manifest is valid JSON inside a valid zip. It may describe
    another valid pipeline (moved thresholds, another bias, a skipped pair
    model), so the labels need not be the recorded ones: the load or the
    prediction raises a ValueError, or every row gets a 0/1 label and a route."""
    path = data.draw(st.sampled_from(_LEAVES[kind]), "path")
    value = data.draw(
        st.sampled_from([None, "x", -1, 0, 1, 0.5, 10**6, True, False, [], {}]), "value"
    )
    edited = json.dumps(json_edited(_MANIFESTS[kind], path, value)).encode()
    raw = _rewrite(io.BytesIO(_FIXTURES[kind]), io.BytesIO(),
                   lambda name, b: edited if name == "manifest.json" else b).getvalue()
    _predicts_or_fails_with_a_value_error(kind, raw)


def _predicts_or_fails_with_a_value_error(kind, raw):
    """Load raw, the edited bytes of fixture kind, and predict its rows:
    either a ValueError, or a 0/1 label and a route for every row. An alarm
    fails a prediction that never ends."""
    rows = _rows(kind)
    try:
        with _deadline():
            labels, routes = pipeline_predict(load(io.BytesIO(raw)), rows)
    except ValueError:
        return
    assert labels.shape == routes.shape == (rows.n_samples,)
    assert set(labels.tolist()) <= {0, 1}
    assert set(routes.tolist()) <= {ROUTE_BASE, ROUTE_AUXILIARY}


@contextmanager
def _deadline(seconds=5):
    """Raise TimeoutError in the block once it has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _with_blobs(kind, edit):
    """Fixture kind with its blobs read as arrays, changed by edit(arrays),
    and zipped again; each blob's manifest dtype and shape follow its array."""
    manifest = copy.deepcopy(_MANIFESTS[kind])
    table = manifest["arrays"]
    with zipfile.ZipFile(io.BytesIO(_FIXTURES[kind])) as zf:
        arrays = {name: np.frombuffer(zf.read(e["file"]), e["dtype"]).reshape(e["shape"]).copy()
                  for name, e in table.items()}
    edit(arrays)
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w") as zf:
        for name, e in table.items():
            e["dtype"], e["shape"] = arrays[name].dtype.str, list(arrays[name].shape)
        zf.writestr("manifest.json", json.dumps(manifest))
        for name, e in table.items():
            zf.writestr(e["file"], arrays[name].tobytes())
    return out.getvalue()


# each fixture's integer blobs
_INT_BLOBS = {
    kind: [name for name, e in m["arrays"].items() if e["dtype"] == "<i8"]
    for kind, m in _MANIFESTS.items()
}


@settings(derandomize=True, max_examples=150, deadline=None)
@given(kind=st.sampled_from(sorted(k for k, names in _INT_BLOBS.items() if names)),
       data=st.data())
def test_a_fixture_with_one_integer_blob_value_set_predicts_or_fails_loudly(kind, data):
    """One entry of a forest, knn or feature selection blob set to a small
    value, an index near an array's end, or a far one."""
    name = data.draw(st.sampled_from(_INT_BLOBS[kind]), "blob")
    size = int(np.prod(_MANIFESTS[kind]["arrays"][name]["shape"]))
    at = data.draw(st.integers(0, size - 1), "at")
    value = data.draw(st.one_of(st.integers(-2, size + 2), st.sampled_from([99, -(2**40), 2**40])),
                      "value")

    def edit(arrays):
        arrays[name].reshape(-1)[at] = value

    _predicts_or_fails_with_a_value_error(kind, _with_blobs(kind, edit))


def _replaced(a, at, value):
    a = a.copy()
    a[at] = value
    return a


def _split(forest):
    return int(np.flatnonzero(forest["left"] >= 0)[0])


def _leaf(forest):
    return int(np.flatnonzero(forest["left"] == -1)[0])


# rule -> (the array it breaks, that array broken, from the forest's arrays
# by field); the fixtures' bases read 3 features
_FOREST_RULES = {
    "two-dimensional": ("threshold", lambda f: f["threshold"].reshape(1, -1)),
    "float-indices": ("left", lambda f: f["left"].astype(np.float64)),
    "one-node-short": ("p1", lambda f: f["p1"][:-1]),
    "roots-not-from-0": ("roots", lambda f: _replaced(f["roots"], 0, 1)),
    "roots-not-rising": ("roots", lambda f: _replaced(f["roots"], 1, 0)),
    "roots-past-the-end": ("roots", lambda f: _replaced(f["roots"], -1, len(f["left"]))),
    "leaf-with-a-child": ("right", lambda f: _replaced(f["right"], _leaf(f), 1)),
    "left-child-backward": ("left", lambda f: _replaced(f["left"], _split(f), _split(f))),
    "right-child-backward": ("right", lambda f: _replaced(f["right"], _split(f), _split(f) + 1)),
    "right-child-past-the-end": ("right",
                                 lambda f: _replaced(f["right"], _split(f), len(f["left"]))),
    "feature-negative": ("feature", lambda f: _replaced(f["feature"], _split(f), -1)),
    "feature-too-wide": ("feature", lambda f: _replaced(f["feature"], _split(f), 3)),
    "p1-not-finite": ("p1", lambda f: _replaced(f["p1"], _leaf(f), np.nan)),
}


@pytest.mark.parametrize("rule", sorted(_FOREST_RULES))
@pytest.mark.parametrize("kind, prefix", [("forest", "base_forest"), ("knn", "proxy_forest")])
def test_load_refuses_a_forest_off_its_layout_naming_the_blob(kind, prefix, rule):
    """A forest whose walks could loop forever, or read a feature the rows
    lack, fails at load; an alarm fails a prediction that never ends."""
    name, broken = _FOREST_RULES[rule]

    def edit(arrays):
        forest = {f.name: arrays[f"{prefix}_{f.name}"] for f in fields(ForestModel)}
        arrays[f"{prefix}_{name}"] = broken(forest)

    raw = _with_blobs(kind, edit)
    with pytest.raises(ValueError, match=f"blob {prefix}_{name} is corrupt"), _deadline():
        pipeline_predict(load(io.BytesIO(raw)), _rows(kind))


# rule -> (fixture, the blob it breaks, that blob broken); the fixtures'
# bases read 3 features, svm_fs's the 3 it selects
_BASE_RULES = {
    "weights-one-short": ("svm_fs", "base_weights", lambda a: a[:-1]),
    "weights-two-dimensional": ("guided", "base_weights", lambda a: a.reshape(1, -1)),
    "weights-nan": ("classic", "base_weights", lambda a: _replaced(a, 0, np.nan)),
    "knn-values-too-narrow": ("knn", "knn_values", lambda a: a[:, :-1]),
    "knn-labels-one-short": ("knn", "knn_labels", lambda a: a[:-1]),
    "knn-ids-one-long": ("knn", "knn_ids", lambda a: np.append(a, 99)),
    "network-inf": ("guided", "model5_a0", lambda a: _replaced(a, (0,) * a.ndim, np.inf)),
    "head-nan": ("forest", "aux_a1", lambda a: _replaced(a, (0,) * a.ndim, np.nan)),
}


@pytest.mark.parametrize("rule", sorted(_BASE_RULES))
def test_load_refuses_a_blob_that_does_not_fit_its_base_naming_it(rule):
    """A blob of the wrong shape for the width its base reads, or a float
    blob with a value that is not finite, fails at load, not at prediction
    or in the routes."""
    kind, name, broken = _BASE_RULES[rule]

    def edit(arrays):
        arrays[name] = broken(arrays[name])

    raw = _with_blobs(kind, edit)
    with pytest.raises(ValueError, match=f"blob {name} is corrupt"):
        load(io.BytesIO(raw))


@pytest.mark.parametrize("value", [99, 5, -1])
def test_load_refuses_a_feature_selection_entry_out_of_range(value):
    def edit(arrays):
        arrays["feature_selection"][1] = value

    raw = _with_blobs("svm_fs", edit)
    with pytest.raises(ValueError, match="blob feature_selection is corrupt"):
        load(io.BytesIO(raw))


# ------------------------------------------------------------ corruption

def _saved(tmp_path, kind="logistic"):
    data, probs = _data_and_probabilities(seed=3)
    pipe = _guided_pipeline(kind, data, probs)
    path = tmp_path / "pipe.zip"
    save(pipe, path)
    return path


def _rewrite(path, out, mutate):
    """Copy the archive entry by entry, letting mutate(name, bytes) edit each."""
    with zipfile.ZipFile(path) as zin, zipfile.ZipFile(out, "w") as zout:
        for info in zin.infolist():
            payload = mutate(info.filename, zin.read(info.filename))
            if payload is not None:
                zout.writestr(info.filename, payload)
    return out


def test_load_rejects_non_zip(tmp_path):
    path = tmp_path / "not_a_zip.zip"
    path.write_text("just some text")
    with pytest.raises(ValueError, match="not a readable pipeline container"):
        load(path)
    with pytest.raises(ValueError, match="not a readable pipeline container"):
        load(tmp_path / "missing.zip")


def test_load_rejects_missing_manifest(tmp_path):
    path = _saved(tmp_path)
    out = _rewrite(path, tmp_path / "no_manifest.zip",
                   lambda name, b: None if name == "manifest.json" else b)
    with pytest.raises(ValueError, match="no manifest.json"):
        load(out)


def test_load_rejects_wrong_format_tag(tmp_path):
    path = _saved(tmp_path)

    def mutate(name, b):
        if name != "manifest.json":
            return b
        m = json.loads(b)
        m["format"] = "something-else"
        return json.dumps(m).encode()

    out = _rewrite(path, tmp_path / "tag.zip", mutate)
    with pytest.raises(ValueError, match="format tag"):
        load(out)


def test_load_rejects_future_version(tmp_path):
    path = _saved(tmp_path)

    def mutate(name, b):
        if name != "manifest.json":
            return b
        m = json.loads(b)
        assert m["format"] == FORMAT_TAG
        m["version"] = 999
        return json.dumps(m).encode()

    out = _rewrite(path, tmp_path / "ver.zip", mutate)
    with pytest.raises(ValueError, match="version"):
        load(out)


def test_load_rejects_truncated_blob(tmp_path):
    path = _saved(tmp_path)
    with zipfile.ZipFile(path) as zf:
        blob = next(n for n in zf.namelist() if n.startswith("arrays/"))
    out = _rewrite(path, tmp_path / "trunc.zip",
                   lambda name, b: b[:-8] if name == blob else b)
    with pytest.raises(ValueError, match="corrupt"):
        load(out)


def test_load_rejects_missing_blob(tmp_path):
    path = _saved(tmp_path)
    with zipfile.ZipFile(path) as zf:
        blob = next(n for n in zf.namelist() if n.startswith("arrays/"))
    out = _rewrite(path, tmp_path / "gone.zip",
                   lambda name, b: None if name == blob else b)
    with pytest.raises(ValueError, match="missing blob"):
        load(out)


def _data_offset(raw, name):
    """Where member name's data starts in the zip bytes raw."""
    with zipfile.ZipFile(io.BytesIO(raw)) as zf:
        start = zf.getinfo(name).header_offset
    name_len, extra_len = struct.unpack("<HH", raw[start + 26 : start + 30])
    return start + 30 + name_len + extra_len


def _encrypted_flag(raw, name):
    """Where member name's flags sit in its central directory entry (46 fixed
    bytes, then the name); bit 0 of byte 8 marks the member encrypted."""
    return raw.rindex(name.encode()) - 46 + 8


@pytest.mark.parametrize("member, offset, cause", [
    ("arrays/model5_a0.bin", lambda raw, m: _data_offset(raw, m) + 5, "Bad CRC-32"),
    ("manifest.json", lambda raw, m: _data_offset(raw, m) + 5, "Bad CRC-32"),
    ("arrays/model5_a0.bin", _encrypted_flag, "encrypted"),
], ids=["blob-data", "manifest-data", "encrypted-flag"])
def test_a_flipped_bit_names_the_damaged_member(member, offset, cause):
    raw = bytearray(_FIXTURES["guided"])
    raw[offset(raw, member)] ^= 0x01
    with pytest.raises(ValueError, match=f"member {re.escape(member)} is corrupt: .*{cause}"):
        load(io.BytesIO(bytes(raw)))


def test_corrupt_manifest_json(tmp_path):
    path = _saved(tmp_path)
    out = _rewrite(path, tmp_path / "badjson.zip",
                   lambda name, b: b"{nope" if name == "manifest.json" else b)
    with pytest.raises(ValueError, match="manifest is corrupt"):
        load(out)


def _without(key):
    def mutate(m):
        m.pop(key)
        return m
    return mutate


def _set(value, *path):
    def mutate(m):
        *parents, key = path
        node = m
        for p in parents:
            node = node[p]
        node[key] = value
        return m
    return mutate


_PRESENT = "key models_1_to_4[0].present must be true or false"
_N_RAW = "key n_raw_features must be a positive integer"
_COUNT = "a non-negative integer"
_COUNTS = "a list of non-negative integers"


@pytest.mark.parametrize("kind, mutate, message", [
    ("logistic", _without("auxiliary"), "missing key 'auxiliary'"),
    ("logistic", _without("arrays"), "missing key 'arrays'"),
    ("logistic", _without("kind"), "missing key 'kind'"),
    ("logistic", _without("thresholds"), "missing key 'thresholds'"),
    ("logistic", _set("|S8", "arrays", "aux_a0", "dtype"),
     "blob aux_a0 has unsupported dtype '|S8'"),
    ("svm", _set(0.1, "base", "score_range", "p_min"), "score_range p_min 0.1"),
    ("svm", _set(0.9, "base", "score_range", "p_max"), "score_range p_max 0.9"),
    ("logistic", lambda m: [1, 2], "manifest is not a JSON object (found list)"),
    ("logistic", _set(None, "models_1_to_4", 0, "present"), f"{_PRESENT}, found None"),
    ("logistic", _set([], "models_1_to_4", 0, "present"), f"{_PRESENT}, found []"),
    ("logistic", _set({}, "models_1_to_4", 0, "present"), f"{_PRESENT}, found {{}}"),
    ("logistic", _set(0, "models_1_to_4", 0, "present"), f"{_PRESENT}, found 0"),
    ("logistic", _set(-1, "n_raw_features"), f"{_N_RAW}, found -1"),
    ("logistic", _set(0, "n_raw_features"), f"{_N_RAW}, found 0"),
    ("logistic", _set(0.5, "n_raw_features"), f"{_N_RAW}, found 0.5"),
    ("logistic", _set(True, "n_raw_features"), f"{_N_RAW}, found True"),
    ("logistic", _set(None, "thresholds", "th_n"),
     "key thresholds.th_n must be a finite number, found None"),
    ("logistic", _set("x", "thresholds", "th_p"),
     "key thresholds.th_p must be a finite number, found 'x'"),
    ("logistic", _set(None, "model_5", "input_width"),
     f"key model_5.input_width must be {_COUNT}, found None"),
    ("logistic", _set("x", "model_5", "n_arrays"),
     f"key model_5.n_arrays must be {_COUNT}, found 'x'"),
    ("logistic", _set(99, "model_5", "n_arrays"),
     "key model_5.n_arrays is 99, but the network it describes holds"),
    ("logistic", _set(3, "model_5", "n_arrays"),
     "key model_5.n_arrays is 3, but the network it describes holds"),
    ("logistic", _set(5, "model_5", "seed"),
     "key model_5.seed must be a list of integers, found 5"),
    ("logistic", _set(None, "auxiliary", "spec", "layer_widths"),
     f"key auxiliary.spec.layer_widths must be {_COUNTS}, found None"),
    ("logistic", _set(None, "base", "bias"), "key base.bias must be a finite number, found None"),
    ("logistic", _set(float("nan"), "base", "bias"),
     "key base.bias must be a finite number, found nan"),
    ("logistic", _set(None, "arrays", "aux_a0", "shape"),
     f"key arrays.aux_a0.shape must be {_COUNTS}, found None"),
    ("logistic", _set([], "thresholds"), "key thresholds must be an object, found []"),
    ("logistic", _set(None, "model_5", "encoder"),
     "key model_5.encoder must be an object, found None"),
    ("logistic", _set(None, "feature_selection"),
     "key feature_selection must be true or false, found None"),
    ("logistic", _set({}, "models_1_to_4"),
     "key models_1_to_4 must be a list of 4 objects, found {}"),
    ("logistic", _set(True, "version"), "unsupported pipeline container version True"),
], ids=["auxiliary", "arrays", "kind", "thresholds", "dtype", "p_min", "p_max", "list",
        "present-null", "present-list", "present-object", "present-0",
        "n_raw-negative", "n_raw-0", "n_raw-fraction", "n_raw-bool",
        "th_n-null", "th_p-string", "input_width-null", "n_arrays-string",
        "n_arrays-99", "n_arrays-3", "seed-int",
        "layer_widths-null", "bias-null", "bias-nan", "shape-null", "thresholds-list", "encoder-null",
        "feature_selection-null", "models_1_to_4-object", "version-true"])
def test_load_names_what_is_wrong_with_the_manifest(kind, mutate, message, tmp_path):
    def rewrite(name, b):
        if name != "manifest.json":
            return b
        return json.dumps(mutate(json.loads(b))).encode()

    out = _rewrite(_saved(tmp_path, kind), tmp_path / "edited.zip", rewrite)
    with pytest.raises(ValueError, match=re.escape(message)):
        load(out)

