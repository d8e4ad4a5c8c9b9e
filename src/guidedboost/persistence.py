"""Pipeline container format: one zip archive, self-describing and versioned.

Layout: ``manifest.json`` describes every component (kinds, widths, seeds,
thresholds, feature indices) and an ``arrays`` table mapping logical names to
raw little-endian blobs under ``arrays/``: ``<f8`` for a float array, ``<i8``
otherwise. The manifest's ``kind`` is "guided" (pair models under
``models_1_to_4``, Model 5 under ``model_5``) or "classic" (the single Model
under ``model``), read off the stage's pair models. Every network is one
record, written by ``_store_net`` and read by ``_load_net``: ``input_width``,
``seed``, its layer specs by name and ``n_arrays``, the count of its blobs
``{prefix}_a{i}``; a Model's record starts with ``"present": true``. A forest
(a forest base, or a 1-NN base's error proxy) is stored as its six arrays, as
``classifiers.forest`` lays them out; the base's ``type`` is read off its
model. Members are stored uncompressed: float64 weights barely deflate, and
compressing them cost most of a save. Archives written with deflated members,
as earlier releases did, still load. Every member carries one fixed
timestamp, so a pipeline always saves to the same bytes. Loading validates
the format tag, the version, every blob's dtype and byte length, and the type
of every other manifest value, read through ``typed_json.Node``: the typed
reader the config loader shares, whose errors name the key. Every float blob
must be finite. A forest must hold that layout (1-D arrays, one node count,
roots rising from 0, a leaf's children -1, split node i's children i + 1 and
past it, features below the base's input width). A linear base's
``base_weights`` must hold one weight per input feature, and a 1-NN base's
``knn_values`` one or more rows of that width, with one ``knn_labels`` and
one ``knn_ids`` entry per row. Feature selection indices must lie below
``n_raw_features``. So truncation, foreign files and hand edits fail with a
diagnostic that names the key or blob, instead of garbage predictions or a
prediction that never ends. A member whose bytes are damaged (a bad CRC-32, a
broken header, a flag or compression method the reader refuses) fails with a
ValueError that names it.
"""
from __future__ import annotations

import json
import zipfile
import zlib
from contextlib import contextmanager
from dataclasses import asdict, fields
from typing import Callable

import numpy as np

from .classifiers.adapters import IdentityAdapter, KnnAdapter, ScoreRange, SvmAdapter
from .classifiers.forest import ForestModel
from .classifiers.knn import NearestNeighborModel
from .classifiers.linear import LinearModel
from .data import ThresholdPair
from .nn.network import MLP, EncoderProjectionModel, MlpSpec
from .pipeline import Pipeline, Stage
from .typed_json import Node

FORMAT_TAG = "guidedboost-pipeline"
FORMAT_VERSION = 1

_FLOAT = "<f8"
_INT = "<i8"
# manifest key and blob prefix of the Model that feeds the auxiliary head
_MODEL_KEYS = {"guided": ("model_5", "model5"), "classic": ("model", "model")}
# the svm score map's probability range: archives record it, and loading
# rejects any other range
_P_RANGE = {"p_min": 0.0, "p_max": 1.0}
# every member's timestamp: the earliest a zip header can hold
_ZIP_DATE = (1980, 1, 1, 0, 0, 0)
# bytes a blob is read in: the largest temporary a load makes
_READ_CHUNK = 1 << 20
# reads one blob by name, as the array its manifest entry describes
_Blob = Callable[[str], np.ndarray]


def _spec_from_json(d: Node) -> MlpSpec:
    return MlpSpec(
        layer_widths=tuple(d.get("layer_widths", "counts")),
        normalize=tuple(d.get("normalize", "texts")),
        activation=tuple(d.get("activation", "texts")),
    )


def _store_net(arrays: dict, prefix: str, net: MLP, **specs: MlpSpec) -> dict:
    """net's manifest record; its state arrays join arrays as ``{prefix}_a{i}``."""
    state = net.state_arrays()
    arrays.update((f"{prefix}_a{i}", a) for i, a in enumerate(state))
    return {
        "input_width": net.input_width,
        "seed": net.seed,
        **{key: asdict(spec) for key, spec in specs.items()},
        "n_arrays": len(state),
    }


def _load_net(cls, meta: Node, blob: _Blob, prefix: str, *spec_keys: str) -> MLP:
    """The cls network that the record meta describes, holding its blobs."""
    net = cls(
        meta.get("input_width", "count"),
        *(_spec_from_json(meta.get(key, "object")) for key in spec_keys),
        meta.get("seed", "seed"),
    )
    n_arrays, own = meta.get("n_arrays", "count"), len(net.state_arrays())
    if n_arrays != own:
        raise ValueError(
            f"pipeline manifest key {meta.path}.n_arrays is {n_arrays}, "
            f"but the network it describes holds {own} arrays"
        )
    net.load_state_arrays([blob(f"{prefix}_a{i}") for i in range(n_arrays)])
    return net


def _store_model(arrays: dict, prefix: str, model: EncoderProjectionModel) -> dict:
    return {"present": True, **_store_net(arrays, prefix, model, encoder=model.encoder_spec,
                                          projection=model.projection_spec)}


def _load_model(meta: Node, blob: _Blob, prefix: str) -> EncoderProjectionModel:
    return _load_net(EncoderProjectionModel, meta, blob, prefix, "encoder", "projection")


def _check_blob(ok, name: str, rule: str):
    if not ok:
        raise ValueError(f"pipeline container blob {name} is corrupt: {rule}")


def _check_shape(a: np.ndarray, name: str, dtype: str, shape: tuple):
    _check_blob(a.dtype == dtype and a.shape == shape, name,
                f"it is {a.dtype.str} of shape {a.shape}, not {dtype} of shape {shape}")


def _store_fields(arrays: dict, prefix: str, obj):
    """obj's array fields join arrays as the blobs ``{prefix}_{field}``."""
    arrays.update((f"{prefix}_{f.name}", getattr(obj, f.name)) for f in fields(obj))


def _load_fields(cls, blob: _Blob, prefix: str):
    return cls(**{f.name: blob(f"{prefix}_{f.name}") for f in fields(cls)})


def _load_forest(blob: _Blob, prefix: str, width: int) -> ForestModel:
    """The forest in the blobs ``{prefix}_*``, checked to hold the layout
    ``classifiers.forest`` states: every walk from a root then ends at a leaf,
    and every split reads one of the base's width features."""
    forest = _load_fields(ForestModel, blob, prefix)
    feature, left, right, roots = forest.feature, forest.left, forest.right, forest.roots
    n, i = left.size, np.arange(left.size)
    for f in fields(ForestModel):
        a = getattr(forest, f.name)
        _check_shape(a, f"{prefix}_{f.name}", _FLOAT if f.name in ("threshold", "p1") else _INT,
                     (a.size,) if f.name == "roots" else (n,))
    _check_blob(len(roots) and roots[0] == 0 and (np.diff(roots) > 0).all() and roots[-1] < n,
                f"{prefix}_roots", f"tree roots must start at 0 and rise strictly below {n}")
    leaf = left == -1
    for name, bad, rule in (
        ("right", leaf & (right != -1), "a leaf's right child is not -1"),
        ("left", ~leaf & (left != i + 1), "a split node's left child is not the next node"),
        ("right", ~leaf & ((right <= i + 1) | (right >= n)),
         f"a split node's right child is not past its left child and below {n}"),
        ("feature", ~leaf & ((feature < 0) | (feature >= width)),
         f"a split node's feature is outside [0, {width})"),
    ):
        _check_blob(not bad.any(), f"{prefix}_{name}", f"node {int(np.argmax(bad))}: {rule}")
    return forest


def _store_base(arrays: dict, base) -> dict:
    if isinstance(base, IdentityAdapter) and isinstance(base.model, ForestModel):
        _store_fields(arrays, "base_forest", base.model)
        return {"type": "forest"}
    if isinstance(base, IdentityAdapter):
        arrays["base_weights"] = base.model.weights
        return {"type": "logistic", "bias": base.model.bias}
    if isinstance(base, SvmAdapter):
        arrays["base_weights"] = base.model.weights
        r = base.score_range
        return {
            "type": "svm",
            "bias": base.model.bias,
            "score_range": {"f_min": r.f_min, "f_max": r.f_max, **_P_RANGE},
        }
    if isinstance(base, KnnAdapter):
        _store_fields(arrays, "knn", base.model)
        _store_fields(arrays, "proxy_forest", base.proxy)
        return {"type": "knn"}
    raise ValueError(f"cannot serialize base adapter of type {type(base).__name__}")


def _load_base(meta: Node, blob: _Blob, width: int):
    """The base that meta describes, which reads rows of width features."""
    kind = meta.get("type", "text")
    if kind in ("logistic", "svm"):
        weights = blob("base_weights")
        _check_shape(weights, "base_weights", _FLOAT, (width,))
        model = LinearModel(weights=weights, bias=float(meta.get("bias", "number")))
        if kind == "logistic":
            return IdentityAdapter(model)
        r = meta.get("score_range", "object")
        for key, value in _P_RANGE.items():
            if r.get(key, "number") != value:
                raise ValueError(
                    f"unsupported score_range {key} {r.obj[key]!r} in manifest; "
                    f"this build maps svm scores onto [0, 1]"
                )
        return SvmAdapter(
            model, ScoreRange(float(r.get("f_min", "number")), float(r.get("f_max", "number")))
        )
    if kind == "forest":
        return IdentityAdapter(_load_forest(blob, "base_forest", width))
    if kind == "knn":
        model = _load_fields(NearestNeighborModel, blob, "knn")
        n = max(1, model.values.shape[0] if model.values.ndim else 0)  # one row or more
        for name, dtype, shape in (("values", _FLOAT, (n, width)), ("labels", _INT, (n,)),
                                   ("ids", _INT, (n,))):
            _check_shape(getattr(model, name), f"knn_{name}", dtype, shape)
        return KnnAdapter(model, _load_forest(blob, "proxy_forest", width))
    raise ValueError(f"unknown base type {kind!r} in manifest")


def save(pipeline: Pipeline, path) -> None:
    """Write the pipeline container; see the module docstring for the layout."""
    arrays: dict[str, np.ndarray] = {}
    manifest: dict = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "thresholds": {"th_n": pipeline.thresholds.th_n, "th_p": pipeline.thresholds.th_p},
        "n_raw_features": int(pipeline.n_raw_features),
        "metadata": pipeline.metadata,
        "base": _store_base(arrays, pipeline.base),
    }
    if pipeline.feature_selection is not None:
        arrays["feature_selection"] = pipeline.feature_selection
    manifest["feature_selection"] = pipeline.feature_selection is not None

    stage = pipeline.stage
    manifest["kind"] = kind = "guided" if stage.models_1_to_4 else "classic"
    if stage.models_1_to_4:
        manifest["models_1_to_4"] = [
            {"present": False} if model is None else _store_model(arrays, f"model{k}", model)
            for k, model in enumerate(stage.models_1_to_4, start=1)
        ]
    key, prefix = _MODEL_KEYS[kind]
    manifest[key] = _store_model(arrays, prefix, stage.model)
    manifest["auxiliary"] = _store_net(arrays, "aux", stage.auxiliary, spec=stage.auxiliary.spec)
    manifest["arrays"] = table = {
        name: {
            "file": f"arrays/{name}.bin",
            "dtype": _FLOAT if np.asarray(a).dtype.kind == "f" else _INT,
            "shape": list(np.shape(a)),
        }
        for name, a in arrays.items()
    }

    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        zf.writestr(zipfile.ZipInfo("manifest.json", date_time=_ZIP_DATE),
                    json.dumps(manifest, indent=2))
        for name, entry in table.items():
            arr = np.asarray(arrays[name], entry["dtype"], order="C")
            # written from the array's own memory, so a save holds no blob's bytes
            zf.writestr(zipfile.ZipInfo(entry["file"], date_time=_ZIP_DATE),
                        arr.reshape(-1).view(np.uint8))


@contextmanager
def _zip_errors(what: str):
    """Raise what the zip reader finds wrong as a ValueError that starts with what."""
    try:
        yield
    except (zipfile.BadZipFile, zlib.error, EOFError, NotImplementedError, OSError,
            RuntimeError) as exc:  # RuntimeError: the encrypted flag bit
        raise ValueError(f"{what}: {exc}") from None


def _blob_reader(zf: zipfile.ZipFile, table: Node) -> _Blob:
    """Check every blob that table lists against the zip directory: its member
    exists, its dtype is known, and its byte length fits its shape. Returns
    the function that reads one blob, by name, when it is needed."""
    found = {}
    for name in table.obj:
        entry = table.get(name, "object")
        file, dtype = entry.get("file", "text"), entry.get("dtype", "text")
        shape = tuple(entry.get("shape", "counts"))
        try:
            info = zf.getinfo(file)
        except KeyError:
            raise ValueError(f"pipeline container is missing blob {file}") from None
        if dtype not in (_FLOAT, _INT):
            raise ValueError(f"pipeline container blob {name} has unsupported dtype {dtype!r}")
        expected = int(np.prod(shape, dtype=np.int64)) * 8
        _check_blob(info.file_size == expected, name,
                    f"expected {expected} bytes, found {info.file_size}")
        found[name] = (info, dtype, shape)

    def blob(name: str) -> np.ndarray:
        info, dtype, shape = found[name]
        out = np.empty(shape, dtype)
        flat = out.reshape(-1).view(np.uint8)
        # in chunks, so the only copy of the blob is its array
        with (
            _zip_errors(f"pipeline container member {info.filename} is corrupt"),
            zf.open(info) as member,
        ):
            for start in range(0, flat.size, _READ_CHUNK):
                chunk = flat[start : start + _READ_CHUNK]
                if member.readinto(chunk) != chunk.size:
                    raise EOFError("it ends early")
        # min and max make no temporary, and a NaN or an infinity reaches one
        _check_blob(dtype != _FLOAT or not out.size
                    or (np.isfinite(out.min()) and np.isfinite(out.max())),
                    name, "it holds a value that is not finite")
        return out

    return blob


def load(path) -> Pipeline:
    """Read a pipeline container written by save()."""
    with _zip_errors("not a readable pipeline container"):
        zf = zipfile.ZipFile(path, "r")
    with zf:
        try:
            with _zip_errors("pipeline container member manifest.json is corrupt"):
                raw = zf.read("manifest.json")
        except KeyError:
            raise ValueError("pipeline container has no manifest.json") from None
        try:
            obj = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ValueError(f"pipeline manifest is corrupt: {exc}") from None
        manifest = Node.root(obj, "pipeline manifest")
        if obj.get("format") != FORMAT_TAG:
            raise ValueError(f"not a pipeline container (format tag {obj.get('format')!r})")
        version = obj.get("version")
        if type(version) is not int or version != FORMAT_VERSION:  # true == 1 in Python
            raise ValueError(
                f"unsupported pipeline container version {version!r}; "
                f"this build reads version {FORMAT_VERSION}"
            )
        try:
            return _from_manifest(manifest, _blob_reader(zf, manifest.get("arrays", "object")))
        except KeyError as exc:  # a blob the manifest's arrays table does not list
            raise ValueError(f"pipeline manifest is missing key {exc.args[0]!r}") from None


def _from_manifest(manifest: Node, blob: _Blob) -> Pipeline:
    kind = manifest.get("kind", "text")
    if kind not in _MODEL_KEYS:
        raise ValueError(f"unknown pipeline kind {kind!r} in manifest")
    models_1_to_4 = tuple(
        _load_model(meta, blob, f"model{k}") if meta.get("present", "flag") else None
        for k, meta in enumerate(
            manifest.get("models_1_to_4", "four") if kind == "guided" else (), start=1
        )
    )
    n_raw = manifest.get("n_raw_features", "positive")
    key, prefix = _MODEL_KEYS[kind]
    stage = Stage(
        models_1_to_4=models_1_to_4,
        model=_load_model(manifest.get(key, "object"), blob, prefix),
        auxiliary=_load_net(MLP, manifest.get("auxiliary", "object"), blob, "aux", "spec"),
    )
    thresholds = manifest.get("thresholds", "object")
    selection = blob("feature_selection") if manifest.get("feature_selection", "flag") else None
    _check_blob(selection is None or (selection.dtype == _INT and selection.ndim == 1
                                      and ((0 <= selection) & (selection < n_raw)).all()),
                "feature_selection", f"it must list indices of the {n_raw} raw features")
    return Pipeline(
        base=_load_base(manifest.get("base", "object"), blob,
                        n_raw if selection is None else len(selection)),
        thresholds=ThresholdPair(
            th_n=float(thresholds.get("th_n", "number")),
            th_p=float(thresholds.get("th_p", "number")),
        ),
        stage=stage,
        n_raw_features=n_raw,
        feature_selection=selection,
        metadata=manifest.get("metadata", "object", {}).obj,
    )
