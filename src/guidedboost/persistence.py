"""Pipeline container format: one zip archive, self-describing and versioned.

Layout: ``manifest.json`` describes every component (kinds, widths, seeds,
thresholds, feature indices) and an ``arrays`` table mapping logical names to
raw little-endian blobs under ``arrays/``. The manifest's ``kind`` is
"guided" (pair models under ``models_1_to_4``, Model 5 under ``model_5``) or
"classic" (the single Model under ``model``), read off the stage's pair
models. A forest (a forest base, or a 1-NN base's error proxy) is stored as
its six arrays, as ``classifiers.forest`` lays them out; the base's ``type``
is read off its model. Parameters are ``<f8``, integer
tables ``<i8``. Members are stored uncompressed: float64 weights barely
deflate, and compressing them cost most of a save. Archives written with
deflated members, as earlier releases did, still load. Loading validates the
format tag, the version, every manifest key it reads, and every blob's dtype
and byte length, so truncation and foreign files fail with a diagnostic
instead of garbage predictions. The manifest must be a JSON object, each pair
model's ``present`` flag a boolean, and ``n_raw_features`` a positive integer.
"""
from __future__ import annotations

import json
import zipfile
from dataclasses import fields

import numpy as np

from .classifiers.adapters import IdentityAdapter, KnnAdapter, ScoreRange, SvmAdapter
from .classifiers.forest import ForestModel
from .classifiers.knn import NearestNeighborModel
from .classifiers.linear import LinearModel
from .data import ThresholdPair
from .nn.network import MLP, EncoderProjectionModel, MlpSpec
from .pipeline import Pipeline, Stage

FORMAT_TAG = "guidedboost-pipeline"
FORMAT_VERSION = 1

_FLOAT = "<f8"
_INT = "<i8"
# manifest key and blob prefix of the Model that feeds the auxiliary head
_MODEL_KEYS = {"guided": ("model_5", "model5"), "classic": ("model", "model")}
# the svm score map's probability range: archives record it, and loading
# rejects any other range
_P_RANGE = {"p_min": 0.0, "p_max": 1.0}


class _ArrayStore:
    def __init__(self):
        self.entries: dict[str, dict] = {}
        self.blobs: dict[str, bytes] = {}

    def add(self, name: str, arr: np.ndarray, dtype: str = _FLOAT):
        if dtype not in (_FLOAT, _INT):
            raise ValueError(f"unsupported blob dtype {dtype}")
        if name in self.entries:
            raise ValueError(f"duplicate array name {name}")
        arr = np.ascontiguousarray(np.asarray(arr).astype(dtype))
        self.entries[name] = {
            "file": f"arrays/{name}.bin",
            "dtype": dtype,
            "shape": list(arr.shape),
        }
        self.blobs[name] = arr.tobytes()


def _spec_to_json(spec: MlpSpec) -> dict:
    return {
        "layer_widths": list(spec.layer_widths),
        "normalize": list(spec.normalize),
        "activation": list(spec.activation),
    }


def _spec_from_json(d: dict) -> MlpSpec:
    return MlpSpec(
        layer_widths=tuple(d["layer_widths"]),
        normalize=tuple(d["normalize"]),
        activation=tuple(d["activation"]),
    )


def _store_model(store: _ArrayStore, prefix: str, model: EncoderProjectionModel) -> dict:
    arrays = model.state_arrays()
    for i, a in enumerate(arrays):
        store.add(f"{prefix}_a{i}", a)
    return {
        "present": True,
        "input_width": model.input_width,
        "seed": model.encoder.seed[:-1],  # the [0]/[1] suffix is re-added on rebuild
        "encoder": _spec_to_json(model.encoder.spec),
        "projection": _spec_to_json(model.projection.spec),
        "n_arrays": len(arrays),
    }


def _load_model(meta: dict, arrays: dict[str, np.ndarray], prefix: str) -> EncoderProjectionModel:
    model = EncoderProjectionModel(
        int(meta["input_width"]),
        _spec_from_json(meta["encoder"]),
        _spec_from_json(meta["projection"]),
        [int(s) for s in meta["seed"]],
    )
    model.load_state_arrays([arrays[f"{prefix}_a{i}"] for i in range(int(meta["n_arrays"]))])
    return model


def _store_auxiliary(store: _ArrayStore, head: MLP) -> dict:
    arrays = head.state_arrays()
    for i, a in enumerate(arrays):
        store.add(f"aux_a{i}", a)
    return {
        "input_width": head.input_width,
        "seed": head.seed,
        "spec": _spec_to_json(head.spec),
        "n_arrays": len(arrays),
    }


def _load_auxiliary(meta: dict, arrays: dict[str, np.ndarray]) -> MLP:
    head = MLP(
        int(meta["input_width"]),
        _spec_from_json(meta["spec"]),
        [int(s) for s in meta["seed"]],
    )
    head.load_state_arrays([arrays[f"aux_a{i}"] for i in range(int(meta["n_arrays"]))])
    return head


def _store_forest(store: _ArrayStore, prefix: str, forest: ForestModel):
    for f in fields(ForestModel):
        arr = getattr(forest, f.name)
        store.add(f"{prefix}_{f.name}", arr, _FLOAT if arr.dtype.kind == "f" else _INT)


def _load_forest(arrays: dict[str, np.ndarray], prefix: str) -> ForestModel:
    return ForestModel(**{f.name: arrays[f"{prefix}_{f.name}"] for f in fields(ForestModel)})


def _store_base(store: _ArrayStore, base) -> dict:
    if isinstance(base, IdentityAdapter) and isinstance(base.model, ForestModel):
        _store_forest(store, "base_forest", base.model)
        return {"type": "forest"}
    if isinstance(base, IdentityAdapter):
        store.add("base_weights", base.model.weights)
        return {"type": "logistic", "bias": base.model.bias}
    if isinstance(base, SvmAdapter):
        store.add("base_weights", base.model.weights)
        r = base.score_range
        return {
            "type": "svm",
            "bias": base.model.bias,
            "score_range": {"f_min": r.f_min, "f_max": r.f_max, **_P_RANGE},
        }
    if isinstance(base, KnnAdapter):
        store.add("knn_values", base.model.values)
        store.add("knn_labels", base.model.labels, _INT)
        store.add("knn_ids", base.model.ids, _INT)
        _store_forest(store, "proxy_forest", base.proxy)
        return {"type": "knn"}
    raise ValueError(f"cannot serialize base adapter of type {type(base).__name__}")


def _load_base(meta: dict, arrays: dict[str, np.ndarray]):
    kind = meta["type"]
    if kind == "logistic":
        return IdentityAdapter(
            LinearModel(weights=arrays["base_weights"], bias=float(meta["bias"]), kind="logistic")
        )
    if kind == "svm":
        r = meta["score_range"]
        for key, value in _P_RANGE.items():
            if float(r[key]) != value:
                raise ValueError(
                    f"unsupported score_range {key} {r[key]!r} in manifest; "
                    f"this build maps svm scores onto [0, 1]"
                )
        return SvmAdapter(
            LinearModel(weights=arrays["base_weights"], bias=float(meta["bias"]), kind="svm"),
            ScoreRange(f_min=float(r["f_min"]), f_max=float(r["f_max"])),
        )
    if kind == "forest":
        return IdentityAdapter(_load_forest(arrays, "base_forest"))
    if kind == "knn":
        model = NearestNeighborModel(
            values=arrays["knn_values"],
            labels=arrays["knn_labels"],
            ids=arrays["knn_ids"],
        )
        return KnnAdapter(model, _load_forest(arrays, "proxy_forest"))
    raise ValueError(f"unknown base type {kind!r} in manifest")


def save(pipeline: Pipeline, path) -> None:
    """Write the pipeline container; see the module docstring for the layout."""
    store = _ArrayStore()
    manifest: dict = {
        "format": FORMAT_TAG,
        "version": FORMAT_VERSION,
        "thresholds": {"th_n": pipeline.thresholds.th_n, "th_p": pipeline.thresholds.th_p},
        "n_raw_features": int(pipeline.n_raw_features),
        "metadata": pipeline.metadata,
        "base": _store_base(store, pipeline.base),
    }
    if pipeline.feature_selection is not None:
        store.add("feature_selection", pipeline.feature_selection, _INT)
        manifest["feature_selection"] = True
    else:
        manifest["feature_selection"] = False

    stage = pipeline.stage
    manifest["kind"] = kind = "guided" if stage.models_1_to_4 else "classic"
    if stage.models_1_to_4:
        manifest["models_1_to_4"] = [
            {"present": False} if model is None else _store_model(store, f"model{k}", model)
            for k, model in enumerate(stage.models_1_to_4, start=1)
        ]
    key, prefix = _MODEL_KEYS[kind]
    manifest[key] = _store_model(store, prefix, stage.model)
    manifest["auxiliary"] = _store_auxiliary(store, stage.auxiliary)
    manifest["arrays"] = store.entries

    with zipfile.ZipFile(path, "w", compression=zipfile.ZIP_STORED) as zf:
        zf.writestr("manifest.json", json.dumps(manifest, indent=2))
        for name, entry in store.entries.items():
            zf.writestr(entry["file"], store.blobs[name])


def _read_arrays(zf: zipfile.ZipFile, table: dict) -> dict[str, np.ndarray]:
    out = {}
    for name, entry in table.items():
        try:
            raw = zf.read(entry["file"])
        except KeyError:
            raise ValueError(f"pipeline container is missing blob {entry['file']}") from None
        if entry["dtype"] not in (_FLOAT, _INT):
            raise ValueError(
                f"pipeline container blob {name} has unsupported dtype {entry['dtype']!r}"
            )
        shape = tuple(int(s) for s in entry["shape"])
        expected = int(np.prod(shape, dtype=np.int64)) * 8
        if len(raw) != expected:
            raise ValueError(
                f"pipeline container blob {name} is corrupt: "
                f"expected {expected} bytes, found {len(raw)}"
            )
        out[name] = np.frombuffer(raw, dtype=entry["dtype"]).reshape(shape).copy()
    return out


def load(path) -> Pipeline:
    """Read a pipeline container written by save()."""
    try:
        zf = zipfile.ZipFile(path, "r")
    except (zipfile.BadZipFile, OSError) as exc:
        raise ValueError(f"not a readable pipeline container: {exc}") from None
    with zf:
        try:
            manifest = json.loads(zf.read("manifest.json"))
        except KeyError:
            raise ValueError("pipeline container has no manifest.json") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"pipeline manifest is corrupt: {exc}") from None
        if not isinstance(manifest, dict):
            raise ValueError(
                f"pipeline manifest is not a JSON object (found {type(manifest).__name__})"
            )
        if manifest.get("format") != FORMAT_TAG:
            raise ValueError(
                f"not a pipeline container (format tag {manifest.get('format')!r})"
            )
        if manifest.get("version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported pipeline container version {manifest.get('version')!r}; "
                f"this build reads version {FORMAT_VERSION}"
            )
        try:
            return _from_manifest(manifest, _read_arrays(zf, manifest["arrays"]))
        except KeyError as exc:
            raise ValueError(f"pipeline manifest is missing key {exc.args[0]!r}") from None


def _checked(value, ok: bool, key: str, expected: str):
    """value, once ok confirms it is what the manifest key must hold."""
    if not ok:
        raise ValueError(f"pipeline manifest key {key} must be {expected}, found {value!r}")
    return value


def _present(meta: dict, k: int) -> bool:
    present = meta["present"]
    return _checked(present, isinstance(present, bool), f"models_1_to_4[{k - 1}].present",
                    "true or false")


def _from_manifest(manifest: dict, arrays: dict[str, np.ndarray]) -> Pipeline:
    kind = manifest["kind"]
    if kind not in _MODEL_KEYS:
        raise ValueError(f"unknown pipeline kind {kind!r} in manifest")
    models_1_to_4 = tuple(
        _load_model(meta, arrays, f"model{k}") if _present(meta, k) else None
        for k, meta in enumerate(manifest["models_1_to_4"] if kind == "guided" else (), start=1)
    )
    n_raw = manifest["n_raw_features"]
    _checked(n_raw, type(n_raw) is int and n_raw > 0, "n_raw_features", "a positive integer")
    key, prefix = _MODEL_KEYS[kind]
    stage = Stage(
        models_1_to_4=models_1_to_4,
        model=_load_model(manifest[key], arrays, prefix),
        auxiliary=_load_auxiliary(manifest["auxiliary"], arrays),
    )
    return Pipeline(
        base=_load_base(manifest["base"], arrays),
        thresholds=ThresholdPair(
            th_n=float(manifest["thresholds"]["th_n"]),
            th_p=float(manifest["thresholds"]["th_p"]),
        ),
        stage=stage,
        n_raw_features=n_raw,
        feature_selection=arrays["feature_selection"] if manifest["feature_selection"] else None,
        metadata=manifest.get("metadata", {}),
    )
