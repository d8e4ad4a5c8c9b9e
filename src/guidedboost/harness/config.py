"""Experiment configuration: dataclasses plus the JSON file format the CLI reads."""
from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from ..classifiers.forest import ForestConfig
from ..classifiers.linear import LinearConfig, SvmConfig
from ..nn.network import encoder_spec, projection_spec
from ..nn.training import TrainConfig
from ..pipeline import RetrainConfig
from ..thresholding import ToleranceConfig
from ..typed_json import Node
from .io import DATA_FORMATS
from .splits import check_fractions

# the settings class of each base kind, whose fields base.params may set; knn
# takes its error-proxy forest's
BASE_PARAMS = {
    "logistic": LinearConfig, "svm": SvmConfig, "forest": ForestConfig, "knn": ForestConfig,
}
BASE_KINDS = tuple(BASE_PARAMS)
# the top-level keys of a config file, as config_to_dict writes them
_CONFIG_KEYS = (
    "data", "fractions", "tolerance", "base", "feature_top_k", "encoder_widths",
    "projection_widths", "train", "seed", "out_dir",
)


@dataclass(frozen=True)
class SyntheticSpec:
    """Two-Gaussian binary dataset, optionally with a planted overlap band.

    With ``planted`` set, ``band_fraction`` of each class sits in a band
    around the midpoint of the class means where the primary feature carries
    no signal and the label is the XOR of the signs of two auxiliary
    features: a structure a linear base cannot exploit but an embedding model
    can.
    """

    n_per_class: int = 2000
    n_features: int = 12
    mean_negative: float = -2.0
    mean_positive: float = 2.0
    cov_scale: float = 1.0
    planted: bool = True
    band_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.n_per_class < 1:
            raise ValueError("SyntheticSpec: n_per_class must be positive")
        if self.n_features < 2:
            raise ValueError("SyntheticSpec: need at least 2 features")
        if self.planted and self.n_features < 3:
            raise ValueError("SyntheticSpec: planted structure needs at least 3 features")
        if not 0.0 <= self.cov_scale < math.inf:
            raise ValueError("SyntheticSpec: cov_scale must be non-negative")
        if not (0.0 <= self.band_fraction <= 1.0):
            raise ValueError("SyntheticSpec: band_fraction must lie in [0, 1]")
        if not -math.inf < self.mean_negative < self.mean_positive < math.inf:
            raise ValueError("SyntheticSpec: mean_negative must be below mean_positive")


@dataclass
class ExperimentConfig:
    """Everything run_experiment needs; exactly one data source must be set."""

    data_path: str | None = None
    data_format: str = "dense"
    synthetic: SyntheticSpec | None = None
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
    tolerance: ToleranceConfig = field(default_factory=ToleranceConfig)
    base: str = "svm"
    base_params: dict = field(default_factory=dict)
    feature_top_k: int = 0
    retrain: RetrainConfig = field(default_factory=RetrainConfig)
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        if (self.data_path is None) == (self.synthetic is None):
            raise ValueError("ExperimentConfig: set exactly one of data_path and synthetic")
        if self.data_format not in DATA_FORMATS:
            raise ValueError(f"ExperimentConfig: data_format must be one of {DATA_FORMATS}")
        if self.base not in BASE_KINDS:
            raise ValueError(f"ExperimentConfig: base must be one of {BASE_KINDS}")
        try:
            BASE_PARAMS[self.base](**self.base_params)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"ExperimentConfig: base_params {self.base_params!r} do not fit base "
                f"{self.base!r}: {exc}"
            ) from None
        self.fractions = check_fractions(self.fractions)
        if self.feature_top_k < 0:
            raise ValueError("ExperimentConfig: feature_top_k must be >= 0 (0 disables)")
        if self.seed < 0:
            raise ValueError(f"ExperimentConfig: seed must be >= 0, found {self.seed}")


def config_to_dict(cfg: ExperimentConfig) -> dict:
    d: dict = {
        "fractions": list(cfg.fractions),
        "tolerance": {"X": cfg.tolerance.X, "Y": cfg.tolerance.Y},
        "base": {"kind": cfg.base, "params": dict(cfg.base_params)},
        "feature_top_k": cfg.feature_top_k,
        "encoder_widths": list(cfg.retrain.encoder.layer_widths),
        "projection_widths": list(cfg.retrain.projection.layer_widths),
        "train": asdict(cfg.retrain.train),
        "seed": cfg.seed,
        "out_dir": cfg.out_dir,
    }
    if cfg.synthetic is not None:
        d["data"] = {"synthetic": asdict(cfg.synthetic)}
    else:
        d["data"] = {"path": cfg.data_path, "format": cfg.data_format}
    return d


# the kind (typed_json.KINDS) of a dataclass field of each annotation
_FIELD_KINDS = {"int": "count", "float": "number", "bool": "flag"}


def _dataclass(cls, node: Node):
    """cls, built from the config object node, which may hold only cls's
    fields, each of the kind its annotation names; cls's range errors name
    node's key path."""
    kinds = {f.name: _FIELD_KINDS[f.type] for f in fields(cls)}
    values = node.only(kinds).read(kinds)
    try:
        return cls(**values)
    except ValueError as exc:
        raise ValueError(f"config key {node.path}: {exc}") from None


def config_from_dict(d) -> ExperimentConfig:
    """The config that config_to_dict wrote. Only the keys present are passed
    on, so every default is its dataclass's; an unknown key, or a value not of
    its key's kind, is an error that names the key."""
    cfg = Node.root(d, "config").only(_CONFIG_KEYS)
    kwargs = cfg.read(
        {"fractions": "numbers", "feature_top_k": "count", "seed": "count",
         "out_dir": "text or null"}
    )
    data = cfg.get("data", "object", {}).only(("synthetic", "path", "format"))
    if "synthetic" in data.obj:
        extra = sorted(data.obj.keys() - {"synthetic"})
        if extra:
            raise ValueError(f"config key data.{extra[0]} cannot be set with data.synthetic")
        kwargs["synthetic"] = _dataclass(SyntheticSpec, data.get("synthetic", "object"))
    elif "path" not in data.obj:
        raise ValueError("config key data must set data.synthetic or data.path")
    for key, value in data.read({"path": "text", "format": "text"}).items():
        kwargs[f"data_{key}"] = value
    base = cfg.get("base", "object", {}).only(("kind", "params"))
    kind = kwargs["base"] = base.get("kind", "text", ExperimentConfig.base)
    if kind not in BASE_PARAMS:
        raise ValueError(f"config key base.kind must be one of {BASE_KINDS}, found {kind!r}")
    if "params" in base.obj:
        params = base.get("params", "object")
        _dataclass(BASE_PARAMS[kind], params)  # checked, then kept as written
        kwargs["base_params"] = dict(params.obj)
    kwargs["tolerance"] = _dataclass(ToleranceConfig, cfg.get("tolerance", "object", {}))
    retrain = {"train": _dataclass(TrainConfig, cfg.get("train", "object", {}))}
    for name, spec in (("encoder", encoder_spec), ("projection", projection_spec)):
        key = f"{name}_widths"
        if key in cfg.obj:
            widths = cfg.get(key, "counts")
            try:
                retrain[name] = spec(widths)
            except ValueError as exc:  # MlpSpec's range checks
                raise ValueError(f"config key {key}: {exc}") from None
    return ExperimentConfig(retrain=RetrainConfig(**retrain), **kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            return config_from_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ValueError(f"config file {path} is not valid JSON: {exc}") from None


def save_config(cfg: ExperimentConfig, path: str | Path) -> None:
    with open(path, "w") as fh:
        json.dump(config_to_dict(cfg), fh, indent=2)
        fh.write("\n")
