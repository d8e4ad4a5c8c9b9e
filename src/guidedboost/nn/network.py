"""MLP assembly: specs, the encoder+projection Model, and the auxiliary head's labels."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .layers import BatchNorm, L2Normalize, Linear, ReLU, Sigmoid

PAPER_ENCODER_WIDTHS = (2048, 1024, 512, 256, 128)
DESK_ENCODER_WIDTHS = (256, 128, 64, 32)
PAPER_PROJECTION_WIDTHS = (64, 32)
DESK_PROJECTION_WIDTHS = (16, 8)
AUXILIARY_WIDTHS = (64, 32, 16, 8, 2)

_NORMS = ("batch_norm", "none")
_ACTS = ("relu", "sigmoid", "none")


@dataclass(frozen=True)
class MlpSpec:
    """Layer-by-layer description: output width, normalization, activation."""

    layer_widths: tuple[int, ...]
    normalize: tuple[str, ...]
    activation: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "layer_widths", tuple(int(w) for w in self.layer_widths))
        object.__setattr__(self, "normalize", tuple(self.normalize))
        object.__setattr__(self, "activation", tuple(self.activation))
        if len(self.layer_widths) < 1:
            raise ValueError("MlpSpec: need at least one layer")
        if any(w < 1 for w in self.layer_widths):
            raise ValueError("MlpSpec: widths must be positive")
        if not (len(self.layer_widths) == len(self.normalize) == len(self.activation)):
            raise ValueError("MlpSpec: widths, normalize and activation must align")
        if any(nm not in _NORMS for nm in self.normalize):
            raise ValueError(f"MlpSpec: normalize entries must be one of {_NORMS}")
        if any(a not in _ACTS for a in self.activation):
            raise ValueError(f"MlpSpec: activation entries must be one of {_ACTS}")

    @property
    def out_width(self) -> int:
        return self.layer_widths[-1]


def encoder_spec(widths=DESK_ENCODER_WIDTHS) -> MlpSpec:
    """Fully connected stack, every layer normalized then ReLU-activated."""
    widths = tuple(widths)
    return MlpSpec(widths, ("batch_norm",) * len(widths), ("relu",) * len(widths))


def projection_spec(widths=DESK_PROJECTION_WIDTHS) -> MlpSpec:
    """Projection head: hidden ReLU layers, linear final layer, no normalization."""
    widths = tuple(widths)
    acts = ("relu",) * (len(widths) - 1) + ("none",)
    return MlpSpec(widths, ("none",) * len(widths), acts)


def auxiliary_spec() -> MlpSpec:
    """Fixed five-layer head ending in two sigmoid units."""
    w = AUXILIARY_WIDTHS
    return MlpSpec(
        w,
        ("batch_norm",) * (len(w) - 1) + ("none",),
        ("relu",) * (len(w) - 1) + ("sigmoid",),
    )


def _seed_list(seed) -> list[int]:
    if isinstance(seed, (int, np.integer)):
        return [int(seed)]
    return [int(s) for s in seed]


@dataclass
class TrainState:
    """Bookkeeping from the last fit: epochs run and the best metric seen."""

    epochs_run: int = 0
    best_metric: float = float("nan")


def _layers(input_width: int, spec: MlpSpec, seed: list[int]) -> list:
    """The layers of spec; layer i's Linear draws from ``seed + [i]``."""
    if input_width < 1:
        raise ValueError("MLP: input width must be positive")
    layers = []
    prev = input_width
    for i, width in enumerate(spec.layer_widths):
        layers.append(Linear(prev, width, np.random.default_rng(seed + [i])))
        if spec.normalize[i] == "batch_norm":
            layers.append(BatchNorm(width))
        if spec.activation[i] == "relu":
            layers.append(ReLU())
        elif spec.activation[i] == "sigmoid":
            layers.append(Sigmoid())
        prev = width
    return layers


def _forward(layers: list, x: np.ndarray, train: bool) -> np.ndarray:
    out = np.asarray(x, dtype=np.float64)
    if out.ndim != 2:
        raise ValueError("MLP.forward: expected a 2-D batch")
    for layer in layers:
        out = layer.forward(out, train)
    return out


class MLP:
    """Sequential network built from an MlpSpec.

    Layer seeds derive from (seed sequence, layer index) so identical specs
    and seeds rebuild identical parameters regardless of surrounding code.
    ``train_state`` records the last fit.
    """

    def __init__(self, input_width: int, spec: MlpSpec, seed):
        self.input_width = input_width
        self.spec = spec
        self.seed = _seed_list(seed)
        self.train_state = TrainState()
        self.layers = _layers(input_width, spec, self.seed)

    def forward(self, x: np.ndarray, train: bool = False) -> np.ndarray:
        return _forward(self.layers, x, train)

    def backward(self, grad: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        """Backpropagate grad; the first Linear skips dx unless input_grad."""
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        return first.backward(grad, input_grad)

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers for p in layer.parameters()]

    def gradients(self) -> list[np.ndarray]:
        return [g for layer in self.layers for g in layer.gradients()]

    def sgd_step(self, lr: float):
        for p, g in zip(self.parameters(), self.gradients()):
            p -= lr * g

    def state_arrays(self) -> list[np.ndarray]:
        """Every array needed to reproduce eval behaviour, in a fixed order."""
        return [a for layer in self.layers for a in layer.state_arrays()]

    def load_state_arrays(self, arrays: list[np.ndarray]):
        own = self.state_arrays()
        if len(own) != len(arrays):
            raise ValueError(
                f"MLP.load_state_arrays: expected {len(own)} arrays, got {len(arrays)}"
            )
        for dst, src in zip(own, arrays):
            src = np.asarray(src, dtype=np.float64)
            if dst.shape != src.shape:
                raise ValueError(
                    f"MLP.load_state_arrays: shape mismatch {dst.shape} vs {src.shape}"
                )
            dst[...] = src

    def snapshot(self) -> list[np.ndarray]:
        return [a.copy() for a in self.state_arrays()]


class EncoderProjectionModel(MLP):
    """A "Model": the encoder's layers (seeded ``seed + [0]``), then the
    projection's (``seed + [1]``), then an L2 normalisation.

    ``forward`` returns the unit-norm projection, which exists only to feed
    the contrastive loss; ``embed`` runs the encoder's layers in eval mode,
    which is what downstream stages consume.
    """

    def __init__(self, input_width: int, enc_spec: MlpSpec, proj_spec: MlpSpec, seed):
        self.input_width = input_width
        self.encoder_spec = enc_spec
        self.projection_spec = proj_spec
        self.seed = _seed_list(seed)
        self.train_state = TrainState()
        encoder = _layers(input_width, enc_spec, self.seed + [0])
        self.n_encoder_layers = len(encoder)
        self.layers = (
            encoder + _layers(enc_spec.out_width, proj_spec, self.seed + [1]) + [L2Normalize()]
        )

    @property
    def embedding_width(self) -> int:
        return self.encoder_spec.out_width

    def embed(self, X: np.ndarray) -> np.ndarray:
        return _forward(self.layers[: self.n_encoder_layers], X, train=False)


def head_labels(head: MLP, X: np.ndarray) -> np.ndarray:
    """The auxiliary head's labels: the argmax of its two eval-mode outputs.

    The head is an MLP built from ``auxiliary_spec()``.
    """
    return np.argmax(head.forward(X), axis=1).astype(np.int64)
