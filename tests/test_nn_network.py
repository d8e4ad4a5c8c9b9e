"""Network assembly: specs, seeding, state round-trips, model wrappers."""
import numpy as np
import pytest

from guidedboost.nn.layers import BatchNorm, L2Normalize, Linear, ReLU, Sigmoid
from guidedboost.nn.network import (
    AUXILIARY_WIDTHS,
    DESK_ENCODER_WIDTHS,
    PAPER_ENCODER_WIDTHS,
    EncoderProjectionModel,
    MLP,
    MlpSpec,
    auxiliary_spec,
    encoder_spec,
    head_labels,
    projection_spec,
)


def test_default_architectures():
    assert PAPER_ENCODER_WIDTHS == (2048, 1024, 512, 256, 128)
    assert DESK_ENCODER_WIDTHS == (256, 128, 64, 32)
    assert AUXILIARY_WIDTHS == (64, 32, 16, 8, 2)

    enc = encoder_spec((16, 8))
    assert enc.normalize == ("batch_norm", "batch_norm")
    assert enc.activation == ("relu", "relu")
    assert enc.out_width == 8

    proj = projection_spec((8, 4))
    assert proj.normalize == ("none", "none")
    assert proj.activation == ("relu", "none")  # linear final layer

    aux = auxiliary_spec()
    assert aux.layer_widths == AUXILIARY_WIDTHS
    assert aux.activation[-1] == "sigmoid"
    assert aux.normalize[-1] == "none"


def test_spec_validation():
    with pytest.raises(ValueError):
        MlpSpec((), (), ())
    with pytest.raises(ValueError):
        MlpSpec((4,), ("none", "none"), ("relu",))
    with pytest.raises(ValueError):
        MlpSpec((4,), ("blur",), ("relu",))
    with pytest.raises(ValueError):
        MlpSpec((0,), ("none",), ("relu",))
    with pytest.raises(ValueError):
        MlpSpec((4,), ("none",), ("tanh",))


def test_mlp_layer_sequence():
    mlp = MLP(5, encoder_spec((8, 4)), seed=0)
    kinds = [type(l) for l in mlp.layers]
    assert kinds == [Linear, BatchNorm, ReLU, Linear, BatchNorm, ReLU]
    mlp2 = MLP(5, projection_spec((8, 4)), seed=0)
    assert [type(l) for l in mlp2.layers] == [Linear, ReLU, Linear]
    out = mlp.forward(np.zeros((3, 5)), False)
    assert out.shape == (3, 4)
    with pytest.raises(ValueError):
        mlp.forward(np.zeros(5), False)


def test_mlp_seeding_is_deterministic_and_layer_local():
    a = MLP(4, encoder_spec((8, 4)), seed=9)
    b = MLP(4, encoder_spec((8, 4)), seed=9)
    c = MLP(4, encoder_spec((8, 4)), seed=10)
    for pa, pb in zip(a.parameters(), b.parameters()):
        assert np.array_equal(pa, pb)
    assert not np.array_equal(a.layers[0].W, c.layers[0].W)
    # composite seeds work the same way
    d = MLP(4, encoder_spec((8, 4)), seed=[9])
    assert np.array_equal(a.layers[0].W, d.layers[0].W)


def test_mlp_state_round_trip():
    mlp = MLP(3, auxiliary_spec(), seed=1)
    x = np.random.default_rng(0).normal(size=(4, 3))
    mlp.forward(x, True)  # move the BatchNorm running stats off their init
    before = mlp.forward(x, False).copy()
    stored = mlp.snapshot()

    other = MLP(3, auxiliary_spec(), seed=2)
    assert not np.allclose(other.forward(x, False), before)
    other.load_state_arrays(stored)
    assert np.array_equal(other.forward(x, False), before)

    with pytest.raises(ValueError):
        other.load_state_arrays(stored[:-1])
    with pytest.raises(ValueError):
        other.load_state_arrays([np.zeros((9, 9))] * len(stored))


def test_encoder_projection_model():
    model = EncoderProjectionModel(6, encoder_spec((8, 4)), projection_spec((4, 2)), seed=3)
    assert model.input_width == 6
    assert model.embedding_width == 4
    # one layer sequence: the encoder's, the projection's, the normalisation
    assert [type(l) for l in model.layers] == [
        Linear, BatchNorm, ReLU, Linear, BatchNorm, ReLU, Linear, ReLU, Linear, L2Normalize,
    ]
    assert model.n_encoder_layers == 6
    x = np.random.default_rng(1).normal(size=(5, 6))
    proj = model.forward(x, train=True)
    enc = model.embed(x)
    assert enc.shape == (5, 4)
    assert proj.shape == (5, 2)
    assert np.allclose(np.linalg.norm(proj, axis=1), 1.0)  # projections are unit rows
    # embed is the encoder alone in eval mode: an MLP of the encoder spec,
    # seeded seed + [0], carrying the model's encoder arrays
    encoder = MLP(6, encoder_spec((8, 4)), seed=[3, 0])
    encoder.load_state_arrays(model.state_arrays()[: len(encoder.state_arrays())])
    assert np.array_equal(enc, encoder.forward(x, False))

    # same base seed twice: bit-identical init for encoder and projection
    twin = EncoderProjectionModel(6, encoder_spec((8, 4)), projection_spec((4, 2)), seed=3)
    first_projection = model.n_encoder_layers
    assert np.array_equal(model.layers[0].W, twin.layers[0].W)
    assert np.array_equal(model.layers[first_projection].W, twin.layers[first_projection].W)
    # encoder and projection draw from distinct streams
    assert not np.array_equal(model.layers[0].W[:4, :4], model.layers[first_projection].W)


def test_encoder_projection_state_round_trip():
    model = EncoderProjectionModel(3, encoder_spec((4,)), projection_spec((2,)), seed=5)
    x = np.random.default_rng(2).normal(size=(4, 3))
    model.forward(x, train=True)
    stored = model.snapshot()
    other = EncoderProjectionModel(3, encoder_spec((4,)), projection_spec((2,)), seed=6)
    other.load_state_arrays(stored)
    assert np.array_equal(other.embed(x), model.embed(x))


def test_auxiliary_classifier():
    head = MLP(4, auxiliary_spec(), seed=0)
    assert head.input_width == 4
    x = np.random.default_rng(3).normal(size=(6, 4))
    scores = head.forward(x)
    assert scores.shape == (6, 2)
    assert np.all((scores > 0.0) & (scores < 1.0))  # sigmoid outputs
    preds = head_labels(head, x)
    assert np.array_equal(preds, np.argmax(scores, axis=1))
    assert preds.dtype == np.int64
