"""Network engine: forward oracles, finite-difference gradients, training."""

import inspect
import json

import numpy as np
import pytest

from copreg.errors import DivergenceError, DomainError, ShapeError
from copreg.nnet import (
    BatchNorm,
    Conv1D,
    Dense,
    Dropout,
    Flatten,
    MaxPool1D,
    Network,
    TrainConfig,
    build_cnn,
    build_ffn,
    train,
    train_with_history,
)


from helpers import fd_gradient_check


# -- forward oracles ---------------------------------------------------------


def test_identity_linear_layer_returns_input():
    net = Network([Dense(np.eye(2), activation="linear")], (2,))
    np.testing.assert_array_equal(net.forward(np.array([0.3, -0.2])),
                                  np.array([0.3, -0.2]))


def test_relu_clamps_negative_preactivation():
    hidden = Dense(np.array([[1.0, 1.0]]), activation="relu")
    out = Dense(np.array([[2.0]]), activation="linear")
    net = Network([hidden, out], (2,))
    assert net.forward(np.array([-3.0, 1.0]))[0] == 0.0


def test_forward_matches_hand_rolled_matrix_arithmetic():
    # independent oracle: explicit matrix algebra on the same weights
    rng = np.random.default_rng(21)
    w1 = rng.normal(size=(5, 3))
    b1 = rng.normal(size=5)
    w2 = rng.normal(size=(1, 5))
    b2 = rng.normal(size=1)
    net = Network([Dense(w1, b1, activation="relu"),
                   Dense(w2, b2, activation="linear")], (3,))
    x = rng.normal(size=(20, 3))
    expected = np.maximum(x @ w1.T + b1, 0.0) @ w2.T + b2
    got = net.forward(x)
    assert np.max(np.abs(got - expected)) < 1e-12


def test_forward_is_pure_in_inference_mode():
    net = build_cnn(48, kernel_sizes=(7, 5), filter_counts=(4, 3),
                    dense_width=6, seed=5)
    x = np.random.default_rng(0).normal(size=(3, 48))
    a = net.forward(x)
    b = net.forward(x)
    np.testing.assert_array_equal(a, b)


def test_forward_shape_error():
    net = build_ffn(4, seed=0)
    with pytest.raises(ShapeError):
        net.forward(np.zeros((3, 5)))


# -- basis extraction ----------------------------------------------------------


def test_basis_single_relu_unit_by_hand():
    hidden = Dense(np.array([[1.0]]), np.array([0.0]), activation="relu")
    out = Dense(np.array([[1.0]]), activation="linear")
    net = Network([hidden, out], (1,))
    basis = net.extract_basis(np.array([[-1.0], [2.0]]))
    np.testing.assert_array_equal(basis, np.array([[0.0], [2.0]]))


def test_basis_width_for_presets():
    assert build_ffn(14, seed=0).basis_width == 64
    assert build_cnn(275, seed=0).basis_width == 100


def test_basis_rows_equal_instrumented_forward():
    net = build_cnn(40, kernel_sizes=(7, 5), filter_counts=(4, 3),
                    dense_width=9, seed=7)
    x = np.random.default_rng(3).normal(size=(6, 40))
    # instrumentation oracle: run every layer but the head by hand
    out = x[..., None]
    for layer in net.layers[:-1]:
        out = layer.forward(out, training=False)
    np.testing.assert_array_equal(net.extract_basis(x), out)


# -- presets ---------------------------------------------------------------------


def test_ffn_preset_layer_widths():
    net = build_ffn(14, seed=0)
    dense_shapes = [l.weights.shape for l in net.layers if isinstance(l, Dense)]
    assert dense_shapes == [(64, 14), (64, 64), (1, 64)]
    drops = [l for l in net.layers if isinstance(l, Dropout)]
    assert [d.rate for d in drops] == [0.5, 0.5]


def test_cnn_preset_structure_and_shapes():
    net = build_cnn(275, kernel_sizes=(31, 10), filter_counts=(31, 7), seed=0)
    kinds = [type(l).__name__ for l in net.layers]
    assert kinds == ["Conv1D", "BatchNorm", "MaxPool1D", "Conv1D", "BatchNorm",
                     "Flatten", "Dense", "BatchNorm", "Dense"]
    assert net.output_shape == (1,)
    out = net.forward(np.zeros((2, 275)))
    assert out.shape == (2, 1)
    # voles-length series compose under the same per-layer rules
    assert build_cnn(90, seed=0).output_shape == (1,)


def test_cnn_l2_coefficients():
    net = build_cnn(90, seed=0)
    convs = [l for l in net.layers if isinstance(l, Conv1D)]
    assert all(c.l2 == pytest.approx(1e-3) for c in convs)


def test_cnn_rejects_series_shorter_than_kernel():
    with pytest.raises(ShapeError):
        build_cnn(20, kernel_sizes=(31, 10), filter_counts=(4, 3), seed=0)


# -- gradients ------------------------------------------------------------------


def test_gradient_dense_architecture():
    rng = np.random.default_rng(11)
    net = build_ffn(7, width=16, seed=2)
    x = rng.normal(size=(12, 7))
    y = rng.normal(size=12)
    worst = fd_gradient_check(net, x, y, n_probes=100, seed=1, mask_seed=99)
    assert worst < 1e-4


def test_gradient_conv_architecture():
    rng = np.random.default_rng(13)
    net = build_cnn(40, kernel_sizes=(7, 5), filter_counts=(4, 3),
                    dense_width=9, seed=3)
    x = rng.normal(size=(6, 40))
    y = rng.normal(size=6)
    worst = fd_gradient_check(net, x, y, n_probes=100, seed=2)
    assert worst < 1e-4


def test_l2_penalty_shifts_gradient_by_exactly_two_lambda_w():
    rng = np.random.default_rng(17)
    lam = 0.37
    w1 = rng.normal(size=(6, 4))
    w2 = rng.normal(size=(1, 6))
    x = rng.normal(size=(9, 4))
    y = rng.normal(size=9)

    def grads_with(l2):
        net = Network([Dense(w1.copy(), activation="relu", l2=l2),
                       Dense(w2.copy(), activation="linear")], (4,))
        _, g = net.loss_and_grads(x, y)
        return g, net

    g0, net0 = grads_with(0.0)
    g1, _ = grads_with(lam)
    diff = g1 - g0
    expected = np.zeros_like(g0)
    expected[:w1.size] = 2.0 * lam * w1.ravel()
    assert np.max(np.abs(diff - expected)) < 1e-10


# -- batchnorm ---------------------------------------------------------------------


def test_batchnorm_inference_is_affine_and_preserves_linearity():
    rng = np.random.default_rng(23)
    bn = BatchNorm(5)
    bn.running_mean = rng.normal(size=5)
    bn.running_var = rng.uniform(0.5, 2.0, size=5)
    lin = Dense(rng.normal(size=(2, 5)), activation="linear")
    net = Network([bn, lin], (5,))

    def f(v):
        return net.forward(v[None, :])[0]

    x = rng.normal(size=5)
    y = rng.normal(size=5)
    zero = np.zeros(5)
    # superposition up to the affine offset f(0)
    lhs = f(x + y) + f(zero)
    rhs = f(x) + f(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_batchnorm_running_stats_update_only_in_training():
    bn = BatchNorm(3, momentum=0.9)
    x = np.random.default_rng(1).normal(loc=4.0, size=(50, 3))
    before = bn.running_mean.copy()
    bn.forward(x, training=False)
    np.testing.assert_array_equal(bn.running_mean, before)
    bn.forward(x, training=True)
    assert np.all(bn.running_mean != before)


# -- dropout -----------------------------------------------------------------------


def test_dropout_inference_identity_and_training_mask():
    d = Dropout(0.5)
    x = np.ones((4, 10))
    np.testing.assert_array_equal(d.forward(x, training=False), x)
    out = d.forward(x, training=True, rng=np.random.default_rng(0))
    assert set(np.unique(out)) <= {0.0, 2.0}


def test_dropout_requires_rng_in_training():
    with pytest.raises(ValueError):
        Dropout(0.5).forward(np.ones((2, 2)), training=True)


# -- training ----------------------------------------------------------------------


def test_training_reaches_realizable_linear_target():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(60, 3))
    z = x @ np.array([1.5, -0.5, 2.0])
    net = Network([Dense(rng.normal(size=(1, 3)) * 0.1, activation="linear")],
                  (3,))
    cfg = TrainConfig(epochs=800, learning_rate=0.05, patience=200, seed=4)
    net = train(net, x, z, cfg)
    assert net.mse(x, z) < 1e-4


def test_early_stopping_never_worse_than_initialization():
    rng = np.random.default_rng(37)
    x = rng.normal(size=(80, 5))
    z = np.sin(x[:, 0]) + 0.1 * rng.normal(size=80)
    net = build_ffn(5, width=8, dropout_rate=0.2, seed=6)
    _, hist = train_with_history(net, x, z, TrainConfig(epochs=30, seed=5))
    assert hist["best_val_loss"] <= hist["initial_val_loss"]


def test_training_deterministic_given_seed():
    rng = np.random.default_rng(41)
    x = rng.normal(size=(40, 4))
    z = rng.normal(size=40)
    outs = []
    for _ in range(2):
        net = build_ffn(4, width=8, seed=9)
        train(net, x, z, TrainConfig(epochs=15, seed=3))
        outs.append(net.get_weights_vector())
    np.testing.assert_array_equal(outs[0], outs[1])


def test_training_divergence_error_names_epoch():
    rng = np.random.default_rng(43)
    x = rng.normal(size=(30, 3))
    z = rng.normal(size=30) * 1e150
    net = build_ffn(3, width=8, seed=1)
    cfg = TrainConfig(epochs=10, learning_rate=1e200, seed=0)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError, match="epoch"):
        train(net, x, z, cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)
    with pytest.raises(ValueError):
        TrainConfig(val_fraction=1.0)


def test_train_config_rejects_a_bool_learning_rate():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=True)


# -- serialization --------------------------------------------------------------------


def test_network_json_round_trip_bitwise():
    net = build_cnn(40, kernel_sizes=(7, 5), filter_counts=(4, 3),
                    dense_width=9, seed=8)
    x = np.random.default_rng(2).normal(size=(5, 40))
    net.forward(x[..., None], training=True,
                rng=np.random.default_rng(0))  # move running stats off init
    text = net.to_json()
    clone = Network.from_json(text)
    np.testing.assert_array_equal(clone.forward(x), net.forward(x))
    assert clone.to_json() == text


@pytest.mark.parametrize("name,value", [
    ("running_var", -1.0), ("running_var", np.nan), ("running_mean", np.inf),
    ("gamma", np.nan), ("weights", np.nan), ("bias", -np.inf)])
def test_network_json_with_a_bad_number_is_rejected(name, value):
    net = build_cnn(40, kernel_sizes=(7, 5), filter_counts=(4, 3),
                    dense_width=9, seed=8)
    doc = json.loads(net.to_json())
    layer = next(fields for fields in doc["layers"] if name in fields)
    target = layer[name]  # a vector, or the weights' nested lists
    while isinstance(target[0], list):
        target = target[0]
    target[0] = value
    with pytest.raises(DomainError):
        Network.from_json(json.dumps(doc))


# -- layer format ---------------------------------------------------------------------


def _layer_classes(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _layer_classes(sub)


def test_every_layer_kind_round_trips_through_its_dict():
    import copreg.nnet.layers as layers

    rng = np.random.default_rng(19)
    moved = BatchNorm(3, momentum=0.5)
    moved.forward(rng.normal(loc=2.0, size=(8, 3)), training=True)
    assert np.all(moved.running_mean != 0.0)
    examples = {
        "dense": Dense(rng.normal(size=(2, 3)), activation="relu", l2=0.25,
                       use_bias=False),
        "conv1d": Conv1D(rng.normal(size=(2, 3, 1)), rng.normal(size=2),
                         activation="relu", l2=0.5),
        "maxpool1d": MaxPool1D(),
        "batchnorm": moved,
        "dropout": Dropout(0.3),
        "flatten": Flatten(),
    }
    assert set(examples) == set(layers.LAYERS)
    for kind, layer in examples.items():
        fields = layer.to_dict()
        assert fields.pop("kind") == kind
        assert set(fields) == set(inspect.signature(type(layer)).parameters)
        clone = layers.LAYERS[kind](**fields)
        assert type(clone) is type(layer)
        assert clone.to_dict() == layer.to_dict(), kind
    assert examples["dense"].param_names_active == ("weights",)

    # no layer can be saved without a loader: every class that no other
    # layer extends is registered under its kind
    own = {cls for cls in _layer_classes(layers.Layer)
           if cls.__module__ == layers.__name__}
    leaves = {cls for cls in own if not cls.__subclasses__()}
    assert leaves == set(layers.LAYERS.values())
    assert all(layers.LAYERS[cls.kind] is cls for cls in leaves)


def test_bad_layer_entries_and_overlapping_pool_are_rejected():
    import json

    text = build_cnn(40, kernel_sizes=(7, 5), filter_counts=(4, 3),
                     dense_width=9, seed=8).to_json()
    doc = json.loads(text)
    doc["layers"][2]["kind"] = "lstm"
    with pytest.raises(ShapeError, match="lstm"):
        Network.from_json(json.dumps(doc))
    # a missing field must not fall back to a constructor default
    doc = json.loads(text)
    del doc["layers"][1]["running_mean"]
    with pytest.raises(ShapeError, match="running_mean"):
        Network.from_json(json.dumps(doc))
    doc = json.loads(text)
    doc["layers"][0]["padding"] = "same"
    with pytest.raises(ShapeError, match="padding"):
        Network.from_json(json.dumps(doc))
    with pytest.raises(ValueError):
        MaxPool1D(3, 2)


@pytest.mark.parametrize("kind", ["ffn", "cnn"])
def test_trained_network_keeps_no_activations(kind):
    # each layer held the last batch's arrays after training: 10.6 MB for a
    # small blowfly CNN fitted on 216 series of length 100
    rng = np.random.default_rng(43)
    if kind == "ffn":
        x = rng.normal(size=(40, 4))
        net = build_ffn(4, width=8, seed=9)
    else:
        x = rng.poisson(5.0, size=(40, 30)).astype(float)
        net = build_cnn(30, kernel_sizes=(5, 2), filter_counts=(3, 2),
                        dense_width=6, seed=9)
    train(net, x, rng.normal(size=40),
          TrainConfig(epochs=3, batch_size=16, seed=3))
    assert [layer._cache for layer in net.layers] == [None] * len(net.layers)
