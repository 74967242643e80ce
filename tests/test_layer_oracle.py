"""Layer passes against the formulas they replaced, bit for bit.

Each ``Ref*`` class keeps a layer's previous formula: argmax with
``take_along_axis``/``put_along_axis`` pooling, ``x.mean``/``x.var`` batch
normalization, ``sliding_window_view`` conv columns with the bias broadcast
first, and the float-mask activation gradient.  The library's layers compare
strided halves, centre once, build the window view directly and multiply by a
boolean mask; forward outputs, input gradients, parameter gradients and
running statistics must equal the references' bytes.  ``Network`` asks its
first layer for no input gradient; its loss and gradients must still equal a
loop that asks every layer for one.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copreg.errors import DivergenceError
from copreg.nnet import (
    BatchNorm,
    Conv1D,
    Dense,
    Flatten,
    MaxPool1D,
    Network,
    TrainConfig,
    build_cnn,
    build_ffn,
    train,
)
from copreg.nnet.layers import LAYERS

# -- references: the replaced formulas -----------------------------------------------


def ref_activation_grad(z, activation):
    if activation == "relu":
        return (z > 0.0).astype(float)
    return np.ones_like(z)


def dense_backward(layer, grad_out):
    x, z = layer._cache
    dz = grad_out * ref_activation_grad(z, layer.activation)
    layer.grads["weights"] = dz.T @ x + 2.0 * layer.l2 * layer.weights
    if layer.use_bias:
        layer.grads["bias"] = dz.sum(axis=0)
    return dz @ layer.weights


def conv1d_forward(layer, x, training=False, rng=None):
    filters, kernel, in_ch = layer.weights.shape
    lo = x.shape[1] - kernel + 1
    if in_ch == 1:
        cols = np.lib.stride_tricks.sliding_window_view(
            x[:, :, 0], kernel, axis=1).reshape(-1, kernel)
        wmat = layer.weights[:, :, 0]
        z = (cols @ wmat.T + layer.bias).reshape(x.shape[0], lo, filters)
    else:
        cols = None
        z = np.broadcast_to(layer.bias, (x.shape[0], lo, filters)).copy()
        for k in range(kernel):
            z += x[:, k:k + lo, :] @ layer.weights[:, k, :].T
    if training:
        layer._cache = (x, cols, z)
    return np.maximum(z, 0.0) if layer.activation == "relu" else z


def conv1d_backward(layer, grad_out):
    x, cols, z = layer._cache
    filters, kernel, in_ch = layer.weights.shape
    lo = z.shape[1]
    dz = grad_out * ref_activation_grad(z, layer.activation)
    dx = np.zeros(x.shape)
    if in_ch == 1:
        dz2 = dz.reshape(-1, filters)
        dw = (dz2.T @ cols)[:, :, None]
        dcols = (dz2 @ layer.weights[:, :, 0]).reshape(
            x.shape[0], lo, kernel)
        for k in range(kernel):
            dx[:, k:k + lo, 0] += dcols[:, :, k]
    else:
        dw = np.empty_like(layer.weights)
        for k in range(kernel):
            x_k = x[:, k:k + lo, :]
            dw[:, k, :] = np.matmul(
                x_k.transpose(0, 2, 1), dz).sum(axis=0).T
            dx[:, k:k + lo, :] += dz @ layer.weights[:, k, :]
    layer.grads["weights"] = dw + 2.0 * layer.l2 * layer.weights
    layer.grads["bias"] = dz.sum(axis=(0, 1))
    return dx


def maxpool1d_forward(layer, x, training=False, rng=None):
    n, length, channels = x.shape
    lo = length // layer.width
    blocks = x[:, :lo * layer.width, :].reshape(n, lo, layer.width, channels)
    idx = blocks.argmax(axis=2)
    out = np.take_along_axis(blocks, idx[:, :, None, :], axis=2)[:, :, 0, :]
    if training:
        layer._cache = (idx, x.shape)
    return out


def maxpool1d_backward(layer, grad_out):
    idx, x_shape = layer._cache
    n, lo, channels = idx.shape
    dblocks = np.zeros((n, lo, layer.width, channels))
    np.put_along_axis(dblocks, idx[:, :, None, :],
                      grad_out[:, :, None, :], axis=2)
    dx = np.zeros(x_shape)
    dx[:, :lo * layer.width, :] = dblocks.reshape(n, -1, channels)
    return dx


def batchnorm_forward(layer, x, training=False, rng=None):
    axes = tuple(range(x.ndim - 1))
    if training:
        mu = x.mean(axis=axes)
        var = x.var(axis=axes)
        inv_std = 1.0 / np.sqrt(var + layer.eps)
        xhat = (x - mu) * inv_std
        layer.running_mean = (layer.momentum * layer.running_mean
                             + (1.0 - layer.momentum) * mu)
        layer.running_var = (layer.momentum * layer.running_var
                            + (1.0 - layer.momentum) * var)
        layer._cache = (xhat, inv_std, axes)
    else:
        inv_std = 1.0 / np.sqrt(layer.running_var + layer.eps)
        xhat = (x - layer.running_mean) * inv_std
    return layer.gamma * xhat + layer.beta


def batchnorm_backward(layer, grad_out):
    xhat, inv_std, axes = layer._cache
    m = xhat.size // xhat.shape[-1]
    layer.grads["gamma"] = (grad_out * xhat).sum(axis=axes)
    layer.grads["beta"] = grad_out.sum(axis=axes)
    dxhat = grad_out * layer.gamma
    term = (m * dxhat - dxhat.sum(axis=axes, keepdims=True)
            - xhat * (dxhat * xhat).sum(axis=axes, keepdims=True))
    return inv_std / m * term


#: the replaced passes by layer kind; the other passes did not change
REFERENCES = {
    "dense": {"backward": dense_backward},
    "conv1d": {"forward": conv1d_forward, "backward": conv1d_backward},
    "maxpool1d": {"forward": maxpool1d_forward,
                  "backward": maxpool1d_backward},
    "batchnorm": {"forward": batchnorm_forward,
                  "backward": batchnorm_backward},
}


def reference_twin(layer):
    """A copy of the layer, rebuilt from its serialized fields, whose passes
    are the replaced formulas."""
    fields = layer.to_dict()
    kind = fields.pop("kind")
    twin = LAYERS[kind](**fields)
    for name, func in REFERENCES.get(kind, {}).items():
        setattr(twin, name, types.MethodType(func, twin))
    return twin


def reference_loss_and_grads(net, layers, x, y, rng):
    """``Network.loss_and_grads`` of ``net`` run on ``layers``, its reference
    twins, asking every layer for its input gradient."""
    out, _ = net._as_batch(x)
    n = out.shape[0]
    y = np.asarray(y, dtype=float).reshape(n, -1)
    for layer in layers:
        out = layer.forward(out, training=True, rng=rng)
    resid = out - y
    loss = float(np.sum(resid * resid)) / n
    loss += sum(layer.l2_penalty() for layer in layers)
    grad = 2.0 * resid / n
    for layer in reversed(layers):
        grad = layer.backward(grad)
    grads = np.concatenate([layer.grads[name].ravel() for layer in layers
                            for name in layer.param_names_active])
    return loss, grads


# -- helpers ---------------------------------------------------------------------------


def assert_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def both_passes(layer, x, grad_out):
    """Forward, input gradient and parameter gradients of ``layer`` and of
    its reference twin, on the same input and upstream gradient."""
    twin = reference_twin(layer)
    results = []
    for each in (layer, twin):
        out = each.forward(x.copy(), training=True)
        dx = each.backward(grad_out.copy())
        results.append((out, dx, each))
    return results


def assert_same_passes(layer, x, grad_out):
    (out, dx, got), (ref_out, ref_dx, ref) = both_passes(layer, x, grad_out)
    assert_bits(out, ref_out)
    assert_bits(dx, ref_dx)
    for name in got.param_names_active:
        assert_bits(got.grads[name], ref.grads[name])
    for name in got.state_names:
        assert_bits(getattr(got, name), getattr(ref, name))


#: values that make ties, signed zeros and both signs of activation
TIE_VALUES = (-1.5, -1.0, -0.0, 0.0, 0.5, 1.0, 2.0)


@st.composite
def series(draw, min_len):
    """A (batch, length, channels) float array, from a small value set or
    from normal draws, so ties and +-0.0 are common; and its generator."""
    n = draw(st.integers(1, 5))
    length = draw(st.integers(min_len, min_len + 13))
    c = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    gen = np.random.default_rng(seed)
    if draw(st.booleans()):
        return gen.choice(TIE_VALUES, size=(n, length, c)), gen
    return gen.normal(size=(n, length, c)), gen


# -- layer by layer --------------------------------------------------------------------


@settings(max_examples=60)
@given(data=series(min_len=2), width=st.sampled_from([2, 2, 3]))
def test_maxpool_equals_argmax_reference(data, width):
    x, gen = data
    if x.shape[1] < width:
        x = np.concatenate([x] * width, axis=1)
    lo = x.shape[1] // width
    grad_out = gen.choice(TIE_VALUES, size=(x.shape[0], lo, x.shape[2]))
    assert_same_passes(MaxPool1D(width, width), x, grad_out)


def test_maxpool_ties_and_signed_zeros_go_to_the_first_element():
    x = np.array([1.0, 1.0, -0.0, 0.0, 0.0, -0.0, 2.0, 3.0, 5.0])[None, :, None]
    pool = MaxPool1D()
    out = pool.forward(x, training=True)
    assert_bits(out[0, :, 0], np.array([1.0, -0.0, 0.0, 3.0]))
    dx = pool.backward(np.array([[[1.0], [2.0], [3.0], [4.0]]]))
    assert_bits(dx[0, :, 0],
                np.array([1.0, 0.0, 2.0, 0.0, 3.0, 0.0, 0.0, 4.0, 0.0]))
    assert_same_passes(MaxPool1D(), x, -np.ones((1, 4, 1)))


@settings(max_examples=60)
@given(data=series(min_len=1), momentum=st.sampled_from([0.0, 0.5, 0.99]),
       flat=st.booleans())
def test_batchnorm_equals_mean_var_reference(data, momentum, flat):
    x, gen = data
    if flat:
        x = x.reshape(-1, x.shape[-1])  # a dense layer's (N, units) input
    layer = BatchNorm(x.shape[-1], momentum=momentum,
                      gamma=gen.normal(size=x.shape[-1]),
                      beta=gen.normal(size=x.shape[-1]),
                      running_mean=gen.normal(size=x.shape[-1]),
                      running_var=gen.uniform(0.5, 2.0, size=x.shape[-1]))
    assert_same_passes(layer, x, gen.normal(size=x.shape))
    # inference mode reads the running statistics
    assert_bits(layer.forward(x), reference_twin(layer).forward(x))


@settings(max_examples=60)
@given(data=series(min_len=1), kernel=st.integers(1, 6),
       filters=st.integers(1, 4), relu=st.booleans(), l2=st.booleans())
def test_conv1d_equals_window_reference(data, kernel, filters, relu, l2):
    x, gen = data
    if x.shape[1] < kernel:
        x = np.concatenate([x] * kernel, axis=1)
    c = x.shape[2]
    layer = Conv1D(gen.choice(TIE_VALUES, size=(filters, kernel, c)),
                   gen.normal(size=filters),
                   activation="relu" if relu else "linear",
                   l2=0.3 if l2 else 0.0)
    lo = x.shape[1] - kernel + 1
    assert_same_passes(layer, x, gen.choice(TIE_VALUES,
                                            size=(x.shape[0], lo, filters)))


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       p=st.integers(1, 5), units=st.integers(1, 4), relu=st.booleans(),
       use_bias=st.booleans())
def test_dense_equals_float_mask_reference(seed, n, p, units, relu,
                                           use_bias):
    gen = np.random.default_rng(seed)
    layer = Dense(gen.choice(TIE_VALUES, size=(units, p)),
                  gen.normal(size=units),
                  activation="relu" if relu else "linear", l2=0.2,
                  use_bias=use_bias)
    assert_same_passes(layer, gen.choice(TIE_VALUES, size=(n, p)),
                       gen.normal(size=(n, units)))


# -- whole networks ----------------------------------------------------------------------


def assert_same_step(net, x, y, seed):
    twins = [reference_twin(layer) for layer in net.layers]
    loss, grads = net.loss_and_grads(x, y, rng=np.random.default_rng(seed))
    ref_loss, ref_grads = reference_loss_and_grads(
        net, twins, x, y, np.random.default_rng(seed))
    assert loss == ref_loss
    assert_bits(grads, ref_grads)
    for layer, twin in zip(net.layers, twins):
        for name in layer.state_names:
            assert_bits(getattr(layer, name), getattr(twin, name))


@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), length=st.integers(22, 33),
       batch=st.integers(1, 6), ties=st.booleans())
def test_cnn_step_equals_every_layer_reference(seed, length, batch, ties):
    gen = np.random.default_rng(seed)
    net = build_cnn(length, kernel_sizes=(5, 3), filter_counts=(4, 3),
                    dense_width=6, seed=seed % 1000)
    if ties:
        x = gen.poisson(1.0, size=(batch, length)).astype(float)
    else:
        x = gen.normal(size=(batch, length))
    assert_same_step(net, x, gen.normal(size=batch), seed)


def test_cnn_step_equals_reference_at_paper_shape():
    gen = np.random.default_rng(5)
    net = build_cnn(275, kernel_sizes=(31, 10), filter_counts=(31, 7),
                    dense_width=100, seed=5)
    x = gen.poisson(30.0, size=(16, 275)).astype(float)
    assert_same_step(net, x, gen.normal(size=16), 5)


@settings(max_examples=15)
@given(seed=st.integers(0, 2**32 - 1), p=st.integers(1, 8),
       batch=st.integers(1, 8))
def test_ffn_step_equals_every_layer_reference(seed, p, batch):
    gen = np.random.default_rng(seed)
    net = build_ffn(p, width=8, seed=seed % 1000, output_bias=seed % 2 == 0)
    assert_same_step(net, gen.normal(size=(batch, p)), gen.normal(size=batch),
                     seed)


# -- the first layer -----------------------------------------------------------------------


def record_backward(layer, returned):
    real = layer.backward

    def spy(grad_out, **kwargs):
        result = real(grad_out, **kwargs)
        returned.append(result)
        return result

    layer.backward = spy


def test_first_layer_builds_no_input_gradient(monkeypatch):
    gen = np.random.default_rng(7)
    x = gen.normal(size=(4, 30))
    nets = {
        "cnn": build_cnn(30, kernel_sizes=(5, 3), filter_counts=(4, 3),
                         dense_width=6, seed=7),
        "ffn": build_ffn(30, width=8, seed=7),
        # a single-channel Conv1D second in line still owes its input a
        # gradient
        "conv-conv": Network([Conv1D(gen.normal(size=(1, 3, 1))),
                              Conv1D(gen.normal(size=(2, 3, 1))),
                              Flatten(), Dense(gen.normal(size=(1, 52)))],
                             (30, 1)),
    }
    input_shapes = {(4, 30), (4, 30, 1)}
    built = []
    for name in ("zeros", "empty", "zeros_like", "empty_like"):
        real = getattr(np, name)

        def tracked(*args, _real=real, **kwargs):
            out = _real(*args, **kwargs)
            built.append(out.shape)
            return out

        monkeypatch.setattr(np, name, tracked)
    for kind, net in nets.items():
        returned = {i: [] for i in range(len(net.layers))}
        for i, layer in enumerate(net.layers):
            record_backward(layer, returned[i])
        built.clear()
        net.loss_and_grads(x, gen.normal(size=4),
                           rng=np.random.default_rng(0))
        assert returned[0] == [None], kind
        assert not input_shapes & set(built), kind
        shape = net.input_shape
        for i, layer in enumerate(net.layers):
            if i > 0 and isinstance(layer, Conv1D):
                (dx,) = returned[i]
                assert dx.shape == (4, *shape), kind
            shape = layer.out_shape(shape)


@pytest.mark.parametrize("kind", ["dense", "conv1d", "batchnorm"])
def test_first_layer_still_fills_its_parameter_gradients(kind):
    gen = np.random.default_rng(11)
    x = gen.normal(size=(3, 12, 2))
    layer = {"dense": Dense(gen.normal(size=(2, 4)), gen.normal(size=2),
                            activation="relu"),
             "conv1d": Conv1D(gen.normal(size=(3, 4, 2)), gen.normal(size=3),
                              activation="relu"),
             "batchnorm": BatchNorm(2)}[kind]
    if kind == "dense":
        x = x[:, 0, :][:, [0, 1, 0, 1]]
    twin = reference_twin(layer)
    grad_out = gen.normal(size=layer.forward(x, training=True).shape)
    twin.forward(x, training=True)
    assert layer.backward(grad_out, input_grad=False) is None
    twin.backward(grad_out)
    for name in layer.param_names_active:
        assert_bits(layer.grads[name], twin.grads[name])


# -- non-finite weights -------------------------------------------------------------------


def small_cnn():
    return build_cnn(30, kernel_sizes=(5, 3), filter_counts=(4, 3),
                     dense_width=6, seed=3)


def param_offsets(net):
    """``{"<index>.<kind>.<name>": offset in the weight vector}``."""
    offsets, pos = {}, 0
    for layer, name in net._param_items():
        offsets[f"{net.layers.index(layer)}.{layer.kind}.{name}"] = pos
        pos += getattr(layer, name).size
    return offsets


@pytest.mark.parametrize("param", list(param_offsets(small_cnn())))
def test_nan_weight_still_ends_training_in_divergence_error(param):
    # the width-2 pool compares halves, so a NaN second element loses to
    # the first rather than winning as under argmax; a NaN weight must
    # still surface as a non-finite loss
    gen = np.random.default_rng(41)
    net = small_cnn()
    vec = net.get_weights_vector()
    vec[param_offsets(net)[param]] = np.nan
    net.set_weights_vector(vec)
    x = gen.poisson(4.0, size=(40, 30)).astype(float)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError,
                                                   match="epoch 0"):
        train(net, x, gen.normal(size=40),
              TrainConfig(epochs=3, batch_size=16, seed=0))
