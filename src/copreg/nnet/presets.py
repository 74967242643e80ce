"""Reference architectures: dense feed-forward and time-series convolutional."""

from __future__ import annotations

import numpy as np

from .layers import BatchNorm, Conv1D, Dense, Dropout, Flatten, MaxPool1D
from .network import Network


def _uniform_init(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _dense(rng, in_dim, out_dim, activation, l2=0.0, use_bias=True):
    w = _uniform_init(rng, (out_dim, in_dim), in_dim, out_dim)
    return Dense(w, activation=activation, l2=l2, use_bias=use_bias)


def _conv(rng, in_ch, filters, kernel, l2):
    fan_in = kernel * in_ch
    fan_out = kernel * filters
    w = _uniform_init(rng, (filters, kernel, in_ch), fan_in, fan_out)
    return Conv1D(w, activation="relu", l2=l2)


def build_ffn(p, width=64, dropout_rate=0.5, seed=0, output_bias=False):
    """Two hidden relu layers of ``width`` with dropout, linear scalar output.

    ``output_bias`` stays off for copula use (the output intercept is not
    identified there); the plain regression baseline turns it on.
    """
    if p < 1:
        raise ValueError("input dimension must be positive")
    rng = np.random.default_rng(seed)
    layers = [
        _dense(rng, p, width, "relu"),
        Dropout(dropout_rate),
        _dense(rng, width, width, "relu"),
        Dropout(dropout_rate),
        _dense(rng, width, 1, "linear", use_bias=output_bias),
    ]
    return Network(layers, (p,))


def build_cnn(series_len, kernel_sizes=(31, 10), filter_counts=(31, 7),
              l2=1e-3, dense_width=100, seed=0):
    """Two conv blocks, then a dense hidden layer, linear scalar output.

    Layout: conv(relu, L2) -> batchnorm -> maxpool -> conv(relu, L2) ->
    batchnorm -> flatten -> dense(relu) -> batchnorm -> dense(linear).
    The max-pool halves the series: width = stride = 2.
    Convolutions are unpadded; inputs are the raw series (no normalization).
    """
    if series_len < 1:
        raise ValueError("series length must be positive")
    rng = np.random.default_rng(seed)
    k1, k2 = kernel_sizes
    f1, f2 = filter_counts
    layers = [
        _conv(rng, 1, f1, k1, l2),
        BatchNorm(f1),
        MaxPool1D(),
        _conv(rng, f1, f2, k2, l2),
        BatchNorm(f2),
        Flatten(),
    ]
    # dense input width depends on the conv stack; propagate shapes
    shape = (series_len, 1)
    for layer in layers:
        shape = layer.out_shape(shape)
    layers.append(_dense(rng, shape[0], dense_width, "relu"))
    layers.append(BatchNorm(dense_width))
    layers.append(_dense(rng, dense_width, 1, "linear", use_bias=False))
    return Network(layers, (series_len, 1))
