"""Layer primitives with forward/backward passes on float64 numpy arrays.

Sample shapes exclude the batch axis: dense layers take ``(p,)`` vectors,
convolutional layers ``(length, channels)`` series.  Each layer caches what
its backward pass needs during ``forward(training=True)``; a layer instance
is therefore not reentrant while a gradient step is in flight.
``Network.loss_and_grads`` drops each cache once that layer's backward pass
is done, so a trained network holds no batch's activations.

``backward(grad_out, input_grad=True)`` returns the gradient with respect to
the layer's input.  The network's input is data, whose gradient nothing
reads, so ``Network`` passes ``input_grad=False`` to its first layer: that
layer fills in its parameter gradients and returns ``None``, building no
input-shaped array.

``MaxPool1D`` of width 2 compares the two strided halves of each block and
keeps the mask ``second > first``: a tie goes to the first element, as with
``argmax``, and a NaN second element loses to the first (``argmax`` would
pick it).
"""

from __future__ import annotations

import numpy as np

from ..errors import DomainError, ShapeError, checked_float, checked_int

ACTIVATIONS = ("relu", "linear")


def _apply_activation(z, activation):
    if activation == "relu":
        return np.maximum(z, 0.0)
    return z


def _activation_backward(grad_out, z, activation):
    """``grad_out`` times the activation's derivative at ``z``."""
    if activation == "relu":
        return grad_out * (z > 0.0)
    return grad_out


class Layer:
    """Common interface; concrete layers override the hooks they need.

    A layer's serialized form is :meth:`to_dict`: its ``kind`` and exactly
    its constructor's keyword arguments, so ``LAYERS[kind](**fields)``
    rebuilds it.
    """

    #: serialized name, the layer's key in :data:`LAYERS`
    kind = None
    #: trainable parameter names, in flattening order
    param_names: tuple = ()
    #: non-trainable arrays that must survive serialization
    state_names: tuple = ()

    def __init__(self):
        self.grads = {}
        self._cache = None

    @property
    def param_names_active(self):
        """The parameters that enter the flat weight and gradient vectors."""
        return self.param_names

    def out_shape(self, in_shape):
        raise NotImplementedError

    def forward(self, x, training=False, rng=None):
        raise NotImplementedError

    def backward(self, grad_out, input_grad=True):
        raise NotImplementedError

    def l2_penalty(self):
        return 0.0

    def config(self):
        """Constructor keywords other than the parameter and state arrays."""
        return {}

    def to_dict(self):
        fields = {"kind": self.kind, **self.config()}
        for name in self.param_names + self.state_names:
            fields[name] = getattr(self, name).tolist()
        return fields


class _Affine(Layer):
    """Weights with one bias per output unit, an activation and an L2
    penalty on the weights: what Dense and Conv1D share."""

    param_names = ("weights", "bias")

    def __init__(self, weights, bias, activation, l2, axes):
        super().__init__()
        self.weights = np.asarray(weights, dtype=float)
        if self.weights.ndim != len(axes):
            raise ShapeError(f"{self.kind} weights must be ({', '.join(axes)})")
        if bias is None:
            bias = np.zeros(self.weights.shape[0])
        self.bias = np.asarray(bias, dtype=float)
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeError(f"{self.kind} bias needs one entry per output unit")
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        self.activation = activation
        self.l2 = float(l2)

    def l2_penalty(self):
        return self.l2 * float(np.sum(self.weights * self.weights))

    def config(self):
        return {"activation": self.activation, "l2": self.l2}


class Dense(_Affine):
    kind = "dense"

    def __init__(self, weights, bias=None, activation="linear", l2=0.0,
                 use_bias=True):
        super().__init__(weights, bias, activation, l2, ("out_dim", "in_dim"))
        self.use_bias = bool(use_bias)

    @property
    def param_names_active(self):
        return self.param_names if self.use_bias else ("weights",)

    def out_shape(self, in_shape):
        if len(in_shape) != 1:
            raise ShapeError(f"dense layer expects a vector input, got {in_shape}")
        if in_shape[0] != self.weights.shape[1]:
            raise ShapeError(
                f"dense in_dim {self.weights.shape[1]} != incoming {in_shape[0]}")
        return (self.weights.shape[0],)

    def forward(self, x, training=False, rng=None):
        z = x @ self.weights.T
        if self.use_bias:
            z += self.bias
        if training:
            self._cache = (x, z)
        return _apply_activation(z, self.activation)

    def backward(self, grad_out, input_grad=True):
        x, z = self._cache
        dz = _activation_backward(grad_out, z, self.activation)
        self.grads["weights"] = dz.T @ x + 2.0 * self.l2 * self.weights
        if self.use_bias:
            self.grads["bias"] = dz.sum(axis=0)
        return dz @ self.weights if input_grad else None

    def config(self):
        return {**super().config(), "use_bias": self.use_bias}


class Conv1D(_Affine):
    """Valid (unpadded) 1-D convolution; filters shaped (F, K, C)."""

    kind = "conv1d"

    def __init__(self, weights, bias=None, activation="linear", l2=0.0):
        super().__init__(weights, bias, activation, l2,
                         ("filters", "kernel", "channels"))

    def out_shape(self, in_shape):
        if len(in_shape) != 2:
            raise ShapeError(f"conv1d expects (length, channels), got {in_shape}")
        length, channels = in_shape
        filters, kernel, in_ch = self.weights.shape
        if channels != in_ch:
            raise ShapeError(f"conv1d channels {in_ch} != incoming {channels}")
        out_len = length - kernel + 1
        if out_len < 1:
            raise ShapeError(
                f"series length {length} shorter than kernel {kernel}")
        return (out_len, filters)

    def forward(self, x, training=False, rng=None):
        filters, kernel, in_ch = self.weights.shape
        lo = x.shape[1] - kernel + 1
        if in_ch == 1:
            # single channel: one GEMM on the (N*Lo, K) window matrix
            step = x.strides[1]
            cols = np.lib.stride_tricks.as_strided(
                x, (x.shape[0], lo, kernel),
                (x.strides[0], step, step)).reshape(-1, kernel)
            z = cols @ self.weights[:, :, 0].T
            z += self.bias
            z = z.reshape(x.shape[0], lo, filters)
            cache_cols = cols
        else:
            # multi channel: kernel-shifted GEMMs, BLAS reads the strided
            # slices in place (an im2col copy would dominate here).  The bias
            # joins right after the first product: b + p0 == p0 + b.
            z = x[:, :lo, :] @ self.weights[:, 0, :].T
            z += self.bias
            for k in range(1, kernel):
                z += x[:, k:k + lo, :] @ self.weights[:, k, :].T
            cache_cols = None
        if training:
            self._cache = (x, cache_cols, z)
        return _apply_activation(z, self.activation)

    def backward(self, grad_out, input_grad=True):
        x, cols, z = self._cache
        filters, kernel, in_ch = self.weights.shape
        lo = z.shape[1]
        dz = _activation_backward(grad_out, z, self.activation)
        if in_ch == 1:
            dw = (dz.reshape(-1, filters).T @ cols)[:, :, None]
        else:
            dw = np.empty_like(self.weights)
            for k in range(kernel):
                x_k = x[:, k:k + lo, :]
                # (N, C, Lo) @ (N, Lo, F) summed over the batch
                dw[:, k, :] = np.matmul(
                    x_k.transpose(0, 2, 1), dz).sum(axis=0).T
        self.grads["weights"] = dw + 2.0 * self.l2 * self.weights
        self.grads["bias"] = dz.sum(axis=(0, 1))
        if not input_grad:
            return None
        dx = np.zeros(x.shape)
        if in_ch == 1:
            dcols = (dz.reshape(-1, filters) @ self.weights[:, :, 0]).reshape(
                x.shape[0], lo, kernel)
            for k in range(kernel):
                dx[:, k:k + lo, 0] += dcols[:, :, k]
        else:
            for k in range(kernel):
                dx[:, k:k + lo, :] += dz @ self.weights[:, k, :]
        return dx


class MaxPool1D(Layer):
    """Max over non-overlapping windows of ``width`` samples.

    ``stride`` must equal ``width``; both stay in the serialized form.
    """

    kind = "maxpool1d"

    def __init__(self, width=2, stride=2):
        super().__init__()
        self.width = checked_int("pool width", width, 1, ShapeError)
        if stride != self.width:
            raise ValueError("pool stride must equal its width")
        self.stride = self.width

    def out_shape(self, in_shape):
        if len(in_shape) != 2:
            raise ShapeError(f"maxpool1d expects (length, channels), got {in_shape}")
        length, channels = in_shape
        if length < self.width:
            raise ShapeError(f"series length {length} shorter than pool {self.width}")
        return (length // self.width, channels)

    def forward(self, x, training=False, rng=None):
        n, length, channels = x.shape
        lo = length // self.width
        if self.width == 2:
            first, second = x[:, 0:2 * lo:2, :], x[:, 1:2 * lo:2, :]
            take_second = second > first
            if training:
                self._cache = (take_second, x.shape)
            return np.where(take_second, second, first)
        blocks = x[:, :lo * self.width, :].reshape(n, lo, self.width, channels)
        idx = blocks.argmax(axis=2)
        out = np.take_along_axis(blocks, idx[:, :, None, :], axis=2)[:, :, 0, :]
        if training:
            self._cache = (idx, x.shape)
        return out

    def backward(self, grad_out, input_grad=True):
        if not input_grad:
            return None
        picked, x_shape = self._cache
        n, lo, channels = picked.shape
        if self.width == 2:
            dx = np.empty(x_shape)
            dx[:, 0:2 * lo:2, :] = np.where(picked, 0.0, grad_out)
            dx[:, 1:2 * lo:2, :] = np.where(picked, grad_out, 0.0)
            dx[:, 2 * lo:, :] = 0.0
            return dx
        dx = np.zeros(x_shape)
        dblocks = np.zeros((n, lo, self.width, channels))
        np.put_along_axis(dblocks, picked[:, :, None, :],
                          grad_out[:, :, None, :], axis=2)
        dx[:, :lo * self.width, :] = dblocks.reshape(n, lo * self.width, channels)
        return dx

    def config(self):
        return {"width": self.width, "stride": self.stride}


class BatchNorm(Layer):
    """Normalization over all axes but the last (channels)."""

    kind = "batchnorm"
    param_names = ("gamma", "beta")
    state_names = ("running_mean", "running_var")

    def __init__(self, channels, momentum=0.99, eps=1e-5, gamma=None, beta=None,
                 running_mean=None, running_var=None):
        super().__init__()
        self.channels = checked_int("batchnorm channels", channels, 1,
                                    ShapeError)
        self.momentum = float(momentum)
        if not 0.0 <= self.momentum <= 1.0:
            raise DomainError("batchnorm momentum must lie in [0, 1], "
                              f"got {momentum!r}")
        self.eps = checked_float("batchnorm eps", eps, 0.0, error=DomainError)
        self.gamma = np.ones(channels) if gamma is None else np.asarray(gamma, float)
        self.beta = np.zeros(channels) if beta is None else np.asarray(beta, float)
        self.running_mean = (np.zeros(channels) if running_mean is None
                             else np.asarray(running_mean, float))
        self.running_var = (np.ones(channels) if running_var is None
                            else np.asarray(running_var, float))
        for name in self.param_names + self.state_names:
            if getattr(self, name).shape != (self.channels,):
                raise ShapeError(f"batchnorm {name} needs one entry per "
                                 f"channel ({self.channels})")

    def out_shape(self, in_shape):
        if in_shape[-1] != self.channels:
            raise ShapeError(
                f"batchnorm channels {self.channels} != incoming {in_shape[-1]}")
        return in_shape

    def forward(self, x, training=False, rng=None):
        axes = tuple(range(x.ndim - 1))
        if training:
            # one centred pass: what x.mean and x.var compute, bit for bit
            m = x.size // x.shape[-1]
            mu = np.add.reduce(x, axis=axes) / m
            xhat = x - mu
            out = xhat * xhat
            var = np.add.reduce(out, axis=axes) / m
            inv_std = 1.0 / np.sqrt(var + self.eps)
            xhat *= inv_std
            self.running_mean = (self.momentum * self.running_mean
                                 + (1.0 - self.momentum) * mu)
            self.running_var = (self.momentum * self.running_var
                                + (1.0 - self.momentum) * var)
            self._cache = (xhat, inv_std, axes)
            np.multiply(self.gamma, xhat, out=out)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            xhat = x - self.running_mean
            xhat *= inv_std
            out = np.multiply(self.gamma, xhat, out=xhat)
        out += self.beta
        return out

    def backward(self, grad_out, input_grad=True):
        xhat, inv_std, axes = self._cache
        m = xhat.size // xhat.shape[-1]
        work = grad_out * xhat
        self.grads["gamma"] = work.sum(axis=axes)
        self.grads["beta"] = grad_out.sum(axis=axes)
        if not input_grad:
            return None
        # inv_std / m * (m dxhat - sum(dxhat) - xhat sum(dxhat xhat)), built
        # in place in the order that expression evaluates
        dx = grad_out * self.gamma
        np.multiply(dx, xhat, out=work)
        dxhat_xhat_sum = work.sum(axis=axes, keepdims=True)
        dxhat_sum = dx.sum(axis=axes, keepdims=True)
        dx *= m
        dx -= dxhat_sum
        dx -= np.multiply(xhat, dxhat_xhat_sum, out=work)
        dx *= inv_std / m
        return dx

    def config(self):
        return {"channels": self.channels, "momentum": self.momentum,
                "eps": self.eps}


class Dropout(Layer):
    kind = "dropout"

    def __init__(self, rate):
        super().__init__()
        self.rate = checked_float("dropout rate", rate, 0.0, 1.0,
                                  include_low=True)

    def out_shape(self, in_shape):
        return in_shape

    def forward(self, x, training=False, rng=None):
        if not training or self.rate == 0.0:
            self._cache = None
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        keep = rng.random(x.shape) >= self.rate
        scale = 1.0 / (1.0 - self.rate)
        self._cache = keep
        return x * keep * scale

    def backward(self, grad_out, input_grad=True):
        if not input_grad:
            return None
        if self._cache is None:
            return grad_out
        return grad_out * self._cache / (1.0 - self.rate)

    def config(self):
        return {"rate": self.rate}


class Flatten(Layer):
    kind = "flatten"

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward(self, x, training=False, rng=None):
        if training:
            self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out, input_grad=True):
        return grad_out.reshape(self._cache) if input_grad else None


#: every serializable layer class by its ``kind``
LAYERS = {cls.kind: cls
          for cls in (Dense, Conv1D, MaxPool1D, BatchNorm, Dropout, Flatten)}
