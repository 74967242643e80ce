"""Network container: composition checks, loss/gradients, basis extraction, JSON."""

from __future__ import annotations

import inspect
import json

import numpy as np

from ..errors import DomainError, ShapeError
from .layers import LAYERS, Dense

SERIAL_VERSION = 1


class Network:
    """Ordered layer stack ending in a width-1 (or wider) linear dense layer.

    ``input_shape`` excludes the batch axis: ``(p,)`` for dense-first
    networks, ``(length, channels)`` for convolutional ones.
    """

    def __init__(self, layers, input_shape):
        if not layers:
            raise ShapeError("a network needs at least one layer")
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        shape = self.input_shape
        for layer in self.layers:
            shape = layer.out_shape(shape)
        self.output_shape = shape
        final = self.layers[-1]
        if isinstance(final, Dense) and final.activation != "linear":
            raise ShapeError("final dense layer must have a linear activation")

    # -- shape plumbing ----------------------------------------------------

    def _as_batch(self, x):
        x = np.asarray(x, dtype=float)
        want = len(self.input_shape)
        if x.ndim == want + 1 and x.shape[1:] == self.input_shape:
            return x, False
        if x.ndim == want and x.shape == self.input_shape:
            return x[None, ...], True
        if want == 2 and self.input_shape[1] == 1:
            # (N, length) or (length,) accepted for single-channel series
            if x.ndim == 2 and x.shape[1] == self.input_shape[0]:
                return x[..., None], False
            if x.ndim == 1 and x.shape[0] == self.input_shape[0]:
                return x[None, :, None], True
        raise ShapeError(
            f"input of shape {x.shape} does not match network input "
            f"{self.input_shape}")

    # -- evaluation ----------------------------------------------------------

    def forward(self, x, training=False, rng=None):
        """Run the stack; inference mode is pure (dropout off, running stats)."""
        xb, single = self._as_batch(x)
        out = xb
        for layer in self.layers:
            out = layer.forward(out, training=training, rng=rng)
        return out[0] if single else out

    def extract_basis(self, x):
        """Activations entering the final dense layer, one row per sample."""
        if not isinstance(self.layers[-1], Dense):
            raise ShapeError("basis extraction requires a dense output layer")
        xb, single = self._as_batch(x)
        out = xb
        for layer in self.layers[:-1]:
            out = layer.forward(out, training=False)
        return out[0] if single else out

    @property
    def basis_width(self):
        if not isinstance(self.layers[-1], Dense):
            raise ShapeError("basis width requires a dense output layer")
        return self.layers[-1].weights.shape[1]

    # -- loss and gradients ----------------------------------------------------

    def loss_and_grads(self, x, y, rng=None):
        """Mean squared error plus layer L2 penalties, with the grad vector.

        Runs in training mode (batch statistics, dropout active when an rng
        is supplied).  Returns ``(loss, grad_vector)`` with the gradient laid
        out like :meth:`get_weights_vector`.
        """
        xb, _ = self._as_batch(x)
        y = np.asarray(y, dtype=float).reshape(xb.shape[0], -1)
        out = xb
        for layer in self.layers:
            out = layer.forward(out, training=True, rng=rng)
        resid = out - y
        n = xb.shape[0]
        loss = float(np.sum(resid * resid)) / n
        loss += sum(layer.l2_penalty() for layer in self.layers)
        grad = 2.0 * resid / n
        first = self.layers[0]
        for layer in reversed(self.layers):
            # the input is data: nothing reads its gradient
            grad = layer.backward(grad, input_grad=layer is not first)
            layer._cache = None  # the batch's activations, no longer needed
        return loss, self.get_grads_vector()

    def mse(self, x, y):
        """Inference-mode mean squared error (no penalty)."""
        pred = self.forward(x)
        y = np.asarray(y, dtype=float).reshape(pred.shape[0], -1)
        resid = pred.reshape(y.shape) - y
        return float(np.mean(np.sum(resid * resid, axis=1)))

    # -- flat parameter views ---------------------------------------------------

    def _param_items(self):
        for layer in self.layers:
            for name in layer.param_names_active:
                yield layer, name

    def get_weights_vector(self):
        return np.concatenate(
            [getattr(layer, name).ravel() for layer, name in self._param_items()]
            or [np.empty(0)])

    def set_weights_vector(self, vec):
        vec = np.asarray(vec, dtype=float)
        pos = 0
        for layer, name in self._param_items():
            arr = getattr(layer, name)
            size = arr.size
            setattr(layer, name, vec[pos:pos + size].reshape(arr.shape).copy())
            pos += size
        if pos != vec.size:
            raise ShapeError(f"weight vector length {vec.size}, expected {pos}")

    def get_grads_vector(self):
        return np.concatenate(
            [layer.grads[name].ravel() for layer, name in self._param_items()]
            or [np.empty(0)])

    # -- serialization -------------------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "version": SERIAL_VERSION,
            "input_shape": list(self.input_shape),
            "layers": [layer.to_dict() for layer in self.layers],
        }
        return json.dumps(doc, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Network":
        doc = json.loads(text)
        if doc.get("version") != SERIAL_VERSION:
            raise ShapeError(f"unsupported network format {doc.get('version')!r}")
        layers = []
        for fields in doc["layers"]:
            kind = fields.pop("kind")
            if kind not in LAYERS:
                raise ShapeError(f"unknown layer kind {kind!r}")
            expected = set(inspect.signature(LAYERS[kind]).parameters)
            if set(fields) != expected:
                raise ShapeError(f"{kind} layer has fields {sorted(fields)}, "
                                 f"expected {sorted(expected)}")
            layers.append(LAYERS[kind](**fields))
        for layer in layers:
            arrays = [getattr(layer, name)
                      for name in layer.param_names + layer.state_names]
            if not all(np.isfinite(a).all() for a in arrays):
                raise DomainError(f"{layer.kind} layer has a non-finite entry")
            if np.any(getattr(layer, "running_var", 0.0) < 0):
                raise DomainError(f"{layer.kind} layer has a negative "
                                  "running variance")
        return cls(layers, doc["input_shape"])
