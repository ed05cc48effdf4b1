"""Small dense-network toolkit: a cacheless forward for inference, a forward
with cached activations for training batches, exact backprop (weight gradients in
backward, the input gradient in input_grad), Adam, soft target blending,
checkpoints.

Everything is float64 numpy. Hidden layers use leaky ReLU (slope 0.01);
the output head is linear or tanh scaled componentwise. Adam and the soft
update work in place but keep the textbook's operations in their order, so
their results are the same bits as the plain formulas.
"""

from __future__ import annotations

import numpy as np

LEAKY_SLOPE = 0.01
# Adam's moment decays and denominator guard, at the community defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Mlp:
    """Fully connected net. sizes = (n_in, h1, ..., n_out); weights are
    (out, in) matrices, biases (out,) vectors, zero until initialized."""

    def __init__(self, sizes, head_scale=None):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2:
            raise ValueError("Mlp needs at least input and output sizes")
        self.sizes = sizes
        self.weights = [np.zeros((sizes[i + 1], sizes[i])) for i in range(len(sizes) - 1)]
        self.biases = [np.zeros(sizes[i + 1]) for i in range(len(sizes) - 1)]
        self.head_scale = None if head_scale is None else np.asarray(head_scale, dtype=np.float64)
        if self.head_scale is not None and self.head_scale.shape != (sizes[-1],):
            raise ValueError("head_scale must match the output width")

    @property
    def n_in(self):
        return self.sizes[0]

    @property
    def n_out(self):
        return self.sizes[-1]


def gaussian_init(mlp: Mlp, rng: np.random.Generator, std: float = 1e-2):
    """Draw weights via the fan-scaled recipe, then renormalize every layer to
    the fixed target std (the shape-dependent factor cancels); biases zero."""
    for i, w in enumerate(mlp.weights):
        fan_out, fan_in = w.shape
        glorot = np.sqrt(2.0 / (fan_in + fan_out))
        draw = rng.normal(0.0, glorot, size=w.shape)
        mlp.weights[i] = draw * (std / glorot)
        mlp.biases[i] = np.zeros(fan_out)


def clone(mlp: Mlp) -> Mlp:
    out = Mlp(mlp.sizes, None if mlp.head_scale is None else mlp.head_scale.copy())
    out.weights = [w.copy() for w in mlp.weights]
    out.biases = [b.copy() for b in mlp.biases]
    return out


def leaky_relu(z):
    """z where z >= 0, LEAKY_SLOPE * z elsewhere. The slope is below 1, so
    the larger of the two is the right one for every z, -0 and NaN included."""
    a = np.multiply(z, LEAKY_SLOPE)
    return np.maximum(z, a, out=a)


def leaky_relu_slope(z):
    """The activation's derivative: exactly 1.0 where z >= 0 and LEAKY_SLOPE
    elsewhere (NaN included)."""
    return (z >= 0) * (1.0 - LEAKY_SLOPE) + LEAKY_SLOPE


def forward_cached(mlp: Mlp, x):
    """Returns (output, cache) of a (batch, n_in) x, the training pass. Pure:
    parameters are never touched."""
    a = np.asarray(x, dtype=np.float64)
    acts = [a]
    zs = []
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ w.T
        z += b
        zs.append(z)
        if i < last:
            a = leaky_relu(z)
            acts.append(a)
    if mlp.head_scale is None:
        y = zs[-1]
        t = None
    else:
        t = np.tanh(zs[-1])
        y = t * mlp.head_scale
    return y, (acts, zs, t)


def forward(mlp: Mlp, x):
    """forward_cached's output, the same bits, without the cache; a 1-D row
    gives a 1-D output, the bits of the (1, n_in) batch's row."""
    a = x
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ w.T
        z += b
        a = leaky_relu(z) if i < last else z
    return a if mlp.head_scale is None else np.tanh(a) * mlp.head_scale


def _head_grad(mlp: Mlp, t, g):
    """dL/dz of the output layer from dL/dy."""
    if mlp.head_scale is not None:
        g = g * mlp.head_scale * (1.0 - t * t)
    return g


def _through_layer(mlp: Mlp, zs, i: int, g):
    """dL/dz of hidden layer i - 1 from dL/dz of layer i."""
    g = g @ mlp.weights[i]
    g *= leaky_relu_slope(zs[i - 1])
    return g


def backward(mlp: Mlp, cache, grad_out):
    """Backprop grad_out (dL/dy) through the cached pass.

    Returns the weight gradients only: a list of (dW, db) in layer order.
    input_grad gives dL/dx."""
    acts, zs, t = cache
    g = _head_grad(mlp, t, grad_out)
    grads = [None] * len(mlp.weights)
    for i in range(len(mlp.weights) - 1, -1, -1):
        grads[i] = (g.T @ acts[i], g.sum(axis=0))
        if i > 0:
            g = _through_layer(mlp, zs, i, g)
    return grads


def input_grad(mlp: Mlp, cache, grad_out):
    """dL/dx of the cached pass, without any weight gradient."""
    _, zs, t = cache
    g = _head_grad(mlp, t, grad_out)
    for i in range(len(mlp.weights) - 1, 0, -1):
        g = _through_layer(mlp, zs, i, g)
    return g @ mlp.weights[0]


def softmax(x):
    x = np.asarray(x, dtype=np.float64)
    shift = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shift)
    return e / e.sum(axis=-1, keepdims=True)


class AdamState:
    """Adam with bias correction, ADAM_BETA1/ADAM_BETA2/ADAM_EPS."""

    def __init__(self, mlp: Mlp, lr: float = 1e-3):
        self.lr = lr
        self.t = 0
        self.m = [(np.zeros_like(w), np.zeros_like(b))
                  for w, b in zip(mlp.weights, mlp.biases)]
        self.v = [(np.zeros_like(w), np.zeros_like(b))
                  for w, b in zip(mlp.weights, mlp.biases)]

    def step(self, mlp: Mlp, grads):
        self.t += 1
        c1 = 1.0 - ADAM_BETA1 ** self.t
        c2 = 1.0 - ADAM_BETA2 ** self.t
        for i, (dw, db) in enumerate(grads):
            (mw, mb), (vw, vb) = self.m[i], self.v[i]
            self._move(mlp.weights[i], dw, mw, vw, c1, c2)
            self._move(mlp.biases[i], db, mb, vb, c1, c2)

    def _move(self, p, g, m, v, c1, c2):
        """m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g g;
        p -= lr (m / c1) / (sqrt(v / c2) + eps), evaluated in that order
        through two temporaries."""
        m *= ADAM_BETA1
        num = np.multiply(g, 1.0 - ADAM_BETA1)
        m += num
        v *= ADAM_BETA2
        np.multiply(g, 1.0 - ADAM_BETA2, out=num)
        num *= g
        v += num
        np.divide(m, c1, out=num)
        num *= self.lr
        den = np.divide(v, c2)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        num /= den
        p -= num


def soft_update(target: Mlp, source: Mlp, tau: float):
    """target <- tau * source + (1 - tau) * target, elementwise."""
    if target.sizes != source.sizes:
        raise ValueError("target/source shapes differ")
    for tp, sp in zip(target.weights + target.biases, source.weights + source.biases):
        blend = np.multiply(sp, tau)
        tp *= 1.0 - tau
        tp += blend


# ---------------------------------------------------------------------------
# flat array (de)serialization for checkpoints

def mlp_state(mlp: Mlp, prefix: str) -> dict:
    out = {}
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        out[f"{prefix}.w{i}"] = w
        out[f"{prefix}.b{i}"] = b
    if mlp.head_scale is not None:
        out[f"{prefix}.scale"] = mlp.head_scale
    return out


def mlp_from_state(data, prefix: str) -> Mlp:
    weights = []
    i = 0
    while f"{prefix}.w{i}" in data:
        weights.append(np.asarray(data[f"{prefix}.w{i}"], dtype=np.float64))
        i += 1
    if not weights:
        raise ValueError(f"no layers stored under {prefix!r}")
    sizes = [weights[0].shape[1]] + [w.shape[0] for w in weights]
    scale = data[f"{prefix}.scale"] if f"{prefix}.scale" in data else None
    mlp = Mlp(sizes, scale)
    mlp.weights = [w.copy() for w in weights]
    mlp.biases = [np.asarray(data[f"{prefix}.b{i}"], dtype=np.float64).copy()
                  for i in range(len(weights))]
    return mlp


def adam_state(adam: AdamState, prefix: str) -> dict:
    out = {f"{prefix}.t": np.array(adam.t)}
    for i, ((mw, mb), (vw, vb)) in enumerate(zip(adam.m, adam.v)):
        out[f"{prefix}.mw{i}"] = mw
        out[f"{prefix}.mb{i}"] = mb
        out[f"{prefix}.vw{i}"] = vw
        out[f"{prefix}.vb{i}"] = vb
    return out


def adam_from_state(data, prefix: str, mlp: Mlp, lr: float) -> AdamState:
    adam = AdamState(mlp, lr=lr)
    adam.t = int(data[f"{prefix}.t"])
    for i in range(len(mlp.weights)):
        adam.m[i] = (np.asarray(data[f"{prefix}.mw{i}"]).copy(),
                     np.asarray(data[f"{prefix}.mb{i}"]).copy())
        adam.v[i] = (np.asarray(data[f"{prefix}.vw{i}"]).copy(),
                     np.asarray(data[f"{prefix}.vb{i}"]).copy())
    return adam
