"""Small dense-network toolkit: forward with cached activations, exact
backprop for parameters and inputs, Adam, soft target blending, checkpoints.

Everything is float64 numpy. Hidden layers use leaky ReLU (slope 0.01);
the output head is linear or tanh scaled componentwise.
"""

from __future__ import annotations

import numpy as np

LEAKY_SLOPE = 0.01


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


def _promote(x):
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], True
    return x, False


def forward_cached(mlp: Mlp, x):
    """Returns (output, cache). Pure: parameters are never touched."""
    a, single = _promote(x)
    acts = [a]
    zs = []
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ w.T + b
        zs.append(z)
        if i < last:
            a = np.where(z >= 0, z, LEAKY_SLOPE * z)
            acts.append(a)
    if mlp.head_scale is None:
        y = zs[-1]
        t = None
    else:
        t = np.tanh(zs[-1])
        y = t * mlp.head_scale
    cache = (acts, zs, t, single)
    return (y[0] if single else y), cache


def forward(mlp: Mlp, x):
    y, _ = forward_cached(mlp, x)
    return y


def backward(mlp: Mlp, cache, grad_out):
    """Backprop grad_out (dL/dy) through the cached pass.

    Returns (grads, grad_in) where grads is a list of (dW, db) matching the
    layer order and grad_in is dL/dx."""
    acts, zs, t, single = cache
    g = np.asarray(grad_out, dtype=np.float64)
    if g.ndim == 1:
        g = g[None, :]
    if mlp.head_scale is not None:
        g = g * mlp.head_scale * (1.0 - t * t)
    grads = [None] * len(mlp.weights)
    for i in range(len(mlp.weights) - 1, -1, -1):
        grads[i] = (g.T @ acts[i], g.sum(axis=0))
        g = g @ mlp.weights[i]
        if i > 0:
            g = g * np.where(zs[i - 1] >= 0, 1.0, LEAKY_SLOPE)
    return grads, (g[0] if single else g)


def input_grad(mlp: Mlp, cache, grad_out):
    _, gin = backward(mlp, cache, grad_out)
    return gin


def softmax(x):
    x = np.asarray(x, dtype=np.float64)
    shift = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shift)
    return e / e.sum(axis=-1, keepdims=True)


class AdamState:
    """Adam with bias correction at community defaults."""

    def __init__(self, mlp: Mlp, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [(np.zeros_like(w), np.zeros_like(b))
                  for w, b in zip(mlp.weights, mlp.biases)]
        self.v = [(np.zeros_like(w), np.zeros_like(b))
                  for w, b in zip(mlp.weights, mlp.biases)]

    def step(self, mlp: Mlp, grads):
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for i, (dw, db) in enumerate(grads):
            mw, mb = self.m[i]
            vw, vb = self.v[i]
            mw *= self.beta1
            mw += (1.0 - self.beta1) * dw
            mb *= self.beta1
            mb += (1.0 - self.beta1) * db
            vw *= self.beta2
            vw += (1.0 - self.beta2) * dw * dw
            vb *= self.beta2
            vb += (1.0 - self.beta2) * db * db
            mlp.weights[i] -= self.lr * (mw / c1) / (np.sqrt(vw / c2) + self.eps)
            mlp.biases[i] -= self.lr * (mb / c1) / (np.sqrt(vb / c2) + self.eps)


def soft_update(target: Mlp, source: Mlp, tau: float):
    """target <- tau * source + (1 - tau) * target, elementwise."""
    if target.sizes != source.sizes:
        raise ValueError("target/source shapes differ")
    for tw, sw in zip(target.weights, source.weights):
        tw[:] = tau * sw + (1.0 - tau) * tw
    for tb, sb in zip(target.biases, source.biases):
        tb[:] = tau * sb + (1.0 - tau) * tb


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
