"""Small dense-network toolkit: a cacheless forward for inference, a forward
with cached activations for training batches, exact backprop (weight gradients in
backward, the input gradient in input_grad), Adam, soft target blending.

A net computes in the dtype it is built with (float64 by default; the
learners build float32 nets), and every function here follows the dtype of
its inputs, so a net fed arrays of its own dtype never promotes. A net's
parameters, its gradient and its Adam moments are vectors of one layout,
whose layers are views (layer_views). A net and an optimizer live in a buffer
they are given, such as memory shared with another process, or a new one.
Hidden layers use leaky ReLU (slope 0.01); the output head is linear or tanh
scaled componentwise. Adam and the soft update work in place on whole vectors
but keep the textbook's operations in their order: the plain formulas' bits.
"""

from __future__ import annotations

import numpy as np

LEAKY_SLOPE = 0.01
# Adam's moment decays and denominator guard, at the community defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def layer_views(sizes, flat):
    """(weights, biases) of a net of sizes as views of the vector flat, laid
    out w0, b0, w1, b1, ...: each weight an (out, in) matrix, each bias an
    (out,) vector. The one place that knows the layout."""
    weights, biases = [], []
    start = 0
    for n_in, n_out in zip(sizes, sizes[1:]):
        weights.append(flat[start:start + n_out * n_in].reshape(n_out, n_in))
        start += n_out * n_in
        biases.append(flat[start:start + n_out])
        start += n_out
    return weights, biases


class Mlp:
    """Fully connected net. sizes = (n_in, h1, ..., n_out); params is one
    vector of dtype, zero until initialized, and weights and biases are its
    layer views. Write parameters through the views, never rebind them.
    params views the first bytes of buffer, else of a new bytearray, zeroed."""

    def __init__(self, sizes, head_scale=None, dtype=np.float64, buffer=None):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2:
            raise ValueError("Mlp needs at least input and output sizes")
        self.sizes = sizes
        n = sum((n_in + 1) * n_out for n_in, n_out in zip(sizes, sizes[1:]))
        if buffer is None:
            buffer = bytearray(n * np.dtype(dtype).itemsize)
        self.params = np.frombuffer(buffer, dtype=dtype, count=n)
        self.params[:] = 0.0
        self.weights, self.biases = layer_views(sizes, self.params)
        self.head_scale = None if head_scale is None else np.array(head_scale, dtype=dtype)
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
    the fixed target std (the shape-dependent factor cancels); biases zero.
    The draws are float64 whatever the net's dtype, so the rng stream is the same."""
    for w, b in zip(mlp.weights, mlp.biases):
        fan_out, fan_in = w.shape
        glorot = np.sqrt(2.0 / (fan_in + fan_out))
        draw = rng.normal(0.0, glorot, size=w.shape)
        np.multiply(draw, std / glorot, out=w)
        b[:] = 0.0


def clone(mlp: Mlp) -> Mlp:
    out = Mlp(mlp.sizes, mlp.head_scale, mlp.params.dtype)
    out.params[:] = mlp.params
    return out


def leaky_relu(z):
    """z where z >= 0, LEAKY_SLOPE * z elsewhere. The slope is below 1, so
    the larger of the two is the right one for every z, -0 and NaN included."""
    a = np.multiply(z, LEAKY_SLOPE)
    return np.maximum(z, a, out=a)


def leaky_relu_slope(z):
    """The activation's derivative in z's dtype: exactly 1.0 where z >= 0 and
    LEAKY_SLOPE elsewhere (NaN included)."""
    scalar = z.dtype.type  # a bool array times a Python float would be float64
    return (z >= 0) * scalar(1.0 - LEAKY_SLOPE) + scalar(LEAKY_SLOPE)


def forward_cached(mlp: Mlp, x):
    """Returns (output, cache) of a (batch, n_in) x, the training pass. Pure:
    parameters are never touched."""
    a = np.asarray(x)
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

    Returns the weight gradient only, one vector in the layout of params.
    input_grad gives dL/dx."""
    acts, zs, t = cache
    g = _head_grad(mlp, t, grad_out)
    grad = np.empty_like(mlp.params)
    dws, dbs = layer_views(mlp.sizes, grad)
    for i in range(len(dws) - 1, -1, -1):
        np.matmul(g.T, acts[i], out=dws[i])
        g.sum(axis=0, out=dbs[i])
        if i > 0:
            g = _through_layer(mlp, zs, i, g)
    return grad


def input_grad(mlp: Mlp, cache, grad_out):
    """dL/dx of the cached pass, without any weight gradient."""
    _, zs, t = cache
    g = _head_grad(mlp, t, grad_out)
    for i in range(len(mlp.weights) - 1, 0, -1):
        g = _through_layer(mlp, zs, i, g)
    return g @ mlp.weights[0]


def softmax(x):
    x = np.asarray(x)
    shift = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shift)
    return e / e.sum(axis=-1, keepdims=True)


class AdamState:
    """Adam with bias correction, ADAM_BETA1/ADAM_BETA2/ADAM_EPS. The
    moments m and v are vectors in the layout of the net's params; the step
    count t is kept in a one-entry int64 array. m, v and then the count are
    zeroed views of buffer (nbytes(mlp) bytes), else of a new bytearray."""

    def __init__(self, mlp: Mlp, lr: float = 1e-3, buffer=None):
        self.lr = lr
        n = mlp.params.size
        if buffer is None:
            buffer = bytearray(self.nbytes(mlp))
        self.m, self.v = np.frombuffer(buffer, mlp.params.dtype, 2 * n).reshape(2, n)
        self._t = np.frombuffer(buffer, np.int64, 1, offset=self.nbytes(mlp) - 8)
        self.m[:] = self.v[:] = self._t[:] = 0

    @staticmethod
    def nbytes(mlp: Mlp) -> int:
        """The size of a buffer that holds mlp's optimizer: both moments,
        then the count at the next multiple of 8 bytes."""
        return -(-2 * mlp.params.nbytes // 8) * 8 + 8

    @property
    def t(self) -> int:
        return int(self._t[0])

    @t.setter
    def t(self, value: int):
        self._t[0] = value

    def step(self, mlp: Mlp, g):
        """One step on the gradient g (backward's vector): m = b1 m + (1 - b1) g;
        v = b2 v + (1 - b2) g g; p -= lr (m / c1) / (sqrt(v / c2) + eps),
        evaluated in that order through two temporaries."""
        t = self.t = self.t + 1
        c1 = 1.0 - ADAM_BETA1 ** t
        c2 = 1.0 - ADAM_BETA2 ** t
        m, v = self.m, self.v
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
        mlp.params -= num


def soft_update(target: Mlp, source: Mlp, tau: float):
    """target <- tau * source + (1 - tau) * target, elementwise."""
    if target.sizes != source.sizes:
        raise ValueError("target/source shapes differ")
    blend = np.multiply(source.params, tau)
    target.params *= 1.0 - tau
    target.params += blend
