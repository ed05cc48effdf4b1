"""Dense-network toolkit: init stats, gradient correctness, Adam, targets,
and bit-for-bit agreement with the plain formulas (tests/reference.py), the
last in float64 and in the learners' float32."""

import numpy as np
import pytest

import reference
from vnf_lab import nn


def build(sizes, head_scale=None, seed=0, dtype=np.float64):
    net = nn.Mlp(sizes, head_scale, dtype)
    nn.gaussian_init(net, np.random.default_rng(seed))
    return net


class TestInit:
    def test_weight_std_and_zero_bias(self):
        net = build((100, 128, 64, 4), seed=1)
        for w, b in zip(net.weights, net.biases):
            assert w.std() == pytest.approx(1e-2, rel=0.10)
            assert (b == 0).all()

    def test_layers_are_views_of_one_vector(self):
        """params holds w0, b0, w1, b1 in order; writing a layer writes params."""
        net = build((3, 4, 2), seed=2)
        (w0, w1), (b0, b1) = net.weights, net.biases
        assert same_bits(np.concatenate([w0.ravel(), b0, w1.ravel(), b1]), net.params)
        net.biases[1][1] = 7.0
        assert net.params[-1] == 7.0

    def test_targets_start_as_exact_copies(self):
        net = build((10, 128, 64, 2), seed=2)
        tgt = nn.clone(net)
        for tw, sw in zip(tgt.weights, net.weights):
            assert (tw == sw).all()
        tgt.weights[0][0, 0] += 1.0
        assert net.weights[0][0, 0] != tgt.weights[0][0, 0]


class TestForward:
    def test_leaky_slope_on_hidden_layers(self):
        net = nn.Mlp((1, 1, 1))
        net.weights[0][:] = 1.0
        net.weights[1][:] = 1.0
        assert nn.forward(net, np.array([2.0]))[0] == 2.0
        assert nn.forward(net, np.array([-2.0]))[0] == pytest.approx(-0.02)

    def test_tanh_head_bounded_and_scaled(self):
        net = build((6, 128, 64, 2), head_scale=(50.0, 25.0), seed=3)
        rng = np.random.default_rng(4)
        for _ in range(200):
            y = nn.forward(net, rng.normal(0, 5, 6))
            assert abs(y[0]) < 50.0 and abs(y[1]) < 25.0

    def test_batch_matches_single(self):
        net = build((5, 128, 64, 3), seed=5)
        xs = np.random.default_rng(6).normal(0, 1, (7, 5))
        batch = nn.forward(net, xs)
        for i in range(7):
            # BLAS may reorder the sums between the two paths
            assert batch[i] == pytest.approx(nn.forward(net, xs[i]), rel=1e-12, abs=1e-15)

    def test_forward_is_pure(self):
        net = build((4, 128, 64, 2), seed=7)
        before = [p.copy() for p in net.weights + net.biases]
        x = np.ones(4)
        a = nn.forward(net, x)
        b = nn.forward(net, x)
        assert (a == b).all()
        nn.forward(net, np.ones((3, 4)))
        assert (x == 1.0).all()
        for p0, p1 in zip(before, net.weights + net.biases):
            assert (p0 == p1).all()

    def test_finite_inputs_stay_finite(self):
        net = build((4, 128, 64, 2), head_scale=(50.0, 50.0), seed=8)
        y = nn.forward(net, np.array([1e6, -1e6, 1e6, -1e6]))
        assert np.isfinite(y).all()


def numeric_param_grad(net, x, gout, layer, which, idx, h=1e-5):
    arr = net.weights[layer] if which == "w" else net.biases[layer]
    old = arr[idx]
    arr[idx] = old + h
    up = float(np.sum(nn.forward(net, x) * gout))
    arr[idx] = old - h
    dn = float(np.sum(nn.forward(net, x) * gout))
    arr[idx] = old
    return (up - dn) / (2 * h)


def check_gradients(net, rng, probes):
    """Central-difference check of parameter and input gradients."""
    x = rng.normal(0, 1.0, (4, net.n_in))
    gout = rng.normal(0, 1.0, (4, net.n_out))
    _, cache = nn.forward_cached(net, x)
    dws, dbs = nn.layer_views(net.sizes, nn.backward(net, cache, gout))
    gin = nn.input_grad(net, cache, gout)
    for _ in range(probes):
        layer = int(rng.integers(len(net.weights)))
        which = "w" if rng.random() < 0.7 else "b"
        if which == "w":
            idx = (int(rng.integers(net.weights[layer].shape[0])),
                   int(rng.integers(net.weights[layer].shape[1])))
            got = dws[layer][idx]
        else:
            idx = int(rng.integers(net.biases[layer].shape[0]))
            got = dbs[layer][idx]
        want = numeric_param_grad(net, x, gout, layer, which, idx)
        err = abs(got - want) / max(abs(got), abs(want), 1e-7)
        assert err < 1e-4, (layer, which, idx, got, want)
    # input gradient probes
    for _ in range(probes // 2):
        r = int(rng.integers(x.shape[0]))
        c = int(rng.integers(x.shape[1]))
        old = x[r, c]
        x[r, c] = old + 1e-5
        up = float(np.sum(nn.forward(net, x) * gout))
        x[r, c] = old - 1e-5
        dn = float(np.sum(nn.forward(net, x) * gout))
        x[r, c] = old
        want = (up - dn) / 2e-5
        got = gin[r, c]
        err = abs(got - want) / max(abs(got), abs(want), 1e-7)
        assert err < 1e-4, (r, c, got, want)


class TestGradients:
    def test_multi_output_linear_head(self):
        rng = np.random.default_rng(20)
        check_gradients(build((12, 16, 8, 5), seed=21), rng, 60)

    def test_scalar_linear_head(self):
        rng = np.random.default_rng(22)
        check_gradients(build((14, 16, 8, 1), seed=23), rng, 60)

    def test_tanh_scaled_head(self):
        rng = np.random.default_rng(24)
        check_gradients(build((10, 16, 8, 2), head_scale=(50.0, 50.0), seed=25), rng, 60)


class TestAdam:
    def test_first_step_magnitude(self):
        net = nn.Mlp((1, 1))
        net.weights[0][0, 0] = 1.0
        adam = nn.AdamState(net, lr=1e-3)
        adam.step(net, np.array([1.0, 0.0]))  # w0, b0
        # bias-corrected m=v=1 on the first step, so the move is lr/(1+eps)
        assert net.weights[0][0, 0] == pytest.approx(1.0 - 1e-3 / (1.0 + nn.ADAM_EPS), abs=1e-9)

    def test_zero_gradient_is_a_fixed_point(self):
        net = build((3, 8, 2), seed=26)
        adam = nn.AdamState(net, lr=1e-3)
        before = [w.copy() for w in net.weights]
        adam.step(net, np.zeros_like(net.params))
        for w0, w1 in zip(before, net.weights):
            assert (w0 == w1).all()

    def test_descends_a_quadratic(self):
        # fit y = 2x with one linear unit
        net = nn.Mlp((1, 1))
        adam = nn.AdamState(net, lr=1e-2)
        xs = np.linspace(-1, 1, 32)[:, None]
        for _ in range(2000):
            y, cache = nn.forward_cached(net, xs)
            resid = y - 2 * xs
            grads = nn.backward(net, cache, 2 * resid / len(xs))
            adam.step(net, grads)
        assert net.weights[0][0, 0] == pytest.approx(2.0, abs=1e-3)


class TestSoftUpdate:
    def test_blend_formula_exact(self):
        src = build((4, 8, 2), seed=27)
        tgt = build((4, 8, 2), seed=28)
        want = [0.005 * sw + 0.995 * tw for sw, tw in zip(src.weights, tgt.weights)]
        nn.soft_update(tgt, src, 0.005)
        for w0, w1 in zip(want, tgt.weights):
            assert (w0 == w1).all()

    def test_double_application_composes(self):
        src = build((4, 8, 2), seed=29)
        tgt = build((4, 8, 2), seed=30)
        t0 = [w.copy() for w in tgt.weights]
        tau = 0.25
        nn.soft_update(tgt, src, tau)
        nn.soft_update(tgt, src, tau)
        keep = (1 - tau) ** 2
        for w0, sw, w1 in zip(t0, src.weights, tgt.weights):
            assert w1 == pytest.approx((1 - keep) * sw + keep * w0, rel=1e-12, abs=1e-12)

    def test_tau_one_copies(self):
        src = build((4, 8, 2), seed=31)
        tgt = nn.Mlp((4, 8, 2))
        nn.soft_update(tgt, src, 1.0)
        for sw, tw in zip(src.weights, tgt.weights):
            assert (sw == tw).all()


class TestSoftmax:
    def test_rows_normalize(self):
        x = np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, 1000.0]])
        s = nn.softmax(x)
        assert s.sum(axis=1) == pytest.approx([1.0, 1.0])
        assert s[1] == pytest.approx([1 / 3] * 3)
        assert np.isfinite(s).all()


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def special_values(dtype=np.float64):
    """Edge values of dtype, then float64 draws of every magnitude and
    ordinary ones, cast to dtype (out-of-range draws become 0 or inf)."""
    info = np.finfo(dtype)
    tiny = info.smallest_subnormal
    edge = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny,
                     1e3 * tiny, -1e3 * tiny, info.tiny, -info.tiny, info.max,
                     -info.max, 1.0, -1.0], dtype=dtype)
    rng = np.random.default_rng(40)
    wide = rng.normal(0, 1, 2000) * 10.0 ** rng.integers(-320, 300, 2000)
    with np.errstate(over="ignore"):
        return np.concatenate([edge, wide.astype(dtype), rng.normal(0, 1, 2000).astype(dtype)])


def random_net(sizes, head_scale=None, seed=0, dtype=np.float64):
    net = build(sizes, head_scale, seed, dtype)
    rng = np.random.default_rng(seed + 100)
    for w in net.weights:
        w[:] = rng.normal(0, 0.3, w.shape)
    for b in net.biases:
        b[:] = rng.normal(0, 0.3, b.shape)
    return net


NETS = [((12, 16, 8, 5), None), ((14, 16, 8, 1), None), ((10, 16, 8, 2), (50.0, 25.0)),
        ((37, 128, 64, 1), None)]


class TestMatchesPlainFormulas:
    dtype = np.float64  # nn's default; the Float32 subclass reruns these in float32

    def test_activation_equals_where_form_bitwise(self):
        z = special_values(self.dtype)
        with np.errstate(all="ignore"):
            assert same_bits(nn.leaky_relu(z), reference.leaky_where(z))

    def test_backward_factor_is_one_or_the_slope(self):
        z = special_values(self.dtype)
        factor = nn.leaky_relu_slope(z)
        assert set(np.unique(factor).tolist()) == {1.0, float(self.dtype(nn.LEAKY_SLOPE))}
        assert same_bits(factor, reference.leaky_factor_where(z))

    @pytest.mark.parametrize("sizes, head", NETS)
    @pytest.mark.parametrize("batch", [1, 7, 128])
    def test_gradients_equal_full_backprop_bitwise(self, sizes, head, batch):
        net = random_net(sizes, head, seed=41, dtype=self.dtype)
        rng = np.random.default_rng(42)
        x = rng.normal(0, 1, (batch, net.n_in)).astype(self.dtype)
        gout = rng.normal(0, 1, (batch, net.n_out)).astype(self.dtype)
        y, cache = nn.forward_cached(net, x)
        y_ref, cache_ref = reference.forward_cached_reference(net, x)
        assert same_bits(y, y_ref)
        grads_ref, gin_ref = reference.backward_reference(net, cache_ref, gout)
        dws, dbs = nn.layer_views(net.sizes, nn.backward(net, cache, gout))
        for dw, db, (dw_ref, db_ref) in zip(dws, dbs, grads_ref):
            assert same_bits(dw, dw_ref) and same_bits(db, db_ref)
        assert same_bits(nn.input_grad(net, cache, gout), gin_ref)

    def test_adam_and_soft_update_equal_plain_formulas_bitwise(self):
        net = random_net((20, 32, 16, 3), seed=43, dtype=self.dtype)
        net_ref = nn.clone(net)
        adam = nn.AdamState(net, lr=1e-3)
        adam_ref = nn.AdamState(net_ref, lr=1e-3)
        target = random_net((20, 32, 16, 3), seed=44, dtype=self.dtype)
        target_ref = nn.clone(target)
        rng = np.random.default_rng(45)
        for _ in range(5):
            grad = rng.normal(0, 1, net.params.shape).astype(self.dtype)
            adam.step(net, grad)
            reference.adam_step_reference(adam_ref, net_ref, grad)
            nn.soft_update(target, net, 5e-3)
            reference.soft_update_reference(target_ref, net_ref, 5e-3)
        pairs = [(net, net_ref), (target, target_ref)]
        for a, b in pairs:
            for p, q in zip(a.weights + a.biases, b.weights + b.biases):
                assert same_bits(p, q)
        assert adam.t == adam_ref.t == 5
        assert same_bits(adam.m, adam_ref.m) and same_bits(adam.v, adam_ref.v)


def edge_rows(n_in, rng, dtype=np.float64):
    """Ordinary rows of dtype, one plain and the others each mixed with one
    kind of edge value: signed zeros, subnormals, infinities, NaN; and rows
    made wholly of -0.0 and of subnormals."""
    tiny = np.finfo(dtype).smallest_subnormal
    mixes = [(), (0.0, -0.0), (tiny, -tiny, 1e3 * tiny), (np.inf,), (-np.inf, np.inf),
             (np.nan,)]
    rows = rng.normal(0, 1, (len(mixes) + 2, n_in))
    for row, values in zip(rows, mixes):
        row[rng.choice(n_in, size=len(values), replace=False)] = values
    rows[-2] = -0.0
    rows[-1] = tiny * rng.integers(-3, 4, n_in)
    return rows.astype(dtype)


class TestMatchesPlainFormulasFloat32(TestMatchesPlainFormulas):
    """The same checks on float32 nets and inputs, the learners' dtype."""

    dtype = np.float32


class TestCachelessForward:
    """nn.forward, the inference pass, against forward_cached's output."""

    dtype = np.float64  # nn's default; the Float32 subclass reruns this in float32

    @pytest.mark.parametrize("sizes, head", NETS + [((354, 128, 64, 11), None),
                                                    ((365, 128, 64, 2), (50.0, 40.0))])
    @pytest.mark.parametrize("batch", ["row", 1, 7, 128])
    def test_equals_forward_cached_bitwise(self, sizes, head, batch):
        """A 1-D row stays 1-D with the bits of its (1, n) batch; a (1, n)
        row and batches keep their shape."""
        net = random_net(sizes, head, seed=46, dtype=self.dtype)
        rng = np.random.default_rng(47)
        edges = edge_rows(net.n_in, rng, self.dtype)
        if batch == "row":
            inputs = list(edges)
        elif batch == 1:
            inputs = [row[None, :] for row in edges]
        else:
            x = rng.normal(0, 1, (batch, net.n_in)).astype(self.dtype)
            picked = rng.permutation(batch)[:len(edges)]
            x[picked] = edges[:len(picked)]
            inputs = [x]
        with np.errstate(all="ignore"):
            for x in inputs:
                y, _ = nn.forward_cached(net, np.atleast_2d(x))
                assert same_bits(nn.forward(net, x), y[0] if x.ndim == 1 else y)


class TestCachelessForwardFloat32(TestCachelessForward):
    """The same check on float32 nets and inputs, the learners' dtype."""

    dtype = np.float32
