"""Independent references for the cost-model tests and the random inputs
they are checked on, the departure step's column rebook as first written,
the plain formulas the in-place nn code must
reproduce bit for bit, the learners' batch-1 decision formulas as first
written, which their float-scalar forms must reproduce bit for bit, and the
replay ring as first written, with every next state stored whole. Each
reference computes in the dtype of the net or ring it checks.

The figures come from perfbench/oracle.py: the benchmark's scalar cost
oracle, written from the model's definition without importing
vnf_lab.env. Its tolerance rule comes from perfbench/checks.py. Both files
are loaded read-only, under private names, so the tests check the program
against the same reference the benchmark gates every round with.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from vnf_lab import nn
from vnf_lab.env import AllocationState, ParamAction, VnfSpec, cell_costs, resource_range
from vnf_lab.nn import ADAM_BETA1, ADAM_BETA2, ADAM_EPS, LEAKY_SLOPE
from vnf_lab.pat import DTYPE

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
check_oracle = _load("checks").check_oracle


def qos_reference(spec: VnfSpec, u, c, m) -> float:
    """The oracle's QoS: a plain lerp from qos_min to qos_max across the band."""
    return oracle.qos(dataclasses.asdict(spec), u, c, m)


def oracle_figures(state: AllocationState, specs, costs, rate: float,
                   rho_max: float = 50.0, eta_max: float = 50.0) -> dict:
    """oracle.epoch_figures of one allocation: each cost figure as (value,
    magnitude of its summed terms), utilisation and counts as values."""
    snap = {"cpu": state.cpu.tolist(), "mem": state.mem.tolist(),
            "users": state.users.tolist(), "cpu_prev": state.cpu_prev.tolist(),
            "mem_prev": state.mem_prev.tolist(),
            "server_active_prev": state.server_active_prev.tolist()}
    return oracle.epoch_figures(snap, rate, [dataclasses.asdict(s) for s in specs],
                                dataclasses.asdict(costs), rho_max, eta_max)


def check_kernel(mats, state: AllocationState, specs, costs, rate: float,
                 where: str = "") -> list:
    """Failures of cost_components' (latency, financial, sla, numerator)
    matrices against the oracle's per-user cost figures of state, to the
    benchmark's tolerance; an empty list when they agree."""
    lat, fin, sla, num = mats
    per_user = max(int(state.users.sum()), 1)
    got = {"network_cost": float(num.sum() / per_user),
           "latency_per_user": float(lat.sum() / per_user),
           "financial_per_user": float(fin.sum() / per_user),
           "sla_per_user": float(sla.sum() / per_user)}
    want = oracle_figures(state, specs, costs, rate)
    return check_oracle(got, {key: want[key] for key in got}, where)


def dense_cost_grid(state: AllocationState, specs, costs, rate: float) -> tuple:
    """(latency, financial, sla, numerator) matrices from cell_costs run on
    every one of the (k+1) x n cells, the grid cost_components must equal
    bit for bit."""
    grid = np.empty((4, state.k_servers + 1, state.n_vnfs))
    for t in range(state.k_servers + 1):
        for j, spec in enumerate(specs):
            grid[:, t, j] = cell_costs(state, spec, costs, rate, t, j)
    return tuple(grid)


def random_spec(rng, idx=0) -> VnfSpec:
    c0 = rng.uniform(0, 5)
    dc = rng.uniform(0, 4)
    cr = dc + rng.uniform(0.5, 5)
    m0 = rng.uniform(0, 5)
    dm = rng.uniform(0, 4)
    mr = dm + rng.uniform(0.5, 5)
    qmin = rng.uniform(0, 60)
    qmax = qmin + rng.uniform(0, 60)
    return VnfSpec(idx, c0, cr, dc, m0, mr, dm, qmin, qmax,
                   rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 2))


def random_populated_state(rng, k_servers, specs) -> AllocationState:
    """Random consistent allocation: users only on deployed instances, some
    deployed instances idle, some sitting exactly on a QoS band edge, cloud
    rows booked at the per-user upper bounds. Each cell's previous
    allocation is, at random, the same, another one or none, so resizes,
    boots and fresh offloads all occur."""
    n = len(specs)
    st = AllocationState(k_servers, n)
    for k in range(k_servers):
        for j in range(n):
            if rng.random() < 0.4:
                st.cpu[k, j] = rng.uniform(0.5, 12)
                st.mem[k, j] = rng.uniform(0.5, 12)
                if rng.random() < 0.8:
                    st.users[k, j] = rng.integers(1, 8)
                    if rng.random() < 0.3:
                        c_low, c_up, m_low, m_up = resource_range(specs[j], st.users[k, j])
                        lower = rng.random() < 0.5
                        st.cpu[k, j], st.mem[k, j] = (c_low, m_low) if lower else (c_up, m_up)
    cl = st.cloud
    for j in range(n):
        if rng.random() < 0.5:
            u = int(rng.integers(1, 8))
            st.users[cl, j] = u
            _, c_up, _, m_up = resource_range(specs[j], u)
            st.cpu[cl, j] = c_up
            st.mem[cl, j] = m_up
    pick = rng.integers(3, size=st.cpu.shape)
    for now, prev in ((st.cpu, "cpu_prev"), (st.mem, "mem_prev")):
        other = rng.uniform(0, 12, st.cpu.shape)
        setattr(st, prev, np.select([pick == 0, pick == 1], [now, other], 0.0))
    st.server_active_prev = rng.random(k_servers) < 0.5
    return st


def apply_departures_reference(state: AllocationState, specs, rng) -> np.ndarray:
    """apply_departures as first written: the catalogue as float64 columns,
    one binomial draw, and the cloud row rebooked by column arithmetic."""
    col = {name: np.array([getattr(s, name) for s in specs], dtype=np.float64)
           for name in ("c0", "cr", "dc", "m0", "mr", "dm", "p_stay")}
    leavers = rng.binomial(state.users, 1.0 - col["p_stay"])
    state.users -= leavers
    kk = state.cloud
    u = state.users[kk].astype(np.float64)
    live = u > 0
    state.cpu[kk] = np.where(live, col["c0"] + (col["cr"] + col["dc"]) * u, 0.0)
    state.mem[kk] = np.where(live, col["m0"] + (col["mr"] + col["dm"]) * u, 0.0)
    return leavers


# ---------------------------------------------------------------------------
# the nn formulas as first written: np.where activations, one backward pass
# for weight and input gradients, Adam and soft updates through temporaries


def leaky_where(z):
    return np.where(z >= 0, z, LEAKY_SLOPE * z)


def leaky_factor_where(z):
    return np.where(z >= 0, 1.0, LEAKY_SLOPE).astype(z.dtype)


def forward_cached_reference(mlp, x):
    a = np.asarray(x, dtype=mlp.params.dtype)
    acts, zs = [a], []
    last = len(mlp.weights) - 1
    for i, (w, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ w.T + b
        zs.append(z)
        if i < last:
            a = leaky_where(z)
            acts.append(a)
    if mlp.head_scale is None:
        y, t = zs[-1], None
    else:
        t = np.tanh(zs[-1])
        y = t * mlp.head_scale
    return y, (acts, zs, t)


def backward_reference(mlp, cache, grad_out):
    """(weight gradients, input gradient) from one full backprop."""
    acts, zs, t = cache
    g = np.asarray(grad_out, dtype=mlp.params.dtype)
    if mlp.head_scale is not None:
        g = g * mlp.head_scale * (1.0 - t * t)
    grads = [None] * len(mlp.weights)
    for i in range(len(mlp.weights) - 1, -1, -1):
        grads[i] = (g.T @ acts[i], g.sum(axis=0))
        g = g @ mlp.weights[i]
        if i > 0:
            g = g * leaky_factor_where(zs[i - 1])
    return grads, g


def backward_flat_reference(mlp, cache, grad_out):
    """backward_reference's weight gradients as one vector in params' layout."""
    grads, _ = backward_reference(mlp, cache, grad_out)
    return np.concatenate([g.ravel() for pair in grads for g in pair])


def input_grad_reference(mlp, cache, grad_out):
    return backward_reference(mlp, cache, grad_out)[1]


def adam_step_reference(adam, mlp, grad):
    """One Adam step on adam's moments and mlp's parameters, layer by layer
    on the layer views of the gradient vector grad and of the moments."""
    adam.t += 1
    c1 = 1.0 - ADAM_BETA1 ** adam.t
    c2 = 1.0 - ADAM_BETA2 ** adam.t
    dws, dbs = nn.layer_views(mlp.sizes, grad)
    mws, mbs = nn.layer_views(mlp.sizes, adam.m)
    vws, vbs = nn.layer_views(mlp.sizes, adam.v)
    for i, (dw, db, mw, mb, vw, vb) in enumerate(zip(dws, dbs, mws, mbs, vws, vbs)):
        mw *= ADAM_BETA1
        mw += (1.0 - ADAM_BETA1) * dw
        mb *= ADAM_BETA1
        mb += (1.0 - ADAM_BETA1) * db
        vw *= ADAM_BETA2
        vw += (1.0 - ADAM_BETA2) * dw * dw
        vb *= ADAM_BETA2
        vb += (1.0 - ADAM_BETA2) * db * db
        mlp.weights[i] -= adam.lr * (mw / c1) / (np.sqrt(vw / c2) + ADAM_EPS)
        mlp.biases[i] -= adam.lr * (mb / c1) / (np.sqrt(vb / c2) + ADAM_EPS)


def soft_update_reference(target, source, tau):
    for tw, sw in zip(target.weights, source.weights):
        tw[:] = tau * sw + (1.0 - tau) * tw
    for tb, sb in zip(target.biases, source.biases):
        tb[:] = tau * sb + (1.0 - tau) * tb


# ---------------------------------------------------------------------------
# the learners' inputs and batch-1 decisions as first written: one-hot rows
# built by scatter, inference through the training pass on a (1, n) batch,
# and the actor step's noise and clips on numpy arrays


def one_hot(indices, width: int, dtype=np.float64) -> np.ndarray:
    indices = np.asarray(indices, dtype=np.int64)
    out = np.zeros((indices.shape[0], width), dtype=dtype)
    out[np.arange(indices.shape[0]), indices] = 1.0
    return out


def forward_reference(mlp, x):
    x = np.asarray(x, dtype=mlp.params.dtype)
    y, _ = nn.forward_cached(mlp, np.atleast_2d(x))
    return y[0] if x.ndim == 1 else y


def actor_step_reference(agent, actor, s, a, explore):
    """LearnerBase._actor_step on arrays: _clipped_noise(2) and np.clip."""
    if a == agent.cloud_action:
        return ParamAction(a, 0.0, 0.0)
    x = np.concatenate([s, one_hot([a], agent.n_targets)[0]])
    p = forward_reference(actor, x)
    if explore:
        p = p + agent._clipped_noise(2)
    p = np.clip(p, -agent.scale, agent.scale)
    return ParamAction(a, float(p[0]), float(p[1]))


# ---------------------------------------------------------------------------
# the replay ring as first written: two state-wide arrays, one for the states
# and one for the next states, gathered by fancy indexing; floats in the
# learners' dtype


def bits(a: np.ndarray) -> np.ndarray:
    """a's bit patterns: a view as signed integers of a's width."""
    return a.view(f"i{a.dtype.itemsize}")


class ReplayBufferReference:
    def __init__(self, capacity: int, state_dim: int):
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim), dtype=DTYPE)
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.params = np.zeros((capacity, 2), dtype=DTYPE)
        self.rewards = np.zeros(capacity, dtype=DTYPE)
        self.next_states = np.zeros((capacity, state_dim), dtype=DTYPE)
        self.size = 0
        self.cursor = 0

    def add(self, state, action_index: int, params, reward: float, next_state):
        i = self.cursor
        self.states[i] = state
        self.actions[i] = action_index
        self.params[i] = params
        self.rewards[i] = reward
        self.next_states[i] = next_state
        self.cursor = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=batch_size)
        return (self.states[idx], self.actions[idx], self.params[idx],
                self.rewards[idx], self.next_states[idx])
