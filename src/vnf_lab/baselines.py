"""Reference policies: greedy packing, cloud-only, uniform random, and two
DRL pairs (double-DQN selector with either a lattice Q-network or a
deterministic-gradient parameter actor).

Every agent implements select(features, vnf, state, has_user) -> ParamAction;
the two pairs run on pat.LearnerBase, so they share the PAT learner's replay,
schedules, select, train_step with its soft updates and checkpoints, and the
DDPG pair's parameter side is PAT's actor-critic update with one critic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .env import ParamAction, PoolConfig, resource_range
from .pat import HIDDEN, LearnerBase, PatConfig
from . import nn


class GreedyAgent:
    """Vertical-first packing at the minimal SLA-satisfying allocation."""

    def __init__(self, pool: PoolConfig, specs):
        self.pool = pool
        self.specs = list(specs)

    def select(self, features, vnf: int, state, has_user: bool = True) -> ParamAction:
        if not has_user:
            # the policy is defined per new user; an idle visit becomes a no-op
            return ParamAction(self.pool.k_servers, 0.0, 0.0)
        spec = self.specs[vnf]
        pool = self.pool
        # vertical: grow an existing instance to the new lower bounds
        for k in range(pool.k_servers):
            if state.cpu[k, vnf] <= 0:
                continue
            u_new = int(state.users[k, vnf]) + 1
            c_low, _, m_low, _ = resource_range(spec, u_new)
            row_c = state.cpu[k].sum() - state.cpu[k, vnf] + c_low
            row_m = state.mem[k].sum() - state.mem[k, vnf] + m_low
            if row_c <= pool.rho_max and row_m <= pool.eta_max:
                return ParamAction(k, float(c_low - state.cpu[k, vnf]),
                                   float(m_low - state.mem[k, vnf]))
        # horizontal: deploy a fresh minimal instance
        c_low, _, m_low, _ = resource_range(spec, 1)
        for k in range(pool.k_servers):
            if state.cpu[k, vnf] > 0:
                continue
            if state.cpu[k].sum() + c_low <= pool.rho_max \
                    and state.mem[k].sum() + m_low <= pool.eta_max:
                return ParamAction(k, float(c_low), float(m_low))
        return ParamAction(pool.k_servers, 0.0, 0.0)


class CloudAgent:
    """Offloads every request."""

    def __init__(self, pool: PoolConfig):
        self.cloud = pool.k_servers

    def select(self, features, vnf: int, state, has_user: bool = True) -> ParamAction:
        return ParamAction(self.cloud, 0.0, 0.0)


class RandomAgent:
    """Uniform target, uniform deltas over the full parameter box."""

    def __init__(self, pool: PoolConfig, seed=0):
        self.pool = pool
        self.rng = np.random.default_rng(seed)

    def select(self, features, vnf: int, state, has_user: bool = True) -> ParamAction:
        a = int(self.rng.integers(self.pool.k_servers + 1))
        if a == self.pool.k_servers:
            return ParamAction(a, 0.0, 0.0)
        return ParamAction(a,
                           float(self.rng.uniform(-self.pool.rho_max, self.pool.rho_max)),
                           float(self.rng.uniform(-self.pool.eta_max, self.pool.eta_max)))


class DiscretizedGrid:
    """Centered delta lattice: per axis, span/resolution cells stepping by
    the resolution, from -res*floor(cells/2) upward."""

    def __init__(self, resolution: float, span_cpu: float, span_mem: float):
        if resolution <= 0:
            raise ValueError("resolution must be > 0")
        self.resolution = float(resolution)
        self.values_cpu = self._axis(span_cpu)
        self.values_mem = self._axis(span_mem)
        self.n_cells = len(self.values_cpu) * len(self.values_mem)

    def _axis(self, span: float) -> np.ndarray:
        cells = max(int(round(span / self.resolution)), 1)
        lo = -self.resolution * (cells // 2)
        return lo + self.resolution * np.arange(cells)

    def delta(self, index: int):
        nm = len(self.values_mem)
        return float(self.values_cpu[index // nm]), float(self.values_mem[index % nm])

    def cells_of(self, params: np.ndarray) -> np.ndarray:
        """Nearest cell of each (d_cpu, d_mem) row, per axis the first of
        equally near lattice values."""
        ic = np.argmin(np.abs(self.values_cpu - params[:, :1]), axis=1)
        im = np.argmin(np.abs(self.values_mem - params[:, 1:]), axis=1)
        return ic * len(self.values_mem) + im


@dataclass(frozen=True)
class BaselineRlConfig(PatConfig):
    """The learner table of PatConfig plus the pairs' delta lattice step and
    phase length."""

    resolution: float = 5.0
    alternation_period: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.resolution <= 0 or self.alternation_period < 1:
            raise ValueError("resolution must be > 0 and alternation_period >= 1")


def dqn_grad(net: nn.Mlp, target: nn.Mlp, states, actions, rewards, next_states,
             gamma: float) -> tuple:
    """A double-DQN step's (loss, gradient): online argmax picks, target evaluates."""
    b = states.shape[0]
    rows = np.arange(b)
    a_star = np.argmax(nn.forward(net, next_states), axis=1)
    y = rewards + gamma * nn.forward(target, next_states)[rows, a_star]
    q, cache = nn.forward_cached(net, states)
    resid = q[rows, actions] - y
    gout = np.zeros_like(q)
    gout[rows, actions] = (2.0 / b) * resid
    return float(np.mean(resid * resid)), nn.backward(net, cache, gout)


class _PairedLearner(LearnerBase):
    """Two-network baselines: a double-DQN server selector and a parameter side
    (_update_params), trained in alternating phases of alternation_period updates."""

    _CONFIG = BaselineRlConfig
    _SELECTOR = "server_q"

    @property
    def phase(self) -> int:
        """0 trains the server selector, 1 trains the parameter side."""
        return (self.updates // self.cfg.alternation_period) % 2

    def _update(self, batch) -> dict:
        if self.phase == 1:
            return {"loss": self._update_params(batch)[0]}
        states, actions, _, rewards, next_states = batch
        loss, grad = dqn_grad(self.server_q, self.t_server_q, states, actions, rewards,
                              next_states, self.cfg.gamma)
        self._step("server_q", grad)
        return {"loss": loss}


class DdqnPairAgent(_PairedLearner):
    """Double-DQN over servers paired with a Q-network over the delta lattice
    of cfg.resolution that spans the parameter box."""

    _KIND = "ddqn"
    _PARAM_NET = "param_q"

    def _build(self, s: int, a: int):
        self.grid = DiscretizedGrid(self.cfg.resolution, *self._box)
        self._init_nets(server_q=("adam_server", self._net(s, *HIDDEN, a)),
                        param_q=("adam_param", self._net(s, *HIDDEN, self.grid.n_cells)))

    def _actor_step(self, param_q: nn.Mlp, s, a: int, explore: bool) -> ParamAction:
        """Target a with the epsilon-greedy lattice cell of param_q."""
        if a == self.cloud_action:
            return ParamAction(a, 0.0, 0.0)
        return ParamAction(a, *self.grid.delta(self._eps_greedy(param_q, s, explore)))

    def _update_params(self, batch) -> tuple:
        states, _, params, rewards, next_states = batch
        loss, grad = dqn_grad(self.param_q, self.t_param_q, states, self.grid.cells_of(params),
                              rewards, next_states, self.cfg.gamma)
        self._step("param_q", grad)
        return (loss,)


class DdpgPairAgent(_PairedLearner):
    """Double-DQN server selector paired with PAT's actor-critic parameter
    side on a single critic, bootstrapped at the online selector's next
    target with no target smoothing noise."""

    _KIND = "ddpg"
    _PARAM_NET = "actor"
    _NEXT_SELECTOR = "server_q"
    _CRITICS = ("critic",)

    def _build(self, s: int, a: int):
        self._init_nets(server_q=("adam_server", self._net(s, *HIDDEN, a)),
                        actor=("adam_actor", self._net(s + a, *HIDDEN, 2, scaled=True)),
                        critic=("adam_critic", self._net(s + a + 2, *HIDDEN, 1)))
