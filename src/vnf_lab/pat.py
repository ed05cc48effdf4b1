"""Parameterized-action twin-critic learner and the base of all learners.

A discrete actor scores the K+1 placement targets, a parameter actor maps
(state, chosen target) to bounded CPU/memory deltas, and two critics rate
(state, target one-hot, deltas). Targets are lagged copies blended softly
after every update. The discrete actor trains through a softmax relaxation
of its scores fed to the first critic.

LearnerBase holds what this learner shares with the DDQN and DDPG pairs of
the baselines module: replay, schedules, exploration, train_step and
checkpoints.
"""

from __future__ import annotations

import functools
import json
import math
import os
from dataclasses import dataclass, asdict

import numpy as np

from .env import ParamAction
from . import nn

HIDDEN = (128, 64)


@dataclass(frozen=True)
class PatConfig:
    gamma: float = 0.99
    tau: float = 5e-3
    lr: float = 1e-3
    eps: float = 0.8
    eps_min: float = 0.05
    eps_decay: float = 1e-3
    sigma_noise: float = 0.2
    clip_c: float = 0.5
    clip_c_min: float = 0.1
    beta: float = 0.2
    gamma_max: float = 100.0
    batch_size: int = 128
    buffer_capacity: int = 100_000
    warmup_size: int = 5_000
    updates_per_epoch: int = 1

    def __post_init__(self):
        if not 0 <= self.gamma <= 1:
            raise ValueError("gamma must lie in [0, 1]")
        if not 0 < self.tau <= 1:
            raise ValueError("tau must lie in (0, 1]")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if not 0 <= self.eps_min <= self.eps <= 1:
            raise ValueError("need 0 <= eps_min <= eps <= 1")
        if self.eps_decay < 0 or self.sigma_noise < 0:
            raise ValueError("eps_decay and sigma_noise must be >= 0")
        if not 0 <= self.clip_c_min <= self.clip_c:
            raise ValueError("need 0 <= clip_c_min <= clip_c")
        if self.gamma_max <= 0:
            raise ValueError("gamma_max must be > 0")
        if min(self.batch_size, self.buffer_capacity, self.warmup_size,
               self.updates_per_epoch) < 1:
            raise ValueError("batch/buffer/warmup/updates sizes must be >= 1")
        if self.batch_size > self.buffer_capacity:
            raise ValueError("batch_size cannot exceed buffer_capacity")


class ReplayBuffer:
    """Fixed-capacity ring with uniform with-replacement sampling of (state,
    action index, (d_cpu, d_mem), reward = -training cost, next state).

    Each state is stored once. Row i's next state is read back as row i's
    own state with the row's patch of PATCH entries written over it, so a
    next state may differ from its state in at most PATCH entries, compared
    by bit pattern (so -0.0 and NaN round-trip): a request changes only its
    cell's users, CPU and memory and its VNF's deployed flag. add refuses any
    other next state with a ValueError, before it writes to the ring."""

    PATCH = 4  # entries one env request changes, as above

    def __init__(self, capacity: int, state_dim: int):
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim))
        # the per-row arrays below are written before any read of their row,
        # so they are left unzeroed: zeroing reused heap memory touches it all
        self.actions = np.empty(capacity, dtype=np.int64)
        self.params = np.empty((capacity, 2))
        self.rewards = np.empty(capacity)
        # each row's patch: PATCH positions, then the bits of their PATCH values
        self.patches = np.empty((capacity, 2 * self.PATCH), dtype=np.int64)
        self._pair = np.empty((2, state_dim))  # the state and next state being added
        self._pair_bits = self._pair.view(np.int64)
        self.size = 0
        self.cursor = 0

    def add(self, state, action_index: int, params, reward: float, next_state):
        pair, (before, after) = self._pair, self._pair_bits
        pair[0] = state
        pair[1] = next_state
        diff = (after != before).nonzero()[0].tolist()
        if len(diff) > self.PATCH:
            raise ValueError(f"next state differs from its state in {len(diff)} entries; "
                             f"the replay ring stores at most {self.PATCH}")
        i = self.cursor
        self.states[i] = pair[0]
        self.actions[i] = action_index
        self.params[i] = params
        self.rewards[i] = reward
        p, q, r, s = (diff * self.PATCH or [0] * self.PATCH)[:self.PATCH]  # padded by repeats
        v = after.item
        self.patches[i] = p, q, r, s, v(p), v(q), v(r), v(s)
        self.cursor = (i + 1) % self.capacity
        if self.size < self.capacity:
            self.size += 1

    def sample(self, batch_size: int, rng: np.random.Generator):
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=batch_size)
        states = np.take(self.states, idx, axis=0)
        next_states = states.copy()
        patches = np.take(self.patches, idx, axis=0)
        starts = np.arange(batch_size)[:, None] * self.states.shape[1]  # flat, per batch row
        np.put(next_states.view(np.int64), starts + patches[:, :self.PATCH],
               patches[:, self.PATCH:])
        return (states, np.take(self.actions, idx), np.take(self.params, idx, axis=0),
                np.take(self.rewards, idx), next_states)


def mean_value_input_grad(critic: nn.Mlp, x: np.ndarray) -> np.ndarray:
    """The gradient of the critic's batch-mean value with respect to its input x."""
    _, cache = nn.forward_cached(critic, x)
    return nn.input_grad(critic, cache, np.full((x.shape[0], 1), 1.0 / x.shape[0]))


def ascend_param_actor(actor: nn.Mlp, adam: nn.AdamState, critic: nn.Mlp,
                       states: np.ndarray, onehots: np.ndarray,
                       param_scale: np.ndarray) -> np.ndarray:
    """One ascent step of the parameter actor through a frozen critic.

    param_scale is the box bound the critic's param inputs are normalized by;
    the returned chain rule stays in raw units."""
    xp = np.concatenate([states, onehots], axis=1)
    p, cache_a = nn.forward_cached(actor, xp)
    xc = np.concatenate([states, onehots, p / param_scale], axis=1)
    gp = mean_value_input_grad(critic, xc)[:, xp.shape[1]:] / param_scale
    adam.step(actor, nn.backward(actor, cache_a, -gp))
    return p


def regress_critic(net: nn.Mlp, adam: nn.AdamState, x: np.ndarray, y: np.ndarray) -> float:
    """One mean-squared-error step of a scalar critic toward fixed targets;
    returns the loss before the step."""
    q, cache = nn.forward_cached(net, x)
    resid = q[:, 0] - y
    loss = float(np.mean(resid * resid))
    adam.step(net, nn.backward(net, cache, (2.0 / x.shape[0]) * resid[:, None]))
    return loss


def _clip(x: float, lo: float, hi: float) -> float:
    """np.clip of one float: NaN stays, a tie takes the bound."""
    x = lo if x <= lo else x
    return hi if x >= hi else x


@functools.cache
def keep_freed_memory():
    """Make glibc malloc keep freed memory in the process; runs once.

    By default malloc hands an update's freed temporaries back to the
    kernel, and the next update faults their pages in again: about a third
    of an update's time. The 4 MiB mmap threshold keeps the temporaries on
    the heap and leaves the replay arrays lazily paged mmaps. Called before
    the first update, not at import, so a process that never trains keeps
    malloc's defaults and its smaller peak memory. A malloc setting the
    user made (environment or GLIBC_TUNABLES) is kept."""
    if ("MALLOC_TRIM_THRESHOLD_" in os.environ or "MALLOC_MMAP_THRESHOLD_" in os.environ
            or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", "")):
        return
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    mallopt(-3, 4 << 20)   # M_MMAP_THRESHOLD


def npz_path(path) -> str:
    """The file np.savez writes for path: it appends .npz when missing."""
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


class LearnerBase:
    """Plumbing shared by the learners: seeded rng, replay, the update counter
    and the exploration schedules derived from it, the bounded-delta actor
    step, warm-up gated training and checkpoints.

    Every kind is built as Kind(state_dim, n_targets, param_scale, cfg, seed),
    param_scale being the (rho_max, eta_max) box of the deltas. A subclass
    names its kind, its config class and its optimizers (_ADAMS: optimizer ->
    net), builds its live nets in _build(s, a) through _init_nets, and
    implements _update(batch) -> stats. Its checkpointed nets (_NETS) are the
    live nets in _ADAMS order, then their lagged t_ copies."""

    _KIND = ""
    _CONFIG = PatConfig
    _NETS: tuple = ()
    _ADAMS: dict = {}

    def __init_subclass__(cls):
        live = tuple(cls._ADAMS.values())
        cls._NETS = live + tuple("t_" + name for name in live)

    def __init__(self, state_dim: int, n_targets: int, param_scale, cfg=None, seed=0):
        self.cfg = cfg or self._CONFIG()
        self.state_dim = int(state_dim)
        self.n_targets = int(n_targets)
        self.scale = np.asarray(param_scale, dtype=np.float64)
        if self.scale.shape != (2,) or (self.scale <= 0).any():
            raise ValueError("param_scale must be two positive bounds")
        self._box = tuple(self.scale.tolist())  # (rho_max, eta_max) as floats
        # critics see deltas at half-unit scale so the one-hot target coords
        # keep the larger footing; raw-unit gradients recovered by chain rule
        self.p_feat = 2.0 * self.scale
        self.rng = np.random.default_rng(seed)
        self.buffer = ReplayBuffer(self.cfg.buffer_capacity, self.state_dim)
        self._target_rows = np.eye(self.n_targets)  # row a: target a one-hot, row or batch gather
        self.updates = 0
        self.eval_mode = False
        self._build(self.state_dim, self.n_targets)

    def _build(self, s: int, a: int):
        raise NotImplementedError

    def _init_nets(self, **live):
        """Gaussian-init the live nets in order, clone each into its lagged
        t_ copy, and give every optimizer of _ADAMS its net."""
        for name, net in live.items():
            nn.gaussian_init(net, self.rng)
            setattr(self, name, net)
            setattr(self, "t_" + name, nn.clone(net))
        for name, net in self._ADAMS.items():
            setattr(self, name, nn.AdamState(getattr(self, net), lr=self.cfg.lr))

    # schedules derive from the update counter so they are exact
    @property
    def eps(self) -> float:
        return max(self.cfg.eps - self.updates * self.cfg.eps_decay, self.cfg.eps_min)

    @property
    def clip_c(self) -> float:
        return max(self.cfg.clip_c - self.updates * self.cfg.eps_decay, self.cfg.clip_c_min)

    @property
    def cloud_action(self) -> int:
        return self.n_targets - 1

    def set_eval(self, flag: bool):
        self.eval_mode = bool(flag)

    def store(self, state, action_index: int, params, reward: float, next_state):
        """Add one transition to replay. next_state may differ from state in
        at most ReplayBuffer.PATCH entries, as every env transition does;
        any other raises ValueError and stores nothing."""
        self.buffer.add(state, action_index, params, reward, next_state)

    def _clipped_noise(self, shape) -> np.ndarray:
        w = self.rng.normal(0.0, self.cfg.sigma_noise, size=shape) * self.scale
        bound = self.clip_c * self.scale
        return np.clip(w, -bound, bound)

    def _critic_input(self, states, onehots, params) -> np.ndarray:
        return np.concatenate([states, onehots, params / self.p_feat], axis=1)

    def _eps_greedy(self, net: nn.Mlp, s: np.ndarray, explore: bool) -> int:
        if explore and self.rng.random() < self.eps:
            return int(self.rng.integers(net.n_out))
        return int(nn.forward(net, s).argmax())

    def _actor_step(self, actor: nn.Mlp, s: np.ndarray, a: int, explore: bool) -> ParamAction:
        """Target a with the actor's deltas, noisy while exploring and clipped
        to the box; offloads carry no deltas. The noise is _clipped_noise(2)
        and the clips np.clip, in Python floats: the same draw and bits."""
        if a == self.cloud_action:
            return ParamAction(a, 0.0, 0.0)
        p_cpu, p_mem = nn.forward(actor, np.concatenate([s, self._target_rows[a]])).tolist()
        rho, eta = self._box
        if explore:
            w_cpu, w_mem = self.rng.normal(0.0, self.cfg.sigma_noise, size=2).tolist()
            c = self.clip_c
            p_cpu += _clip(w_cpu * rho, -(c * rho), c * rho)
            p_mem += _clip(w_mem * eta, -(c * eta), c * eta)
        return ParamAction(a, _clip(p_cpu, -rho, rho), _clip(p_mem, -eta, eta))

    def train_step(self) -> dict:
        """One optimization round; a no-op until the warmup fill is reached."""
        if self.buffer.size < self.cfg.warmup_size:
            return {"trained": False, "eps": self.eps, "clip_c": self.clip_c}
        keep_freed_memory()
        stats = self._update(self.buffer.sample(self.cfg.batch_size, self.rng))
        self.updates += 1
        for key, value in stats.items():
            if not math.isfinite(value):
                raise FloatingPointError(f"{self._KIND} update {self.updates}: "
                                         f"{key} is {value}")
        return {"trained": True, **stats, "eps": self.eps, "clip_c": self.clip_c}

    def _update(self, batch) -> dict:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # checkpointing

    def _checkpoint_arrays(self) -> dict:
        """Every checkpoint array by key, the nets' then the optimizers';
        views of this learner's arrays, so nn.load_state writes into them."""
        arrays = {}
        for name in self._NETS:
            arrays.update(nn.mlp_state(getattr(self, name), name))
        for name in self._ADAMS:
            arrays.update(nn.adam_state(getattr(self, name), name))
        return arrays

    def save(self, path) -> str:
        """Write nets, optimizer moments and meta; returns the file written."""
        data = self._checkpoint_arrays()
        meta = {"kind": self._KIND, "state_dim": self.state_dim,
                "n_targets": self.n_targets, "scale": self.scale.tolist(),
                "updates": self.updates, "cfg": asdict(self.cfg)}
        data["meta"] = np.array(json.dumps(meta))
        path = npz_path(path)
        np.savez(path, **data)
        return path

    @classmethod
    def load(cls, path, seed=0):
        path = npz_path(path)
        with np.load(path, allow_pickle=False) as data:
            if "meta" not in data:
                raise ValueError(f"{path}: meta: not in the checkpoint")
            try:
                meta = json.loads(str(data["meta"]))
            except ValueError:
                meta = None
            if not isinstance(meta, dict):
                raise ValueError(f"{path}: meta: not a JSON object")
            if meta.get("kind") != cls._KIND:
                raise ValueError(f"{path}: checkpoint of a {meta.get('kind')!r} learner, "
                                 f"not {cls._KIND!r}")
            # a DDQN checkpoint of older releases stores its lattice's spans, not scale
            spans = ("scale",) if "scale" in meta else ("span_cpu", "span_mem")
            for key in ("state_dim", "n_targets", *spans, "cfg", "updates"):
                if key not in meta:
                    raise ValueError(f"{path}: meta: no {key!r} key")
            for key, low in (("state_dim", 1), ("n_targets", 1), ("updates", 0)):
                if type(meta[key]) is not int or meta[key] < low:
                    raise ValueError(f"{path}: meta: {key} takes integers >= {low}, "
                                     f"not {meta[key]!r}")
            scale = meta["scale"] if "scale" in meta else (meta["span_cpu"], meta["span_mem"])
            try:
                agent = cls(meta["state_dim"], meta["n_targets"], scale,
                            cls._CONFIG(**meta["cfg"]), seed=seed)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: meta: {exc}") from exc
            try:
                nn.load_state(data, agent._checkpoint_arrays())
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
            for name in cls._ADAMS:
                getattr(agent, name).t = int(data[f"{name}.t"])
            agent.updates = meta["updates"]
        return agent


class PatAgent(LearnerBase):
    """Twin-critic learner over parameterized placement actions."""

    _KIND = "pat"
    _ADAMS = {"adam_actor_action": "actor_action", "adam_actor_param": "actor_param",
              "adam_critic_1": "critic_1", "adam_critic_2": "critic_2"}

    def _build(self, s: int, a: int):
        self._init_nets(actor_action=nn.Mlp((s, *HIDDEN, a)),
                        actor_param=nn.Mlp((s + a, *HIDDEN, 2), head_scale=self.scale),
                        critic_1=nn.Mlp((s + a + 2, *HIDDEN, 1)),
                        critic_2=nn.Mlp((s + a + 2, *HIDDEN, 1)))

    def select(self, features, vnf: int = 0, state=None, has_user: bool = True) -> ParamAction:
        """Agent-callback: epsilon-greedy target, noisy bounded deltas."""
        s = np.asarray(features, dtype=np.float64)
        explore = not self.eval_mode
        a = self._eps_greedy(self.actor_action, s, explore)
        return self._actor_step(self.actor_param, s, a, explore)

    def compute_targets(self, batch):
        """Bootstrapped values: reward plus the discounted lesser target critic
        at the target policy's smoothed action."""
        _, _, _, rewards, next_states = batch
        b = next_states.shape[0]
        scores = nn.forward(self.t_actor_action, next_states)
        a_next = np.argmax(scores, axis=1)
        oh = self._target_rows[a_next]
        p_next = nn.forward(self.t_actor_param, np.concatenate([next_states, oh], axis=1))
        p_next = np.clip(p_next + self._clipped_noise((b, 2)), -self.scale, self.scale)
        p_next[a_next == self.cloud_action] = 0.0  # offloads carry no parameters
        xc = self._critic_input(next_states, oh, p_next)
        q1 = nn.forward(self.t_critic_1, xc)[:, 0]
        q2 = nn.forward(self.t_critic_2, xc)[:, 0]
        y = rewards + self.cfg.gamma * np.minimum(q1, q2)
        info = {"a_next": a_next, "p_next": p_next, "q1": q1, "q2": q2}
        return y, info

    def update_critics(self, batch, y):
        states, actions, params, _, _ = batch
        xc = self._critic_input(states, self._target_rows[actions], params)
        return (regress_critic(self.critic_1, self.adam_critic_1, xc, y),
                regress_critic(self.critic_2, self.adam_critic_2, xc, y))

    def update_actors(self, batch):
        """Ascend the first critic: deltas through the parameter head, target
        scores through a softmax relaxation at the stored deltas."""
        states, actions, params, _, _ = batch
        oh = self._target_rows[actions]
        ascend_param_actor(self.actor_param, self.adam_actor_param,
                           self.critic_1, states, oh, param_scale=self.p_feat)
        scores, cache_a = nn.forward_cached(self.actor_action, states)
        soft = nn.softmax(scores)
        gin = mean_value_input_grad(self.critic_1, self._critic_input(states, soft, params))
        ga = gin[:, self.state_dim:self.state_dim + self.n_targets]
        gscores = soft * (ga - (ga * soft).sum(axis=1, keepdims=True))
        self.adam_actor_action.step(self.actor_action,
                                    nn.backward(self.actor_action, cache_a, -gscores))

    def _update(self, batch) -> dict:
        y, _ = self.compute_targets(batch)
        l1, l2 = self.update_critics(batch, y)
        self.update_actors(batch)
        for live in self._ADAMS.values():
            nn.soft_update(getattr(self, "t_" + live), getattr(self, live), self.cfg.tau)
        return {"critic_loss_1": l1, "critic_loss_2": l2}
