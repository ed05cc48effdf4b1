"""Parameterized-action twin-critic learner and the base of all learners.

A discrete actor scores the K+1 placement targets, a parameter actor maps
(state, chosen target) to bounded CPU/memory deltas, and two critics rate
(state, target one-hot, deltas). Targets are lagged copies blended softly
after every update. The discrete actor trains through a softmax relaxation
of its scores fed to the first critic.

LearnerBase holds what this learner shares with the DDQN and DDPG pairs of
the baselines module: replay, schedules, select, train_step, checkpoints and
the actor-critic update, which the DDPG pair runs with one critic.

A learner keeps every net, its lagged copy and its Adam state in one shared
anonymous mapping. PAT's update runs in two lanes: a helper process, forked
at its first update where two CPUs and os.fork are there, runs the second
critic's target forward and regression and the discrete actor's ascent on
that memory while this process runs the first critic's and the parameter
actor's. Each net sees the same numpy calls in the same order either way, so
the bits do not depend on the lanes. With one CPU the helper's phases run
inline, each after its counterpart in this process, as in a serial update.

The learners compute and store in one dtype, DTYPE (float32): every net,
gradient and Adam moment, the replay arrays and every batch input. The env's
features, costs and actions stay float64; a learner casts them at its own
boundary, in select and in store. Its noise is drawn in float64 as before,
the target smoothing noise then cast, so every rng stream makes the same draws.
"""

from __future__ import annotations

import bisect
import builtins
import contextlib
import functools
import json
import math
import mmap
import operator
import os
import select
import signal
import time
import traceback
import weakref
from dataclasses import dataclass, asdict
from numbers import Real

import numpy as np

from .env import ParamAction
from . import nn

HIDDEN = (128, 64)
DTYPE = np.float32  # the learners' one dtype, as above


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
        if self.beta < 0:
            raise ValueError("beta must be >= 0")
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
    action index, (d_cpu, d_mem), reward = -training cost, next state), its
    floats in DTYPE.

    The states table holds base states only. Each row keeps the slot of its
    base and one patch: its state is the base with BASE_PATCH entries
    written over it, and its next state is that state with PATCH entries
    written over it. The patch holds the positions, then the bits of their
    values, padded by repeats; positions count over the state followed by
    the next state, so a next-state entry e sits at state_dim + e. Entries
    are compared by bit pattern, so -0.0 and NaN round-trip.

    A state that differs from the current base in more than BASE_PATCH
    entries becomes the next base, written at slot n_bases % capacity. Base
    n's slot is rewritten only by base n + capacity, and every row that reads
    base n was added before base n + 1 was made, so by then that row has left
    the last capacity rows.

    A next state may differ from its state in at most PATCH entries: a
    request changes only its cell's users, CPU and memory and its VNF's
    deployed flag. add refuses any other next state with a ValueError, as it
    does a bool action index and params or a reward that are not real
    numbers (a bool is none). add converts and checks every field before it
    writes anything, so an add that raises leaves the ring as it was."""

    PATCH = 4  # entries one env request changes, as above
    BASE_PATCH = 8  # entries a stored state may differ from its base in

    def __init__(self, capacity: int, state_dim: int):
        keep_freed_memory()  # before the ring's arrays are allocated
        self.capacity = capacity
        self.states = np.zeros((capacity, state_dim), dtype=DTYPE)
        # the per-row arrays below are written before any read of their row,
        # so they are left unzeroed: zeroing reused heap memory touches it all
        self.base_slots = np.empty(capacity, dtype=np.int64)
        self.actions = np.empty(capacity, dtype=np.int64)
        self.params = np.empty((capacity, 2), dtype=DTYPE)
        self.rewards = np.empty(capacity, dtype=DTYPE)
        # each row's patch: BASE_PATCH then PATCH positions, then their bits as int32
        self.patches = np.empty((capacity, 2 * (self.BASE_PATCH + self.PATCH)), dtype=np.int32)
        self.size = 0
        self.cursor = 0
        self.n_bases = 0
        # the current base, the state and the next state being added; comparing
        # the last two rows' bits with the first two finds the state's changes
        # from the base, then the next state's from the state, at the patch's
        # positions
        self._rows = np.zeros((3, state_dim), dtype=DTYPE)
        bits = self._rows.view(np.int32).reshape(-1)
        self._older, self._newer = bits[:2 * state_dim], bits[state_dim:]

    def add(self, state, action_index: int, params, reward: float, next_state):
        rows, dim = self._rows, self.states.shape[1]
        rows[1] = state
        rows[2] = next_state
        diff = (self._newer != self._older).nonzero()[0].tolist()
        split = bisect.bisect_left(diff, dim)
        changed, moved = diff[:split], diff[split:]
        if len(moved) > self.PATCH:
            raise ValueError(f"next state differs from its state in {len(moved)} entries; "
                             f"the replay ring stores at most {self.PATCH}")
        if type(action_index) is bool:  # an int to Python, but no target
            raise ValueError(f"action_index is {action_index!r}, not an integer")
        action_index = operator.index(action_index)
        deltas = np.asarray(params)
        if deltas.shape != (2,):
            raise ValueError(f"params of shape {deltas.shape}; a transition has (d_cpu, d_mem)")
        for name, d in zip(("d_cpu", "d_mem"), params):  # a bool is an int, not a delta
            if type(d) is not float and (type(d) is bool or not isinstance(d, Real)):
                raise ValueError(f"params: {name} is {d!r}, not a real number")
        if type(reward) is not float and (type(reward) is bool or not isinstance(reward, Real)):
            raise ValueError(f"reward is {reward!r}, not a real number")
        reward = float(reward)
        if len(changed) > self.BASE_PATCH or not self.n_bases:
            self.states[self.n_bases % self.capacity] = rows[1]
            rows[0] = rows[1]
            self.n_bases += 1
            changed = []
        i = self.cursor
        self.base_slots[i] = (self.n_bases - 1) % self.capacity
        self.actions[i] = action_index
        self.params[i] = deltas
        self.rewards[i] = reward
        pos = ((changed * self.BASE_PATCH or [0] * self.BASE_PATCH)[:self.BASE_PATCH]
               + (moved * self.PATCH or [dim] * self.PATCH)[:self.PATCH])  # padded by repeats
        self.patches[i] = pos + list(map(self._newer.item, pos))
        self.cursor = (i + 1) % self.capacity
        if self.size < self.capacity:
            self.size += 1

    def sample(self, batch_size: int, rng: np.random.Generator):
        if self.size == 0:
            raise ValueError("cannot sample from an empty buffer")
        idx = rng.integers(0, self.size, size=batch_size)
        states = np.take(self.states, np.take(self.base_slots, idx), axis=0)
        patches = np.take(self.patches, idx, axis=0)
        k = self.BASE_PATCH + self.PATCH
        pos, values = patches[:, :k], patches[:, k:]
        dim = self.states.shape[1]
        starts = np.arange(batch_size)[:, None] * dim  # flat, per batch row
        np.put(states.view(np.int32), starts + pos[:, :self.BASE_PATCH],
               values[:, :self.BASE_PATCH])
        next_states = states.copy()
        np.put(next_states.view(np.int32), (starts - dim) + pos[:, self.BASE_PATCH:],
               values[:, self.BASE_PATCH:])
        return (states, np.take(self.actions, idx), np.take(self.params, idx, axis=0),
                np.take(self.rewards, idx), next_states)


def mean_value_input_grad(critic: nn.Mlp, x: np.ndarray) -> np.ndarray:
    """The gradient of the critic's batch-mean value with respect to its input x."""
    _, cache = nn.forward_cached(critic, x)
    b = x.shape[0]
    return nn.input_grad(critic, cache, np.full((b, 1), 1.0 / b, dtype=x.dtype))


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


def _clip(x: float, lo: float, hi: float) -> float:
    """np.clip of one float: NaN stays, a tie takes the bound."""
    x = lo if x <= lo else x
    return hi if x >= hi else x


@functools.cache
def keep_freed_memory():
    """Make glibc malloc keep freed memory in the process; runs once.

    By default malloc hands an update's freed temporaries back to the
    kernel, and the next update faults their pages in again: about a third
    of an update's time. The 64 MiB trim threshold keeps them in the
    process. The 4 MiB mmap threshold keeps the temporaries on the heap and
    the replay arrays lazily paged mmaps. The replay ring calls this before
    it allocates its arrays, so every ring is placed under fixed thresholds:
    glibc's default threshold rises as large blocks are freed, and in a
    process of two commands it put the second command's ring on the heap. A
    process that builds no learner keeps malloc's defaults. A malloc setting
    the user made (environment or GLIBC_TUNABLES) is kept."""
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


def shared_buffers(sizes) -> list:
    """Writable buffers of sizes (in bytes), cut at 64-byte boundaries from one
    anonymous shared mapping: a process forked later reads and writes the
    same memory."""
    starts = [0]
    for n in sizes:
        starts.append(starts[-1] + -(-n // 64) * 64)
    mem = memoryview(mmap.mmap(-1, max(starts[-1], 1)))
    return [mem[a:a + n] for a, n in zip(starts, sizes)]


def two_lanes() -> bool:
    """Whether a helper process can run beside this one: os.fork exists and
    this process may run on two CPUs or more."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


# the pipe ends this process holds to its live helpers, of every learner:
# process-wide, as each newly forked helper must close them all
_OWNER_ENDS = set()
SPIN_S = 0.002  # how long a lane polls its pipe before it sleeps on it
WAKE = 255  # a command with no reply: poll for the next one


class Helper:
    """A forked process that runs its learner's helper phases (the method
    names in _HELPER_PHASES) on the memory the two processes share.

    For each phase index read from its command pipe it runs the phase and
    writes one reply line: empty, or the JSON [type name, text] of the error
    the phase raised, whose traceback it prints to the standard error it
    shares with its owner. It ignores SIGINT, which its owner handles, and exits
    when the command pipe reads EOF: when close() or the learner's collection
    closes the pipe, or when its owner dies. It holds no pipe end of its
    owner's, so no other helper keeps its pipe open."""

    def __init__(self, learner):
        cmd_r, cmd_w = os.pipe()
        reply_r, reply_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                signal.signal(signal.SIGINT, signal.SIG_IGN)
                for fd in (cmd_w, reply_r, *_OWNER_ENDS):
                    os.close(fd)
                _serve(learner, cmd_r, reply_w)
            finally:
                os._exit(0)
        os.close(cmd_r)
        os.close(reply_w)
        os.set_blocking(reply_r, False)
        self.pid, self._cmd, self._reply = pid, cmd_w, reply_r
        _OWNER_ENDS.update((cmd_w, reply_r))
        # closes the pipe and waits for the helper once: on close() or when learner is collected
        self.close = weakref.finalize(learner, _reap, os.getpid(), pid, cmd_w, reply_r)

    def send(self, phase: int):
        os.write(self._cmd, bytes((phase,)))

    def wake(self):
        """Have the helper poll for its next phase, as it does for SPIN_S after
        each reply: a process that sleeps on its pipe wakes slowly and then
        runs slowly for a while."""
        self.send(WAKE)

    def wait(self):
        """The reply to the last phase sent: None, or [type name, text] of its error."""
        reply = b""
        while not reply.endswith(b"\n"):
            chunk = _receive(self._reply, 4096)
            if not chunk:
                return ["RuntimeError", f"the helper process {self.pid} exited"]
            reply += chunk
        return json.loads(reply) if len(reply) > 1 else None


def _serve(learner, cmd: int, reply: int):
    """The helper's loop: run each phase read from cmd and reply on reply, until EOF."""
    os.set_blocking(cmd, False)
    while got := _receive(cmd, 1):
        if got[0] == WAKE:
            continue
        try:
            getattr(learner, learner._HELPER_PHASES[got[0]])()
            out = b"\n"
        except Exception as exc:  # reported to the owner, which raises it
            traceback.print_exc()
            out = json.dumps([type(exc).__name__, str(exc)]).encode() + b"\n"
        while out:
            out = out[os.write(reply, out):]


def _receive(fd: int, n: int) -> bytes:
    """Up to n bytes of the non-blocking fd, b"" at EOF: polled for SPIN_S, then slept on."""
    deadline = time.perf_counter() + SPIN_S
    while True:
        try:
            return os.read(fd, n)
        except BlockingIOError:
            if time.perf_counter() > deadline:
                select.select([fd], [], [])


def _reap(owner: int, pid: int, *ends):
    """Close a helper's pipe ends and wait for it to exit; only its owner
    does, not a process forked from the owner."""
    if os.getpid() != owner:
        return
    for fd in ends:
        _OWNER_ENDS.discard(fd)
        os.close(fd)
    os.waitpid(pid, 0)


def npz_path(path) -> str:
    """The file np.savez writes for path: it appends .npz when missing."""
    path = os.fspath(path)
    return path if path.endswith(".npz") else path + ".npz"


class LearnerBase:
    """What the learners share: seeded rng, replay, the update counter and the
    exploration schedules derived from it, select, warm-up gated training with
    its soft updates, checkpoints, PAT's actor-critic update and its helper
    process.

    Every kind is built as Kind(state_dim, n_targets, param_scale, cfg, seed),
    param_scale being the (rho_max, eta_max) box of the deltas. A subclass
    names its kind, its config class and its optimizers (_ADAMS: optimizer ->
    net), builds its live nets in _build(s, a) through _init_nets, and
    implements _update(batch) -> stats. Its checkpointed nets (_NETS) are the
    live nets in _ADAMS order, then their lagged t_ copies. A kind whose
    update runs phases in a helper process names them in _HELPER_PHASES and
    runs each with _helper_runs; close() stops the helper."""

    _KIND = ""
    _CONFIG = PatConfig
    _NETS: tuple = ()
    _ADAMS: dict = {}
    # nets by name: select's target scorer and deltas net, the bootstrap's next-target
    # net and the critics it takes the least of; whether it smooths the target deltas
    _SELECTOR = _PARAM_NET = _NEXT_SELECTOR = ""
    _CRITICS: tuple = ()
    _SMOOTH = False
    _HELPER_PHASES: tuple = ()

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
        self.box = self.scale.astype(DTYPE)  # the same bounds for batch arrays
        # critics see deltas at half-unit scale so the one-hot target coords
        # keep the larger footing; raw-unit gradients recovered by chain rule
        self.p_feat = 2 * self.box
        self.rng = np.random.default_rng(seed)
        self.buffer = ReplayBuffer(self.cfg.buffer_capacity, self.state_dim)
        # row a: target a one-hot, row or batch gather
        self._target_rows = np.eye(self.n_targets, dtype=DTYPE)
        self.updates = 0
        self.eval_mode = False
        self._helper = None  # a Helper once an update forked one
        self._build(self.state_dim, self.n_targets)

    def _build(self, s: int, a: int):
        raise NotImplementedError

    def _net(self, *sizes, scaled: bool = False) -> nn.Mlp:
        """A DTYPE net of sizes; a scaled one has a tanh head over the delta box."""
        return nn.Mlp(sizes, self.scale if scaled else None, DTYPE)

    def _init_nets(self, **live):
        """Build the live nets of these shapes in one shared arena
        (shared_buffers), each followed by its lagged t_ copy and its
        optimizer of _ADAMS; Gaussian-init the live nets in order, and copy
        each into its t_ copy."""
        optimizer = {net: name for name, net in self._ADAMS.items()}
        buffers = iter(shared_buffers([n for net in live.values() for n in (
            net.params.nbytes, net.params.nbytes, nn.AdamState.nbytes(net))]))
        for name, shape in live.items():
            net, lagged = (nn.Mlp(shape.sizes, shape.head_scale, DTYPE, next(buffers))
                           for _ in range(2))
            nn.gaussian_init(net, self.rng)
            lagged.params[:] = net.params
            setattr(self, name, net)
            setattr(self, "t_" + name, lagged)
            setattr(self, optimizer[name], nn.AdamState(net, self.cfg.lr, next(buffers)))
        self._adam_of = {net: getattr(self, name) for name, net in self._ADAMS.items()}
        self._select_nets = (getattr(self, self._SELECTOR), getattr(self, self._PARAM_NET))

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
        """Add one transition to replay, cast to DTYPE. next_state may differ
        from state in at most ReplayBuffer.PATCH entries, as every env
        transition does, and params and reward must be real numbers; any
        other raises ValueError and stores nothing."""
        self.buffer.add(state, action_index, params, reward, next_state)

    def _clipped_noise(self, shape) -> np.ndarray:
        """Target smoothing noise, drawn and clipped in float64."""
        w = self.rng.normal(0.0, self.cfg.sigma_noise, size=shape) * self.scale
        bound = self.clip_c * self.scale
        return np.clip(w, -bound, bound)

    def _critic_input(self, states, onehots, params, out=None) -> np.ndarray:
        return np.concatenate([states, onehots, params / self.p_feat], axis=1, out=out)

    def _eps_greedy(self, net: nn.Mlp, s: np.ndarray, explore: bool) -> int:
        if explore and self.rng.random() < self.eps:
            return int(self.rng.integers(net.n_out))
        return int(nn.forward(net, s).argmax())

    def select(self, features, vnf: int = 0, state=None, has_user: bool = True) -> ParamAction:
        """Agent-callback: epsilon-greedy target of the selector net, then its deltas."""
        s = np.asarray(features, dtype=DTYPE)
        explore = not self.eval_mode
        a = self._eps_greedy(self._select_nets[0], s, explore)
        return self._actor_step(self._select_nets[1], s, a, explore)

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
        """One optimization round, each net's t_ copy soft-updated right after
        its optimizer steps; a no-op until the warmup fill is reached."""
        if self.buffer.size < self.cfg.warmup_size:
            return {"trained": False, "eps": self.eps, "clip_c": self.clip_c}
        if self._helper is not None:
            self._helper.wake()
        stats = self._update(self.buffer.sample(self.cfg.batch_size, self.rng))
        self.updates += 1
        for key, value in stats.items():
            if not math.isfinite(value):
                raise FloatingPointError(f"{self._KIND} update {self.updates}: "
                                         f"{key} is {value}")
        return {"trained": True, **stats, "eps": self.eps, "clip_c": self.clip_c}

    def _update(self, batch) -> dict:
        raise NotImplementedError

    def _blend(self, name: str):
        """Soft-update net name's t_ copy; run right after the net's optimizer
        step, as no update reads a t_ copy after that."""
        nn.soft_update(getattr(self, "t_" + name), getattr(self, name), self.cfg.tau)

    @contextlib.contextmanager
    def _helper_runs(self, phase: str):
        """Run the body while the helper runs phase, one of _HELPER_PHASES:
        in the helper process, forked at the first call where two_lanes(),
        or else inline after the body. A helper error stops the helper and is
        raised here, of its builtin type (else RuntimeError), naming the update."""
        if self._helper is None and two_lanes():
            self._helper = Helper(self)
        if self._helper is None:
            yield
            getattr(self, phase)()
            return
        self._helper.send(self._HELPER_PHASES.index(phase))
        try:
            yield
        finally:
            try:
                error = self._helper.wait()
            except BaseException:  # Ctrl-C: a reply left unread would answer the next phase
                self.close()
                raise
            if error is not None:
                self.close()
                name, text = error
                kind = getattr(builtins, name, None)
                if not (isinstance(kind, type) and issubclass(kind, Exception)):
                    kind, text = RuntimeError, f"{name}: {text}"
                raise kind(f"{self._KIND} update {self.updates + 1}: {text}")

    def close(self):
        """Stop the helper process, if one runs; a later update forks a new one."""
        if self._helper is not None:
            self._helper.close()
            self._helper = None

    def compute_targets(self, batch):
        """Bootstrapped values and their parts: reward plus the discounted
        least target critic at the next target and its target deltas."""
        _, _, _, rewards, next_states = batch
        a_next = np.argmax(nn.forward(getattr(self, self._NEXT_SELECTOR), next_states), axis=1)
        oh = self._target_rows[a_next]
        p_next = nn.forward(getattr(self, "t_" + self._PARAM_NET),
                            np.concatenate([next_states, oh], axis=1))
        if self._SMOOTH:
            noise = self._clipped_noise((next_states.shape[0], 2)).astype(DTYPE)
            p_next = np.clip(p_next + noise, -self.box, self.box)
        p_next[a_next == self.cloud_action] = 0.0  # offloads carry no parameters
        qs = self._target_values(next_states, oh, p_next)
        y = rewards + self.cfg.gamma * functools.reduce(np.minimum, qs)
        return y, {"a_next": a_next, "p_next": p_next, "q": qs}

    def _target_values(self, next_states, onehots, p_next) -> list:
        """Each target critic's values at the next states, targets and deltas."""
        xc = self._critic_input(next_states, onehots, p_next)
        return [nn.forward(getattr(self, "t_" + name), xc)[:, 0] for name in self._CRITICS]

    def update_critics(self, batch, y) -> tuple:
        """One mean-squared-error step of each critic toward y; the losses before it."""
        states, actions, params, _, _ = batch
        xc = self._critic_input(states, self._target_rows[actions], params)
        return tuple(self._fit_critic(name, xc, y) for name in self._CRITICS)

    def _fit_critic(self, name: str, xc, y) -> float:
        """One mean-squared-error step of critic name toward y at inputs xc; the loss before it."""
        net = getattr(self, name)
        q, cache = nn.forward_cached(net, xc)
        resid = q[:, 0] - y
        loss = float(np.mean(resid * resid))
        gq = (2.0 / xc.shape[0]) * resid[:, None]
        self._adam_of[name].step(net, nn.backward(net, cache, gq))
        self._blend(name)
        return loss

    def update_actors(self, batch):
        """Ascend the first critic through the parameter actor at the stored targets."""
        states, actions, _, _, _ = batch
        ascend_param_actor(getattr(self, self._PARAM_NET), self._adam_of[self._PARAM_NET],
                           getattr(self, self._CRITICS[0]), states,
                           self._target_rows[actions], param_scale=self.p_feat)
        self._blend(self._PARAM_NET)

    def _update_params(self, batch) -> tuple:
        """The actor-critic update: bootstrap, critics, actors; the critics' losses."""
        y, _ = self.compute_targets(batch)
        losses = self.update_critics(batch, y)
        self.update_actors(batch)
        return losses

    # ------------------------------------------------------------------
    # checkpointing

    def _checkpoint_arrays(self) -> dict:
        """Every checkpoint array by key, in the file's order: each net's
        layers (name.w0, name.b0, name.w1, ..., then name.scale of a tanh
        head), then each optimizer's step count and moments (name.t, then
        name.mw0, name.mb0, name.vw0, name.vb0, name.mw1, ...). The layers
        and moments are views of this learner's arrays, which load writes
        through; name.t is a copy of the count."""
        arrays = {}
        for name in self._NETS:
            net = getattr(self, name)
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                arrays[f"{name}.w{i}"], arrays[f"{name}.b{i}"] = w, b
            if net.head_scale is not None:
                arrays[f"{name}.scale"] = net.head_scale
        for name, net in self._ADAMS.items():
            adam, sizes = getattr(self, name), getattr(self, net).sizes
            arrays[f"{name}.t"] = np.array(adam.t)
            moments = zip(*nn.layer_views(sizes, adam.m), *nn.layer_views(sizes, adam.v))
            for i, layer in enumerate(moments):
                arrays.update(zip((f"{name}.{part}{i}" for part in ("mw", "mb", "vw", "vb")),
                                  layer))
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
            # at call time: harness imports this module
            from .harness import _build_section, finite_number
            scale = meta["scale"] if "scale" in meta else [meta["span_cpu"], meta["span_mem"]]
            if type(scale) is not list or len(scale) != 2 or not all(map(finite_number, scale)):
                raise ValueError(f"{path}: meta: {'/'.join(spans)} takes two finite numbers, "
                                 f"not {scale!r}")
            cfg = _build_section(cls._CONFIG, meta["cfg"], f"{path}: meta: cfg")
            try:
                agent = cls(meta["state_dim"], meta["n_targets"], scale, cfg, seed=seed)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: meta: {exc}") from exc
            for key, arr in agent._checkpoint_arrays().items():
                if key not in data:
                    raise ValueError(f"{path}: {key}: not in the checkpoint")
                stored = data[key]
                if stored.shape != arr.shape:
                    raise ValueError(f"{path}: {key}: stored shape {stored.shape}, "
                                     f"expected {arr.shape}")
                if key.endswith(".t"):  # an optimizer's step count; arr is a copy
                    getattr(agent, key[:-2]).t = int(stored)
                else:
                    arr[...] = stored
            agent.updates = meta["updates"]
        return agent


class PatAgent(LearnerBase):
    """Twin-critic learner over parameterized placement actions. Its helper
    lane runs the second critic's target forward and regression and the
    discrete actor's ascent, on batch arrays in shared memory (_lane_arrays)."""

    _KIND = "pat"
    _ADAMS = {"adam_actor_action": "actor_action", "adam_actor_param": "actor_param",
              "adam_critic_1": "critic_1", "adam_critic_2": "critic_2"}
    _SELECTOR = "actor_action"
    _PARAM_NET = "actor_param"
    _NEXT_SELECTOR = "t_actor_action"
    _CRITICS = ("critic_1", "critic_2")
    _SMOOTH = True
    _HELPER_PHASES = ("_target_q2", "_fit_critic_2", "_ascend_actor_action")

    def _build(self, s: int, a: int):
        self._init_nets(actor_action=self._net(s, *HIDDEN, a),
                        actor_param=self._net(s + a, *HIDDEN, 2, scaled=True),
                        critic_1=self._net(s + a + 2, *HIDDEN, 1),
                        critic_2=self._net(s + a + 2, *HIDDEN, 1))
        self._lane = None  # the shared batch arrays, made at the first update

    def _lane_arrays(self, rows: int) -> dict:
        """The batch arrays both lanes read and write, in shared memory, for
        batches of rows. Making new ones stops a running helper, which holds
        the old ones; the next update forks one that holds these."""
        if self._lane is None or len(self._lane["y"]) != rows:
            self.close()
            width = self.state_dim + self.n_targets + 2
            shapes = {"xc_next": (rows, width), "xc": (rows, width),
                      "states": (rows, self.state_dim), "params": (rows, 2),
                      "q2": (rows,), "y": (rows,), "loss_2": (1,)}
            buffers = shared_buffers([math.prod(shape) * DTYPE().itemsize
                                      for shape in shapes.values()])
            self._lane = {name: np.frombuffer(buf, DTYPE).reshape(shape)
                          for (name, shape), buf in zip(shapes.items(), buffers)}
        return self._lane

    def _target_values(self, next_states, onehots, p_next) -> list:
        lane = self._lane_arrays(len(next_states))
        xc = self._critic_input(next_states, onehots, p_next, out=lane["xc_next"])
        with self._helper_runs("_target_q2"):
            q1 = nn.forward(self.t_critic_1, xc)[:, 0]
        return [q1, lane["q2"].copy()]

    def _target_q2(self):
        self._lane["q2"][:] = nn.forward(self.t_critic_2, self._lane["xc_next"])[:, 0]

    def update_critics(self, batch, y) -> tuple:
        """One mean-squared-error step of each critic toward y, cast to DTYPE;
        the losses before it."""
        states, actions, params, _, _ = batch
        lane = self._lane_arrays(len(actions))
        self._critic_input(states, self._target_rows[actions], params, out=lane["xc"])
        lane["y"][:] = y
        with self._helper_runs("_fit_critic_2"):
            loss_1 = self._fit_critic("critic_1", lane["xc"], lane["y"])
        return loss_1, float(lane["loss_2"][0])

    def _fit_critic_2(self):
        self._lane["loss_2"][0] = self._fit_critic("critic_2", self._lane["xc"], self._lane["y"])

    def update_actors(self, batch):
        """Ascend the first critic: deltas through the parameter head, target
        scores through a softmax relaxation at the stored deltas."""
        states, _, params, _, _ = batch
        lane = self._lane_arrays(len(states))
        lane["states"][:] = states
        lane["params"][:] = params
        with self._helper_runs("_ascend_actor_action"):
            super().update_actors(batch)

    def _ascend_actor_action(self):
        states, params = self._lane["states"], self._lane["params"]
        scores, cache_a = nn.forward_cached(self.actor_action, states)
        soft = nn.softmax(scores)
        gin = mean_value_input_grad(self.critic_1, self._critic_input(states, soft, params))
        ga = gin[:, self.state_dim:self.state_dim + self.n_targets]
        gscores = soft * (ga - (ga * soft).sum(axis=1, keepdims=True))
        self.adam_actor_action.step(self.actor_action,
                                    nn.backward(self.actor_action, cache_a, -gscores))
        self._blend("actor_action")

    def _update(self, batch) -> dict:
        return dict(zip(("critic_loss_1", "critic_loss_2"), self._update_params(batch)))
