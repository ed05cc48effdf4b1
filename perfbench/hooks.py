"""Timing hooks installed from outside the program.

Each hook replaces a public function or method of vnf_lab's env, pat, nn,
baselines or harness modules with a wrapper that times the call and then
returns its result unchanged, so the program's own code is not edited.

Recorder (always installed) marks epoch boundaries: an epoch runs from one
advance_epoch call to the next on the same environment, so it covers the
harness's store, train_step and output work for that epoch. The last epoch
of each run over an environment has no such end and is left untimed.
Between epochs it runs the calibration kernel (calibrate.py), outside
every epoch's time.

Tracer (traced runs only) adds a span around every layer call and keeps,
per span name, each call's duration and self time (its duration minus the
time of the spans it encloses).
"""

from __future__ import annotations

import statistics
import time
import weakref

from calibrate import SpeedProbe

AGENT_KINDS = {"PatAgent": "pat", "DdqnPairAgent": "ddqn", "DdpgPairAgent": "ddpg",
               "GreedyAgent": "greedy", "CloudAgent": "cloud", "RandomAgent": "random"}


LEARNER_SPANS = ("pat.train_step", "pat.compute_targets", "pat.update_critics",
                 "pat.update_actors", "pat.replay_sample")


class StopAtFirstEpoch(Exception):
    """Raised by a set-up probe once set-up is over."""


def _batch(x) -> int:
    return 1 if getattr(x, "ndim", 1) == 1 else int(x.shape[0])


class Tracer:
    """Nested spans with self time, kept in memory for one process."""

    def __init__(self):
        self.durations = {}      # name -> [seconds per call]
        self.self_times = {}     # name -> [seconds per call, children excluded]
        self.stack = []          # per open span: time spent in its children
        self.top_level = 0.0     # summed duration of spans opened outside any span
        self.nn_calls = 0
        self.infeasible = 0
        self.pat_updates = 0     # train_step calls of the learner that updated
        self.nn_calls_in_updates = 0
        self.scale = (1.0, 1.0)  # (interpreter, learner) factors, calibrate.py

    def wrap(self, fn, name, after=None):
        """fn timed as a span; name is a string or name(args, result)."""
        clock = time.perf_counter
        stack = self.stack

        def span(*args, **kwargs):
            children = [0.0]
            nn_before = self.nn_calls
            stack.append(children)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            dur = end - start
            if stack:
                stack[-1][0] += dur
            else:
                self.top_level += dur
            label = name if isinstance(name, str) else name(args, result)
            self.durations.setdefault(label, []).append(dur)
            self.self_times.setdefault(label, []).append(dur - children[0])
            if after is not None:
                after(args, result, self.nn_calls - nn_before)
            return result

        return span

    def _count_nn(self, args, result, nested):
        self.nn_calls += 1

    def _count_infeasible(self, args, result, nested):
        self.infeasible += bool(result.infeasible)

    def _count_update(self, args, result, nested):
        if result.get("trained"):
            self.pat_updates += 1
            self.nn_calls_in_updates += nested

    def install(self, env, nn, pat, baselines):
        spans = [
            (env.VnfEnv, "advance_epoch", "env.advance_epoch", None),
            (env.VnfEnv, "encode_state", "env.encode_state", None),
            (env.VnfEnv, "apply_action", "env.apply_action", self._count_infeasible),
            (env, "cost_components", "env.cost_components", None),
            (pat.PatAgent, "train_step",
             lambda a, r: "pat.train_step" if r.get("trained") else "pat.train_step.noop",
             self._count_update),
            (pat.PatAgent, "compute_targets", "pat.compute_targets", None),
            (pat.PatAgent, "update_critics", "pat.update_critics", None),
            (pat.PatAgent, "update_actors", "pat.update_actors", None),
            (pat.ReplayBuffer, "sample", "pat.replay_sample", None),
            (pat.PatAgent, "select",
             lambda a, r: "pat.select.eval" if a[0].eval_mode else "pat.select.explore", None),
            (pat.PatAgent, "store", "pat.store", None),
            (nn, "forward_cached", lambda a, r: f"nn.forward.b{_batch(a[1])}", self._count_nn),
            (nn, "backward", lambda a, r: f"nn.backward.b{_batch(a[2])}", self._count_nn),
            (nn.AdamState, "step", "nn.adam_step", self._count_nn),
            (nn, "soft_update", "nn.soft_update", self._count_nn),
        ]
        for cls in (baselines.GreedyAgent, baselines.CloudAgent, baselines.RandomAgent,
                    baselines.DdqnPairAgent, baselines.DdpgPairAgent):
            kind = AGENT_KINDS[cls.__name__]
            spans.append((cls, "select", f"baselines.{kind}.select", None))
            # learners' store and train_step run in the epoch loop; their spans
            # only count toward trace.coverage_pct
            if hasattr(cls, "train_step"):
                spans.append((cls, "train_step", f"baselines.{kind}.train_step", None))
                spans.append((cls, "store", f"baselines.{kind}.store", None))
        for owner, attr, name, after in spans:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name, after))

    def factor(self, name: str) -> float:
        """Learner spans (train_step work and batched nn calls) scale with the
        whole calibration kernel, the rest with its interpreter part."""
        learner = name in LEARNER_SPANS or (name.startswith("nn.") and not name.endswith(".b1"))
        return self.scale[1] if learner else self.scale[0]

    def median_us(self, name: str, self_time: bool = False) -> float:
        values = (self.self_times if self_time else self.durations).get(name)
        return statistics.median(values) * 1e6 * self.factor(name) if values else 0.0

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def total(self, name: str) -> float:
        return sum(self.durations.get(name, ())) * self.factor(name)


class Recorder:
    """Epoch boundaries, request counts and learner updates of one process."""

    def __init__(self, stop_at_first_epoch: bool = False, tracer: Tracer | None = None):
        self.stop_at_first_epoch = stop_at_first_epoch
        self.tracer = tracer
        self.epochs = []              # one dict per epoch, in order
        self.speed = SpeedProbe()     # kernel runs between epochs
        self.first_epoch_at = None    # time.monotonic() when set-up ended
        self.loop_start = None        # perf_counter() at the same moment
        self.last_epoch_end = None    # perf_counter() when an epoch call last returned
        self._open = None             # (env, epoch, covered-at-start) still running
        self._streams = weakref.WeakKeyDictionary()   # env -> (seed, stream)

    def install(self, env, pat, baselines, harness):
        build_env = harness.build_env

        def tagged_build_env(cfg, seed, stream=0):
            made = build_env(cfg, seed, stream)
            self._streams[made] = (int(seed), int(stream))
            return made

        harness.build_env = tagged_build_env
        advance = env.VnfEnv.advance_epoch

        def timed_advance(env_self, policy, keep_snapshot=False):
            now = time.perf_counter()
            if self.first_epoch_at is None:
                self.first_epoch_at = time.monotonic()
                self.loop_start = now
                self.speed.sample(repeats=3)
                if self.stop_at_first_epoch:
                    raise StopAtFirstEpoch
            self._close(env_self, now)
            if self.speed.due(now):
                self.speed.sample()
                now = time.perf_counter()
            covered = self.tracer.top_level if self.tracer else 0.0
            summary = advance(env_self, policy, keep_snapshot)
            self.last_epoch_end = time.perf_counter()
            seed, stream = self._streams.get(env_self, (None, None))
            epoch = {"start": now, "dur": None, "requests": len(summary.records),
                     "users": summary.metrics.active_users, "trained": False,
                     "train_s": 0.0, "covered": None,
                     "agent": AGENT_KINDS.get(type(getattr(policy, "__self__", None)).__name__),
                     "seed": seed, "stream": stream}
            self.epochs.append(epoch)
            self._open = (env_self, epoch, covered)
            return summary

        env.VnfEnv.advance_epoch = timed_advance
        for cls in (pat.PatAgent, baselines.DdqnPairAgent, baselines.DdpgPairAgent):
            cls.train_step = self._timed_train_step(cls.train_step)

    def _timed_train_step(self, train_step):
        def timed(agent):
            start = time.perf_counter()
            result = train_step(agent)
            if result.get("trained") and self.epochs:
                self.epochs[-1]["trained"] = True
                self.epochs[-1]["train_s"] += time.perf_counter() - start
            return result
        return timed

    def _close(self, env_self, now: float):
        """End the running epoch when the same environment starts its next."""
        if self._open is not None and self._open[0] is env_self:
            _, epoch, covered = self._open
            epoch["dur"] = now - epoch["start"]
            if self.tracer is not None:
                epoch["covered"] = self.tracer.top_level - covered
        self._open = None
