"""Parameterized-action learner: selection, targets, updates, persistence."""

import collections
import json
import os
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference
from vnf_lab import cli, harness, nn, pat
from reference import bits, one_hot
from vnf_lab.baselines import BaselineRlConfig, DdpgPairAgent, DdqnPairAgent
from vnf_lab.env import ParamAction
from vnf_lab.pat import (DTYPE, LearnerBase, PatAgent, PatConfig, ReplayBuffer,
                         ascend_param_actor)

STATE_DIM = 12
N_TARGETS = 4
SCALE = (50.0, 50.0)


def make_agent(seed=0, **overrides) -> PatAgent:
    cfg = PatConfig(**{"batch_size": 8, "buffer_capacity": 64, "warmup_size": 8,
                       **overrides})
    return PatAgent(STATE_DIM, N_TARGETS, SCALE, cfg, seed=seed)


def random_batch(rng, b=8):
    """A replay batch as the ring samples it: floats in the learners' dtype."""
    states = rng.normal(0, 1, (b, STATE_DIM)).astype(DTYPE)
    actions = rng.integers(0, N_TARGETS, b)
    params = rng.uniform(-50, 50, (b, 2)).astype(DTYPE)
    params[actions == N_TARGETS - 1] = 0.0
    rewards = rng.uniform(-1, 1, b).astype(DTYPE)
    next_states = rng.normal(0, 1, (b, STATE_DIM)).astype(DTYPE)
    return states, actions, params, rewards, next_states


def fill_buffer(agent, rng, n):
    """Store n random transitions, each next state its state with PATCH
    entries redrawn, as replay takes at most that many changes."""
    states, actions, params, rewards, next_states = random_batch(rng, n)
    for i in range(n):
        pos = rng.choice(STATE_DIM, ReplayBuffer.PATCH, replace=False)
        next_state = states[i].copy()
        next_state[pos] = next_states[i, pos]
        agent.store(states[i], int(actions[i]), params[i], float(rewards[i]), next_state)


def energize(net, rng, std=0.3):
    # fresh inits are near-zero; bigger weights give measurable gradients
    for w in net.weights:
        w[:] = rng.normal(0, std, w.shape)
    for b in net.biases:
        b[:] = rng.normal(0, std, b.shape)


REPLAY_DIM = 20  # past 2 * BASE_PATCH: room to move more than BASE_PATCH entries from a base, twice
# entries that collide often, in the ring's dtype; -0.0 against 0.0 and two
# NaN payloads differ only in bits
REPLAY_VALUES = np.array([0.0, -0.0, 1.0, np.nan, np.nan], dtype=DTYPE)
bits(REPLAY_VALUES)[-1] = 0x7FC00123


@st.composite
def replay_scripts(draw):
    """A capacity of 5-7 and up to 40 adds and samples. Each added state is
    the one before it with 0-4 entries changed, as a request changes it, or
    with 9 or more changed, which moves it past BASE_PATCH from any base near
    the one before. Each added next state is drawn one of three ways: its own
    state with 0-4 entries changed, its own state with 5 or all entries
    changed, or the following added state. Changes that flip a sign bit (0.0
    to -0.0, one NaN to another) are among them. Each add carries its way."""
    capacity = draw(st.integers(5, 7))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    def changed(state, k):
        state = state.copy()
        for pos in rng.choice(REPLAY_DIM, k, replace=False):
            entry = bits(state[pos:pos + 1])
            if draw(st.booleans()):
                entry ^= np.int32(-2**31)  # the sign bit
            else:
                entry[0] = bits(np.array(rng.normal(), dtype=DTYPE))
        return state

    states = [rng.choice(REPLAY_VALUES, REPLAY_DIM)]
    for _ in range(n):
        k = draw(st.one_of(st.integers(0, 4), st.integers(9, REPLAY_DIM)))
        states.append(changed(states[-1], k))
    ops = []
    for t in range(n):
        way = draw(st.sampled_from(["patched", "whole", "following"]))
        k = {"patched": draw(st.integers(0, 4)),
             "whole": draw(st.sampled_from([5, REPLAY_DIM])), "following": 0}[way]
        next_state = changed(states[t + (way == "following")], k)
        ops.append(("add", way, states[t].copy(), int(rng.integers(4)), rng.normal(0, 1, 2),
                    float(rng.normal()), next_state))
        if draw(st.booleans()):
            ops.append(("sample", draw(st.integers(1, capacity))))
    ops.append(("sample", capacity))
    return capacity, ops, seed


def ring_arrays(buf):
    """Copies of every array of a ReplayBuffer, its base count among them."""
    return [a.copy() for a in (buf.states, buf.base_slots, buf.actions, buf.params,
                               buf.rewards, buf.patches)] + [np.array(buf.n_bases)]


def ring_row(buf, i):
    """Row i's state and next state, rebuilt from its base and its patch."""
    dim, k = buf.states.shape[1], buf.BASE_PATCH + buf.PATCH
    pos, values = buf.patches[i, :k], buf.patches[i, k:]
    state = buf.states[buf.base_slots[i]].copy()
    bits(state)[pos[:buf.BASE_PATCH]] = values[:buf.BASE_PATCH]
    next_state = state.copy()
    bits(next_state)[pos[buf.BASE_PATCH:] - dim] = values[buf.BASE_PATCH:]
    return state, next_state


class TestReplayBuffer:
    def test_ring_eviction(self):
        buf = ReplayBuffer(4, 2)
        for i in range(6):
            buf.add(np.full(2, i), i % 3, np.zeros(2), float(i), np.zeros(2))
        assert buf.size == 4 and buf.cursor == 2
        kept = sorted(ring_row(buf, i)[0][0] for i in range(buf.size))
        assert kept == [2.0, 3.0, 4.0, 5.0]

    def test_single_element_sampling(self):
        buf = ReplayBuffer(8, 2)
        buf.add(np.array([7.0, 8.0]), 1, (1.0, 2.0), 0.5, np.zeros(2))
        states, actions, params, rewards, _ = buf.sample(5, np.random.default_rng(0))
        assert (states == [7.0, 8.0]).all()
        assert (actions == 1).all() and (rewards == 0.5).all()
        assert (params == [1.0, 2.0]).all()

    def test_bad_field_leaves_the_full_ring_as_it_was(self):
        """An add whose action is a bool, or whose params or reward are not
        real numbers, raises a ValueError naming the field before it writes
        any of the row: on a full ring, row 0 keeps its old transition, and
        the add's state, far from the base, makes no base. A bool is an int
        to Python but neither a target nor a number here. A NaN delta or
        reward is a real number and is stored."""
        buf = ReplayBuffer(2, 10)
        for i in range(2):
            buf.add(np.full(10, float(i)), i, (0.5, 0.5), 0.1, np.full(10, float(i)))
        before = ring_arrays(buf)
        for action, params, reward, error in (
                (2, (1.0, 2.0, 3.0), 0.2, r"params of shape \(3,\)"),
                (2, (1.0, None), 0.2, "d_mem is None, not a real number"),
                (2, ("2", 3.0), 0.2, "d_cpu is '2', not a real number"),
                (2, (True, 3.0), 0.2, "d_cpu is True, not a real number"),
                (True, (0.0, 0.0), 0.2, "action_index is True, not an integer"),
                (2, (0.0, 0.0), "0.5", "reward is '0.5', not a real number"),
                (2, (0.0, 0.0), True, "reward is True, not a real number"),
                (2, (0.0, 0.0), None, "reward is None, not a real number")):
            with pytest.raises(ValueError, match=error):
                buf.add(np.full(10, 9.0), action, params, reward, np.full(10, 9.0))
            for a, b in zip(ring_arrays(buf), before):
                assert (bits(a) == bits(b)).all()
            assert buf.size == 2 and buf.cursor == 0 and buf.n_bases == 2
        buf.add(np.full(10, 9.0), 2, (float("nan"), np.float32(2.0)), float("nan"),
                np.full(10, 9.0))
        assert np.isnan(buf.params[0, 0]) and buf.params[0, 1] == 2.0
        assert np.isnan(buf.rewards[0])
        buf.add(np.full(10, 9.0), np.int64(1), (0.0, 0.0), np.float32(0.5), np.full(10, 9.0))
        assert buf.actions[1] == 1 and buf.rewards[1] == 0.5

    def test_empty_buffer_rejects_sampling(self):
        with pytest.raises(ValueError):
            ReplayBuffer(4, 2).sample(1, np.random.default_rng(0))

    def test_samples_equal_the_two_array_ring_bitwise(self):
        """States that drift from the base by up to 4 entries an add or jump
        by 9 or more, next states that differ from their own state in 0-4
        entries, signed zeros and NaNs among them, in rings of 5-7 rows that
        wrap, sampled at any point, even straight after an add, by a caller
        that reuses its next_state array: every sampled array and the rng
        state equal those of the ring as first written. A state becomes a
        base exactly when it differs from the last base in more than
        BASE_PATCH entries. A next state that differs in more entries (5 or
        all of them, or the following state when it does) is refused with a
        ValueError that leaves every array, the base count, the size and the
        cursor as they were, and the reference ring skips it. Re-bases, more
        bases than the ring has rows and refused adds whose state would have
        made a base are all drawn."""
        seen = collections.Counter()

        @settings(max_examples=150, deadline=None)
        @given(replay_scripts())
        def check(script):
            capacity, ops, seed = script
            got = ReplayBuffer(capacity, REPLAY_DIM)
            want = reference.ReplayBufferReference(capacity, REPLAY_DIM)
            rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
            base, bases = None, 0
            for op in ops:
                if op[0] == "sample" and want.size == 0:  # every add so far was refused
                    for ring, rng in ((got, rng_got), (want, rng_want)):
                        with pytest.raises(ValueError, match="empty"):
                            ring.sample(op[1], rng)
                elif op[0] == "sample":
                    for g, w in zip(got.sample(op[1], rng_got), want.sample(op[1], rng_want)):
                        assert g.dtype == w.dtype
                        assert (bits(g) == bits(w)).all()
                else:
                    _, way, state, action, params, reward, next_state = op
                    changed = int((bits(next_state) != bits(state)).sum())
                    assert (changed > ReplayBuffer.PATCH) == (way == "whole") or way == "following"
                    far = base is None or (bits(state) != bits(base)).sum() > ReplayBuffer.BASE_PATCH
                    if changed > ReplayBuffer.PATCH:
                        before = ring_arrays(got)
                        with pytest.raises(ValueError, match=f"in {changed} entries"):
                            got.add(state, action, params, reward, next_state)
                        for a, b in zip(ring_arrays(got), before):
                            assert (bits(a) == bits(b)).all()
                        seen["refused far state"] += far and base is not None
                    else:
                        for ring in (got, want):
                            ring.add(state, action, params, reward, next_state)
                        if far:
                            base, bases = state, bases + 1
                            seen["re-base"] += bases > 1
                    next_state[:] = 7.0  # the caller reuses its array
                assert got.size == want.size and got.cursor == want.cursor
                assert got.n_bases == bases
            seen["more bases than rows"] += bases > capacity
            assert rng_got.bit_generator.state == rng_want.bit_generator.state

        check()
        assert min(seen[case] for case in ("re-base", "more bases than rows",
                                           "refused far state")) > 0

    @pytest.mark.parametrize("kind", ["pat", "ddqn", "ddpg"])
    def test_desk_training_stores_every_transition(self, kind):
        """The env changes at most ReplayBuffer.PATCH entries per request, so
        a desk train that wraps the ring and samples from it stores every
        transition the env makes: the ring holds the last capacity of them,
        every array and each row's rebuilt state and next state bitwise those
        of the ring as first written fed the env's records. A request moves
        a state by a few entries, so the ring makes a base for at most a
        quarter of its adds."""
        doc = {"pool": {"k_servers": 3, "n_vnfs": 3},
               "agent": {"kind": kind, "warmup_size": 300, "batch_size": 32,
                         "buffer_capacity": 500},
               "run": {"seed": 11}}
        cfg = harness.config_from_dict(doc)
        env = harness.build_env(cfg, 11)
        agent = harness.build_agent(cfg, env, 11)
        advance, made = env.advance_epoch, []

        def advance_epoch(policy):
            summary = advance(policy)
            made.extend(summary.records)
            return summary

        env.advance_epoch = advance_epoch
        harness._drive(env, agent, 100)
        want = reference.ReplayBufferReference(500, env.feature_length)
        for rec in made:
            want.add(rec.state, rec.action.target, (rec.action.d_cpu, rec.action.d_mem),
                     -rec.cost_psi, rec.next_state)
        buf = agent.buffer
        assert agent.updates > 0 and len(made) > buf.capacity  # sampled and wrapped
        assert buf.size == want.size and buf.cursor == want.cursor
        assert 1 < buf.n_bases <= len(made) / 4
        states, next_states = map(np.array, zip(*(ring_row(buf, i) for i in range(buf.size))))
        for g, w in ((states, want.states), (buf.actions, want.actions),
                     (buf.params, want.params), (buf.rewards, want.rewards),
                     (next_states, want.next_states)):
            assert (bits(g) == bits(w)).all()


class TestSelect:
    def test_full_exploration_is_uniform_over_targets(self):
        agent = make_agent(seed=1, eps=1.0, eps_min=1.0)
        counts = np.zeros(N_TARGETS)
        draws = 20_000
        feats = np.zeros(STATE_DIM)
        for _ in range(draws):
            counts[agent.select(feats).target] += 1
        assert np.abs(counts / draws - 1.0 / N_TARGETS).max() < 0.02

    def test_eval_mode_is_deterministic_and_noiseless(self):
        agent = make_agent(seed=2)
        agent.set_eval(True)
        feats = np.random.default_rng(3).normal(0, 1, STATE_DIM).astype(DTYPE)
        a1 = agent.select(feats)
        a2 = agent.select(feats)
        assert (a1.target, a1.d_cpu, a1.d_mem) == (a2.target, a2.d_cpu, a2.d_mem)
        best = int(np.argmax(nn.forward(agent.actor_action, feats)))
        assert a1.target == best
        if best != agent.cloud_action:
            x = np.concatenate([feats, one_hot([best], N_TARGETS, DTYPE)[0]])
            mu = nn.forward(agent.actor_param, x)
            assert (a1.d_cpu, a1.d_mem) == pytest.approx((mu[0], mu[1]))

    def test_exploration_noise_is_clipped(self):
        agent = make_agent(seed=4, sigma_noise=5.0)
        w = agent._clipped_noise((4000, 2))
        bound = agent.clip_c * np.asarray(SCALE)
        assert (np.abs(w) <= bound + 1e-12).all()
        # wide noise should actually hit the clip rails
        assert (np.abs(w) == bound).any()

    def test_params_stay_inside_box_and_near_policy_mean(self):
        agent = make_agent(seed=5, eps=0.0, eps_min=0.0, sigma_noise=5.0)
        rng = np.random.default_rng(6)
        for _ in range(200):
            feats = rng.normal(0, 1, STATE_DIM).astype(DTYPE)  # select's cast
            act = agent.select(feats)
            assert abs(act.d_cpu) <= SCALE[0] and abs(act.d_mem) <= SCALE[1]
            if act.target != agent.cloud_action:
                x = np.concatenate([feats, one_hot([act.target], N_TARGETS, DTYPE)[0]])
                mu = nn.forward(agent.actor_param, x)
                limit = agent.clip_c * np.asarray(SCALE)
                assert abs(act.d_cpu - mu[0]) <= limit[0] + 1e-9
                assert abs(act.d_mem - mu[1]) <= limit[1] + 1e-9

    def test_offload_choice_carries_zero_deltas(self):
        agent = make_agent(seed=7)
        for w in agent.actor_action.weights:
            w[:] = 0.0
        agent.actor_action.biases[-1][agent.cloud_action] = 1.0
        agent.set_eval(True)
        act = agent.select(np.ones(STATE_DIM))
        assert act == ParamAction(agent.cloud_action, 0.0, 0.0)

    @pytest.mark.parametrize("kind", ["pat", "ddpg"])
    def test_actor_input_is_state_and_target_one_hot(self, kind, monkeypatch):
        """The batch-1 actor input built from a kept identity row equals the
        one_hot form, bit for bit, for every server target."""
        agent = make_learner(kind, seed=3)
        actor = agent.actor_param if kind == "pat" else agent.actor
        seen = []
        forward = nn.forward
        monkeypatch.setattr(nn, "forward", lambda net, x: seen.append(x) or forward(net, x))
        s = np.random.default_rng(4).normal(0, 1, STATE_DIM)
        for a in range(N_TARGETS - 1):
            agent._actor_step(actor, s, a, explore=False)
            want = np.concatenate([s, one_hot([a], N_TARGETS)[0]])
            assert seen[-1].dtype == want.dtype and np.array_equal(seen[-1], want)
        assert len(seen) == N_TARGETS - 1


class TestTargets:
    def test_bootstrap_combines_min_of_both_target_critics(self):
        agent = make_agent(seed=8)
        rng = np.random.default_rng(9)
        energize(agent.t_critic_1, rng)
        energize(agent.t_critic_2, rng)
        batch = random_batch(rng, 16)
        y, info = agent.compute_targets(batch)
        rewards = batch[3]
        q1, q2 = info["q"]
        assert (y == rewards + agent.cfg.gamma * np.minimum(q1, q2)).all()
        assert (q1 != q2).any()

    def test_constant_target_critics_give_known_value(self):
        agent = make_agent(seed=10)
        for net, value in ((agent.t_critic_1, 1.0), (agent.t_critic_2, 2.0)):
            for w in net.weights:
                w[:] = 0.0
            for b in net.biases:
                b[:] = 0.0
            net.biases[-1][0] = value
        batch = random_batch(np.random.default_rng(11), 3)
        batch = (*batch[:3], np.full(3, 0.5, dtype=DTYPE), batch[4])
        y, info = agent.compute_targets(batch)
        q1, q2 = info["q"]
        assert (q1 == 1.0).all() and (q2 == 2.0).all()
        # 0.5 + 0.99 * 1.0 in the learners' dtype, in that order
        assert (y == DTYPE(0.5) + DTYPE(0.99) * DTYPE(1.0)).all() and y.dtype == DTYPE

    def test_next_action_follows_target_score_net(self):
        agent = make_agent(seed=12)
        rng = np.random.default_rng(13)
        energize(agent.t_actor_action, rng, std=0.1)
        batch = random_batch(rng, 32)
        _, info = agent.compute_targets(batch)
        want = np.argmax(nn.forward(agent.t_actor_action, batch[4]), axis=1)
        assert (info["a_next"] == want).all()

    def test_offload_next_actions_have_zero_params(self):
        agent = make_agent(seed=14)
        for w in agent.t_actor_action.weights:
            w[:] = 0.0
        agent.t_actor_action.biases[-1][agent.cloud_action] = 5.0
        batch = random_batch(np.random.default_rng(15), 8)
        _, info = agent.compute_targets(batch)
        assert (info["a_next"] == agent.cloud_action).all()
        assert (info["p_next"] == 0.0).all()

    def test_smoothed_params_respect_box(self):
        agent = make_agent(seed=16, sigma_noise=5.0)
        batch = random_batch(np.random.default_rng(17), 64)
        _, info = agent.compute_targets(batch)
        assert (np.abs(info["p_next"]) <= np.asarray(SCALE)).all()


class TestCriticUpdate:
    def test_perfect_targets_leave_first_critic_alone(self):
        agent = make_agent(seed=18)
        rng = np.random.default_rng(19)
        batch = random_batch(rng, 8)
        states, actions, params = batch[0], batch[1], batch[2]
        xc = agent._critic_input(states, one_hot(actions, N_TARGETS, DTYPE), params)
        y = nn.forward(agent.critic_1, xc)[:, 0]
        before = [w.copy() for w in agent.critic_1.weights]
        l1, l2 = agent.update_critics(batch, y)
        assert l1 == 0.0
        for w0, w1 in zip(before, agent.critic_1.weights):
            assert (w0 == w1).all()
        assert l2 > 0.0

    def test_losses_shrink_under_repeated_fitting(self):
        agent = make_agent(seed=20)
        rng = np.random.default_rng(21)
        batch = random_batch(rng, 8)
        y = rng.normal(0, 0.5, 8)
        first = agent.update_critics(batch, y)
        for _ in range(300):
            last = agent.update_critics(batch, y)
        assert last[0] < first[0] * 0.01
        assert last[1] < first[1] * 0.01


def as_float64(net: nn.Mlp) -> nn.Mlp:
    """A float64 copy of net, the same values."""
    out = nn.Mlp(net.sizes, net.head_scale, np.float64)
    out.params[:] = net.params
    return out


def numeric_grad(fn, arr, idx, h=1e-5):
    old = arr[idx]
    arr[idx] = old + h
    up = fn()
    arr[idx] = old - h
    dn = fn()
    arr[idx] = old
    return (up - dn) / (2 * h)


class TestActorUpdate:
    def test_zeroed_critic_freezes_both_actors(self):
        agent = make_agent(seed=22)
        for w in agent.critic_1.weights:
            w[:] = 0.0
        for b in agent.critic_1.biases:
            b[:] = 0.0
        snap = ([w.copy() for w in agent.actor_action.weights],
                [w.copy() for w in agent.actor_param.weights])
        agent.update_actors(random_batch(np.random.default_rng(23), 8))
        for w0, w1 in zip(snap[0], agent.actor_action.weights):
            assert (w0 == w1).all()
        for w0, w1 in zip(snap[1], agent.actor_param.weights):
            assert (w0 == w1).all()

    def test_critics_untouched_by_actor_step(self):
        agent = make_agent(seed=24)
        rng = np.random.default_rng(25)
        energize(agent.critic_1, rng)
        c1 = [w.copy() for w in agent.critic_1.weights]
        c2 = [w.copy() for w in agent.critic_2.weights]
        agent.update_actors(random_batch(rng, 8))
        for w0, w1 in zip(c1, agent.critic_1.weights):
            assert (w0 == w1).all()
        for w0, w1 in zip(c2, agent.critic_2.weights):
            assert (w0 == w1).all()

    def test_param_actor_ascends_first_critic(self):
        # the Adam step moves each weight by ~lr in the sign of dJ/dw,
        # where J is the mean critic value at the actor's own outputs
        rng = np.random.default_rng(26)
        actor = nn.Mlp((5 + 3, 16, 8, 2), head_scale=(50.0, 50.0))
        critic = nn.Mlp((5 + 3 + 2, 16, 8, 1))
        energize(actor, rng, std=0.2)
        energize(critic, rng, std=0.2)
        states = rng.normal(0, 1, (6, 5))
        onehots = one_hot(rng.integers(0, 3, 6), 3)

        def objective():
            p = nn.forward(actor, np.concatenate([states, onehots], axis=1))
            q = nn.forward(critic, np.concatenate([states, onehots, p], axis=1))
            return float(q.mean())

        probes = []
        for _ in range(12):
            layer = int(rng.integers(len(actor.weights)))
            idx = (int(rng.integers(actor.weights[layer].shape[0])),
                   int(rng.integers(actor.weights[layer].shape[1])))
            g = numeric_grad(objective, actor.weights[layer], idx)
            if abs(g) > 1e-5:
                probes.append((layer, idx, g, actor.weights[layer][idx]))
        assert len(probes) >= 5
        adam = nn.AdamState(actor, lr=1e-4)
        ascend_param_actor(actor, adam, critic, states, onehots, param_scale=np.ones(2))
        for layer, idx, g, old in probes:
            step = actor.weights[layer][idx] - old
            assert np.sign(step) == np.sign(g), (layer, idx, g, step)
            # first Adam step: lr * g / (|g| + eps)
            assert abs(step) == pytest.approx(1e-4 * abs(g) / (abs(g) + nn.ADAM_EPS), rel=1e-2)

    def test_score_actor_ascends_relaxed_objective(self):
        agent = make_agent(seed=27)
        rng = np.random.default_rng(28)
        energize(agent.critic_1, rng, std=0.2)
        energize(agent.actor_action, rng, std=0.2)
        batch = random_batch(rng, 6)
        states, _, params = batch[0], batch[1], batch[2]
        # the differences are taken on float64 copies: a float32 objective
        # cannot resolve a step of 1e-5
        actor, critic = as_float64(agent.actor_action), as_float64(agent.critic_1)

        def objective():
            soft = nn.softmax(nn.forward(actor, states.astype(np.float64)))
            q = nn.forward(critic, agent._critic_input(states.astype(np.float64), soft,
                                                        params.astype(np.float64)))
            return float(q.mean())

        probes = []
        for _ in range(16):
            layer = int(rng.integers(len(agent.actor_action.weights)))
            idx = (int(rng.integers(agent.actor_action.weights[layer].shape[0])),
                   int(rng.integers(agent.actor_action.weights[layer].shape[1])))
            g = numeric_grad(objective, actor.weights[layer], idx)
            if abs(g) > 1e-5:
                probes.append((layer, idx, g, agent.actor_action.weights[layer][idx]))
        assert len(probes) >= 5
        agent.update_actors(batch)
        for layer, idx, g, old in probes:
            step = agent.actor_action.weights[layer][idx] - old
            assert np.sign(step) == np.sign(g), (layer, idx, g, step)

    def test_ascent_finds_known_critic_peak(self):
        # teach a critic that deltas near +3 are best, then check the
        # parameter actor climbs to that peak from a near-zero start
        rng = np.random.default_rng(29)
        critic = nn.Mlp((3 + 2 + 2, 32, 16, 1))
        nn.gaussian_init(critic, rng)
        adam_c = nn.AdamState(critic, lr=1e-3)
        states = rng.normal(0, 1, (16, 3))
        onehots = one_hot(rng.integers(0, 2, 16), 2)
        for _ in range(3000):
            rows = rng.integers(0, 16, 64)
            p = rng.uniform(-8, 8, (64, 2))
            target = -np.sum((p - 3.0) ** 2, axis=1) / 10.0
            xc = np.concatenate([states[rows], onehots[rows], p], axis=1)
            q, cache = nn.forward_cached(critic, xc)
            resid = q[:, 0] - target
            grads = nn.backward(critic, cache, (2.0 / 64) * resid[:, None])
            adam_c.step(critic, grads)

        actor = nn.Mlp((3 + 2, 16, 8, 2), head_scale=(10.0, 10.0))
        nn.gaussian_init(actor, rng)
        adam_a = nn.AdamState(actor, lr=1e-3)
        start = nn.forward(actor, np.concatenate([states, onehots], axis=1))
        assert np.abs(start).max() < 0.5
        for _ in range(1500):
            mu = ascend_param_actor(actor, adam_a, critic, states, onehots, param_scale=np.ones(2))
        assert np.abs(mu - 3.0).mean() < 1.0


class TestTrainStep:
    def test_warmup_is_a_no_op(self):
        agent = make_agent(seed=30, warmup_size=16)
        fill_buffer(agent, np.random.default_rng(31), 15)
        before = [w.copy() for w in agent.critic_1.weights]
        out = agent.train_step()
        assert out == {"trained": False, "eps": agent.eps, "clip_c": agent.clip_c}
        assert agent.updates == 0
        for w0, w1 in zip(before, agent.critic_1.weights):
            assert (w0 == w1).all()

    def test_exploration_schedules_follow_update_counter(self):
        agent = make_agent(seed=32)
        assert agent.eps == 0.8 and agent.clip_c == 0.5
        agent.updates = 100
        assert agent.eps == pytest.approx(0.7)
        assert agent.clip_c == pytest.approx(0.4)
        agent.updates = 2000
        assert agent.eps == 0.05 and agent.clip_c == 0.1

    def test_targets_lag_by_exact_blend(self):
        agent = make_agent(seed=33)
        fill_buffer(agent, np.random.default_rng(34), 8)
        pre = [w.copy() for w in agent.critic_1.weights]
        out = agent.train_step()
        assert out["trained"] and agent.updates == 1
        tau = agent.cfg.tau
        for w_pre, w_live, w_tgt in zip(pre, agent.critic_1.weights,
                                        agent.t_critic_1.weights):
            assert w_tgt == pytest.approx(tau * w_live + (1 - tau) * w_pre, rel=1e-12, abs=1e-15)
            assert (w_tgt != w_live).any()

    def test_every_update_moves_all_four_target_nets(self):
        """Every PAT update steps all four optimizers, so train_step blends
        every t_ copy each time."""
        agent = make_agent(seed=37)
        fill_buffer(agent, np.random.default_rng(38), 8)
        names = ("actor_action", "actor_param", "critic_1", "critic_2")
        for _ in range(3):
            before = {name: getattr(agent, "t_" + name).params.copy() for name in names}
            assert agent.train_step()["trained"]
            for name in names:
                assert (getattr(agent, "t_" + name).params != before[name]).any(), name

    def test_training_is_reproducible_per_seed(self):
        runs = []
        for seed in (7, 7, 8):
            agent = make_agent(seed=seed)
            fill_buffer(agent, np.random.default_rng(99), 16)
            for _ in range(5):
                agent.train_step()
            runs.append([w.copy() for w in agent.critic_1.weights])
        for w0, w1 in zip(runs[0], runs[1]):
            assert (w0 == w1).all()
        assert any((w0 != w2).any() for w0, w2 in zip(runs[0], runs[2]))


# every array prefix a checkpoint stores, per learner kind
STORED = {
    "pat": {"meta", "actor_action", "actor_param", "critic_1", "critic_2",
            "t_actor_action", "t_actor_param", "t_critic_1", "t_critic_2",
            "adam_actor_action", "adam_actor_param", "adam_critic_1", "adam_critic_2"},
    "ddqn": {"meta", "server_q", "param_q", "t_server_q", "t_param_q",
             "adam_server", "adam_param"},
    "ddpg": {"meta", "server_q", "actor", "critic", "t_server_q", "t_actor", "t_critic",
             "adam_server", "adam_actor", "adam_critic"},
}


def make_learner(kind, seed):
    sizes = {"batch_size": 8, "buffer_capacity": 64, "warmup_size": 8}
    if kind == "pat":
        return make_agent(seed=seed)
    # a short phase, so a few updates train both sides of a pair
    cfg = BaselineRlConfig(alternation_period=2, **sizes)
    cls = DdqnPairAgent if kind == "ddqn" else DdpgPairAgent
    return cls(STATE_DIM, N_TARGETS, SCALE, cfg, seed=seed)


class TestCheckpoint:
    @pytest.mark.parametrize("kind", ["pat", "ddqn", "ddpg"])
    def test_roundtrip_restores_everything(self, tmp_path, kind):
        agent = make_learner(kind, seed=35)
        fill_buffer(agent, np.random.default_rng(36), 16)
        for _ in range(5):
            agent.train_step()
        # np.savez appends .npz; save reports and load finds the real file
        path = agent.save(tmp_path / "agent")
        assert path == str(tmp_path / "agent.npz")
        with np.load(path) as data:
            assert {key.split(".")[0] for key in data.files} == STORED[kind]
        again = type(agent).load(tmp_path / "agent")
        assert again.updates == agent.updates == 5
        assert type(again.cfg) is type(agent.cfg) and again.cfg == agent.cfg
        for name in agent._NETS:
            a, b = getattr(agent, name), getattr(again, name)
            for w0, w1 in zip(a.weights, b.weights):
                assert (w0 == w1).all()
            for b0, b1 in zip(a.biases, b.biases):
                assert (b0 == b1).all()
        for name, net in agent._ADAMS.items():
            a, b = getattr(agent, name), getattr(again, name)
            assert a.t == b.t > 0
            sizes = getattr(again, net).sizes
            assert b.m.shape == b.v.shape == getattr(again, net).params.shape
            for flat, flat_again in ((a.m, b.m), (a.v, b.v)):
                ws, bs = nn.layer_views(sizes, flat)
                ws_again, bs_again = nn.layer_views(sizes, flat_again)
                for w0, w1 in zip(ws + bs, ws_again + bs_again):
                    assert (w0 == w1).all()
        agent.set_eval(True)
        again.set_eval(True)
        rng = np.random.default_rng(37)
        for _ in range(20):
            feats = rng.normal(0, 1, STATE_DIM)
            assert agent.select(feats) == again.select(feats)

    @pytest.mark.parametrize("kind", ["pat", "ddqn", "ddpg"])
    def test_loaded_learner_trains_on_to_the_same_bits(self, tmp_path, kind):
        """A learner loaded from a checkpoint, given the saver's replay contents
        and rng state, makes the saver's next updates to the bit: every net's
        parameters and both moments of every optimizer."""
        agent = make_learner(kind, seed=38)
        fill_buffer(agent, np.random.default_rng(39), 16)
        for _ in range(5):
            agent.train_step()
        again = type(agent).load(agent.save(tmp_path / "agent"))
        fill_buffer(again, np.random.default_rng(39), 16)
        again.rng.bit_generator.state = agent.rng.bit_generator.state
        for _ in range(5):
            agent.train_step()
            again.train_step()
        assert again.updates == agent.updates == 10
        for name in agent._NETS:
            assert getattr(again, name).params.tobytes() == getattr(agent, name).params.tobytes()
        for name in agent._ADAMS:
            a, b = getattr(agent, name), getattr(again, name)
            assert (a.t, a.m.tobytes(), a.v.tobytes()) == (b.t, b.m.tobytes(), b.v.tobytes())

    @pytest.mark.parametrize("box", [SCALE, (52.0, 47.0)])
    def test_ddqn_checkpoint_with_lattice_meta_loads(self, tmp_path, box):
        """A DDQN checkpoint of the older format stores its lattice's
        resolution and spans in place of scale: it loads with the same
        lattice and gives the same eval actions."""
        cfg = BaselineRlConfig(alternation_period=2, batch_size=8, buffer_capacity=64,
                               warmup_size=8)
        agent = DdqnPairAgent(STATE_DIM, N_TARGETS, box, cfg, seed=42)
        fill_buffer(agent, np.random.default_rng(43), 16)
        for _ in range(5):
            agent.train_step()
        with np.load(agent.save(tmp_path / "now.npz")) as data:
            arrays = {key: data[key] for key in data.files}
        meta = json.loads(str(arrays["meta"]))
        g = agent.grid
        arrays["meta"] = np.array(json.dumps({
            "kind": "ddqn", "state_dim": STATE_DIM, "n_targets": N_TARGETS,
            "resolution": g.resolution,
            "span_cpu": float(g.values_cpu[-1] - g.values_cpu[0] + g.resolution),
            "span_mem": float(g.values_mem[-1] - g.values_mem[0] + g.resolution),
            "updates": meta["updates"], "cfg": meta["cfg"]}))
        np.savez(tmp_path / "old.npz", **arrays)
        again = DdqnPairAgent.load(tmp_path / "old.npz")
        # the spans are checked as scale is: two finite JSON numbers
        for span in (True, "5", float("inf")):
            bad = {**json.loads(str(arrays["meta"])), "span_cpu": span}
            np.savez(tmp_path / "bad.npz", **{**arrays, "meta": np.array(json.dumps(bad))})
            with pytest.raises(ValueError, match=r"meta: span_cpu/span_mem takes two finite "
                                                 r"numbers, not \["):
                DdqnPairAgent.load(tmp_path / "bad.npz")
        assert again.updates == 5
        assert again.grid.resolution == g.resolution
        assert np.array_equal(again.grid.values_cpu, g.values_cpu)
        assert np.array_equal(again.grid.values_mem, g.values_mem)
        agent.set_eval(True)
        again.set_eval(True)
        rng = np.random.default_rng(44)
        for _ in range(20):
            feats = rng.normal(0, 1, STATE_DIM)
            assert agent.select(feats) == again.select(feats)

    def test_load_refuses_another_kind(self, tmp_path):
        path = make_learner("ddqn", seed=38).save(tmp_path / "ddqn.npz")
        with pytest.raises(ValueError, match="'ddqn'.*'pat'"):
            PatAgent.load(path)
        path = make_agent(seed=39).save(tmp_path / "pat.npz")
        with pytest.raises(ValueError, match="'pat'.*'ddpg'"):
            DdpgPairAgent.load(path)

    def test_roundtrip_bitwise(self, tmp_path):
        """Every stored array, the parameter head's scale included, comes
        back with its bits, and the loaded nets give the saver's outputs."""
        agent = PatAgent(STATE_DIM, N_TARGETS, (52.0, 47.0), make_agent().cfg, seed=32)
        energize(agent.actor_param, np.random.default_rng(33))
        with np.load(agent.save(tmp_path / "agent.npz")) as data:
            stored = {key: data[key] for key in data.files}
        assert stored["actor_param.scale"].tolist() == [52.0, 47.0]
        again = PatAgent.load(tmp_path / "agent.npz")
        arrays = again._checkpoint_arrays()
        assert list(arrays) + ["meta"] == list(stored)
        for key, a in arrays.items():
            assert a.dtype == stored[key].dtype and a.tobytes() == stored[key].tobytes(), key
        x = np.linspace(-1, 1, STATE_DIM + N_TARGETS, dtype=DTYPE)
        assert nn.forward(again.actor_param, x).tobytes() == \
            nn.forward(agent.actor_param, x).tobytes()

    def test_load_refuses_another_shape(self, tmp_path):
        path = make_agent(seed=33).save(tmp_path / "agent.npz")
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays["actor_param.w0"] = arrays["actor_param.w0"][:, 1:]
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match=r"agent\.npz: actor_param\.w0: stored shape"):
            PatAgent.load(path)

    @pytest.mark.parametrize("kind", ["pat", "ddqn", "ddpg"])
    def test_file_layout_is_pinned(self, tmp_path, kind):
        """The stored keys in their file order, with each array's dtype and
        shape: per net its layers then a tanh head's scale, then per optimizer
        its step count and its moments layer by layer, then meta."""
        s, a = STATE_DIM, N_TARGETS
        nets = {"pat": {"actor_action": (s, 128, 64, a), "actor_param": (s + a, 128, 64, 2),
                        "critic_1": (s + a + 2, 128, 64, 1), "critic_2": (s + a + 2, 128, 64, 1)},
                "ddqn": {"server_q": (s, 128, 64, a), "param_q": (s, 128, 64, 100)},
                "ddpg": {"server_q": (s, 128, 64, a), "actor": (s + a, 128, 64, 2),
                         "critic": (s + a + 2, 128, 64, 1)}}[kind]
        adams = {"pat": ["adam_actor_action", "adam_actor_param", "adam_critic_1",
                         "adam_critic_2"],
                 "ddqn": ["adam_server", "adam_param"],
                 "ddpg": ["adam_server", "adam_actor", "adam_critic"]}[kind]
        scaled = {"actor_param", "actor"}

        def layers(sizes, stems):
            return [(f"{stem}{i}", shape) for i, (n_in, n_out) in enumerate(zip(sizes, sizes[1:]))
                    for stem, shape in zip(stems, [(n_out, n_in), (n_out,)] * 2)]

        want = []
        for prefix in ("", "t_"):
            for name, sizes in nets.items():
                want += [(f"{prefix}{name}.{key}", "float32", shape)
                         for key, shape in layers(sizes, ("w", "b"))]
                want += [(f"{prefix}{name}.scale", "float32", (2,))] if name in scaled else []
        for adam, sizes in zip(adams, nets.values()):
            want += [(f"{adam}.t", "int64", ())]
            want += [(f"{adam}.{key}", "float32", shape)
                     for key, shape in layers(sizes, ("mw", "mb", "vw", "vb"))]
        path = make_learner(kind, seed=34).save(tmp_path / "agent.npz")
        with np.load(path) as data:
            assert data.files == [key for key, _, _ in want] + ["meta"]
            for key, dtype, shape in want:
                assert (data[key].dtype, data[key].shape) == (np.dtype(dtype), shape), key
            assert data["meta"].dtype.kind == "U" and data["meta"].shape == ()


def desk_learner_doc(kind, **agent):
    """A 3x3 document whose learner passes its warm-up within a few epochs;
    a pair switches phase every second update."""
    pair = {} if kind == "pat" else {"alternation_period": 2}
    return {"pool": {"k_servers": 3, "n_vnfs": 3},
            "agent": {"kind": kind, "warmup_size": 60, "batch_size": 16,
                      "buffer_capacity": 200, **pair, **agent},
            "run": {"seed": 11, "total_epochs": 12, "eval_epochs": 3}}


def float_arrays(obj):
    """Every float array in obj, through tuples and lists (a forward cache),
    a net's parameters and head scale, and an optimizer's moments."""
    if isinstance(obj, np.ndarray):
        return [obj] if obj.dtype.kind == "f" else []
    if isinstance(obj, nn.Mlp):
        return float_arrays([obj.params, obj.head_scale])
    if isinstance(obj, nn.AdamState):
        return [obj.m, obj.v]
    if isinstance(obj, (tuple, list)):
        return [a for item in obj for a in float_arrays(item)]
    return []


class TestOneDtype:
    """The learners compute and store in DTYPE only. numpy 2 (NEP 50) lets a
    float64 scalar promote a float32 result where numpy 1 did not, so a
    float64 that reached a net would make the bits depend on numpy's version."""

    @pytest.mark.parametrize("kind", ["pat", "ddqn", "ddpg"])
    def test_no_float64_reaches_the_nets(self, kind, monkeypatch):
        """After the warm-up and a few updates, more training and evaluation
        epochs give nn.forward, forward_cached, backward, input_grad,
        AdamState.step and soft_update, and the activation, softmax and
        backprop helpers they call, DTYPE arrays only, and those return DTYPE
        arrays only; every net, target net, Adam moment and replay float
        array is DTYPE. The learner sees one CPU, so PAT's helper phases run
        inline, where the spies see them; a helper process runs the same code."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        cfg = harness.config_from_dict(desk_learner_doc(kind))
        env = harness.build_env(cfg, 11)
        agent = harness.build_agent(cfg, env, 11)
        harness._drive(env, agent, 12)
        assert agent.updates > 0
        seen = []

        def spy(name, fn):
            def wrapped(*args):
                out = fn(*args)
                seen.append((name, float_arrays(args) + float_arrays(out)))
                return out
            return wrapped

        wrapped = ["forward", "forward_cached", "backward", "input_grad", "soft_update",
                   "leaky_relu", "leaky_relu_slope", "softmax", "_head_grad", "_through_layer"]
        for name in wrapped:
            monkeypatch.setattr(nn, name, spy(name, getattr(nn, name)))
        monkeypatch.setattr(nn.AdamState, "step", spy("step", nn.AdamState.step))
        harness._drive(env, agent, 6)
        harness.evaluate_agent(cfg, agent, 11, 2)
        # a DQN pair never ascends through a critic, and only PAT relaxes its scores
        unused = {"pat": set(), "ddqn": {"input_grad", "softmax"}, "ddpg": {"softmax"}}[kind]
        assert {name for name, _ in seen} == {"step", *wrapped} - unused
        for name, arrays in seen:
            dtypes = {a.dtype for a in arrays}
            assert dtypes == {np.dtype(DTYPE)}, (name, dtypes)
        for name in agent._NETS:
            net = getattr(agent, name)
            assert net.params.dtype == DTYPE, name
            assert net.head_scale is None or net.head_scale.dtype == DTYPE, name
        for name in agent._ADAMS:
            adam = getattr(agent, name)
            assert adam.m.dtype == adam.v.dtype == DTYPE, name
        buf = agent.buffer
        assert buf.states.dtype == buf.params.dtype == buf.rewards.dtype == DTYPE

    @pytest.mark.parametrize("kind", ["pat", "ddqn", "ddpg"])
    def test_float64_checkpoint_loads_for_eval(self, tmp_path, kind):
        """A checkpoint of float64 arrays under today's keys, as float64
        learners wrote them, loads through vnf-lab eval and evaluates as the
        float32 checkpoint of the same values does; loaded, its arrays are
        DTYPE. A new checkpoint stores DTYPE arrays under the same keys."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(desk_learner_doc(kind)))
        assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "run"),
                         "--quiet"]) == 0
        new = tmp_path / "run" / "checkpoint.npz"
        with np.load(new) as data:
            stored = {key: data[key] for key in data.files}
        wide = {key: a.astype(np.float64) if a.dtype.kind == "f" else a
                for key, a in stored.items()}
        assert {a.dtype for a in float_arrays(list(stored.values()))} == {np.dtype(DTYPE)}
        old = tmp_path / "old.npz"
        np.savez(old, **wide)
        for path, out in ((new, "eval_new"), (old, "eval_old")):
            assert cli.main(["eval", "--config", str(cfg), "--checkpoint", str(path),
                             "--out", str(tmp_path / out), "--quiet"]) == 0
        assert (tmp_path / "eval_old" / "eval_metrics.csv").read_bytes() == \
            (tmp_path / "eval_new" / "eval_metrics.csv").read_bytes()
        agent = harness.LEARNERS[kind].load(old)
        arrays = agent._checkpoint_arrays()
        assert set(arrays) | {"meta"} == set(stored)
        for key, a in arrays.items():
            assert a.dtype == stored[key].dtype and a.tobytes() == stored[key].tobytes(), key


class TestNonFiniteStop:
    # each kind's critic and the update that first trains it after the clean
    # first one: a ddpg pair regresses its critic only in phase 1 (updates 3
    # and 4 at alternation_period 2)
    @pytest.mark.parametrize("kind, critic, update",
                             [("pat", "critic_1", 2), ("ddqn", "server_q", 2),
                              ("ddpg", "critic", 3)])
    def test_nan_critic_weight_stops_training(self, kind, critic, update):
        agent = make_learner(kind, seed=40)
        fill_buffer(agent, np.random.default_rng(41), 8)
        assert agent.train_step()["trained"]
        getattr(agent, critic).weights[0][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match=rf"^{kind} update {update}: \w+ is nan$"):
            for _ in range(4):
                agent.train_step()
        assert agent.updates == update


class TestConfigValidation:
    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            PatConfig(gamma=1.5)
        with pytest.raises(ValueError):
            PatConfig(tau=0.0)
        with pytest.raises(ValueError):
            PatConfig(eps=0.2, eps_min=0.5)
        with pytest.raises(ValueError):
            PatConfig(clip_c=0.05, clip_c_min=0.1)
        with pytest.raises(ValueError):
            PatConfig(batch_size=256, buffer_capacity=128)


def action_bits(action: ParamAction):
    return action.target, struct.pack("<dd", action.d_cpu, action.d_mem)


class TestFirstFormulas:
    """The cacheless forward, the float-scalar actor step and the flat
    learner update against the formulas as first written
    (tests/reference.py), bit for bit."""

    @pytest.mark.parametrize("clip_c", [0.5, 0.0])
    def test_actor_step_equals_the_array_form_bitwise(self, clip_c):
        """Ordinary, rail-saturated and NaN actor outputs, exploring or not:
        the same deltas to the bit and the same rng draws. A zero clip_c
        makes every noise draw tie with a zero bound."""
        got, want = (make_agent(seed=21, clip_c=clip_c, clip_c_min=clip_c) for _ in range(2))
        for agent in (got, want):
            energize(agent.actor_param, np.random.default_rng(23), std=3.0)
        rng = np.random.default_rng(22)
        rails = 0
        for i in range(300):
            if i == 250:
                for agent in (got, want):
                    agent.actor_param.biases[-1][0] = np.nan
            s = rng.normal(0, 1, STATE_DIM).astype(DTYPE)  # as select passes it
            a = int(rng.integers(N_TARGETS))
            explore = i % 3 > 0
            action = got._actor_step(got.actor_param, s, a, explore)
            assert action_bits(action) == action_bits(
                reference.actor_step_reference(want, want.actor_param, s, a, explore))
            rails += abs(action.d_cpu) == SCALE[0]
        assert rails > 10
        assert got.rng.bit_generator.state == want.rng.bit_generator.state

    @pytest.mark.parametrize("clip_c", [0.5, 0.0])
    def test_actor_step_on_edge_outputs_equals_the_array_form_bitwise(self, clip_c,
                                                                       monkeypatch):
        """Actor outputs of signed zeros, subnormals, values on and past the
        rails, and NaN: np.clip's choice of the bound on a tie decides the
        sign of a zero, and the float form keeps it."""
        edges = [0.0, -0.0, 1e-310, -1e-310, 50.0, -50.0, 50.5, -1e300, np.nan]
        got, want = (make_agent(seed=24, clip_c=clip_c, clip_c_min=clip_c) for _ in range(2))
        s = np.zeros(STATE_DIM, dtype=DTYPE)
        for p in ([c, m] for c in edges for m in edges):
            monkeypatch.setattr(nn, "forward", lambda net, x: np.array(p))
            monkeypatch.setattr(reference, "forward_reference", lambda net, x: np.array(p))
            for explore in (True, False):
                assert action_bits(got._actor_step(got.actor_param, s, 0, explore)) == \
                    action_bits(reference.actor_step_reference(want, want.actor_param, s, 0,
                                                               explore)), (p, explore)
        assert got.rng.bit_generator.state == want.rng.bit_generator.state

    @pytest.mark.parametrize("kind", ["pat", "ddqn", "ddpg"])
    def test_train_outputs_equal_those_of_the_first_formulas(self, kind, tmp_path, monkeypatch):
        """A desk-scale train run past the warm-up (both phases of a pair)
        writes the same metrics.csv, summary.json and checkpoint bytes with
        the first formulas patched in: the decisions, the update's passes,
        Adam steps and soft updates layer by layer, and the replay ring
        with whole next states, which the run's 1.3k transitions wrap four
        times."""
        doc = {"pool": {"k_servers": 3, "n_vnfs": 3},
               "agent": {"kind": kind, "warmup_size": 300, "batch_size": 32,
                         "buffer_capacity": 320},
               "run": {"seed": 11, "total_epochs": 150, "eval_epochs": 20}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))

        def train(out):
            assert cli.main(["train", "--config", str(path), "--agent", kind,
                             "--out", str(out), "--quiet"]) == 0
            return [(out / name).read_bytes()
                    for name in ("metrics.csv", "summary.json", "checkpoint.npz")]

        got = train(tmp_path / "now")
        monkeypatch.setattr(nn, "forward", reference.forward_reference)
        monkeypatch.setattr(LearnerBase, "_actor_step", reference.actor_step_reference)
        monkeypatch.setattr(nn, "forward_cached", reference.forward_cached_reference)
        monkeypatch.setattr(nn, "backward", reference.backward_flat_reference)
        monkeypatch.setattr(nn, "input_grad", reference.input_grad_reference)
        monkeypatch.setattr(nn.AdamState, "step", reference.adam_step_reference)
        monkeypatch.setattr(nn, "soft_update", reference.soft_update_reference)
        monkeypatch.setattr(pat, "ReplayBuffer", reference.ReplayBufferReference)
        want = train(tmp_path / "first")
        assert got == want
        rows = got[0].decode().splitlines()
        assert len(rows) == 151 and float(rows[-1].split(",")[-2]) < 0.8  # eps decayed
