"""Property tests of the environment's invariants: small random pools and
catalogues, driven by the random and the greedy policy, checked after every
request and every epoch. Among them: the cost matrices the environment keeps
and refreshes cell by cell equal a fresh cost_components of the state, its
kept user count equals the state's, both the features a request is given
and the next-state features recorded after it equal a fresh encode_state, and
a next state differs from its state only where the request's cell and VNF
feed the features, so replay stores every transition."""

import collections
import dataclasses

import numpy as np
from hypothesis import given, settings, strategies as st

from reference import ReplayBufferReference, bits, check_oracle, oracle_figures
from vnf_lab.baselines import GreedyAgent, RandomAgent
from vnf_lab.env import (CostParams, PoolConfig, TrafficConfig, VnfEnv, agent_cost,
                         cost_components)
from vnf_lab.harness import default_vnfs
from vnf_lab.pat import ReplayBuffer

CATALOGUE = default_vnfs(10)
EPOCHS = 8


@st.composite
def scenarios(draw):
    """A pool of 1-3 servers, 1-4 catalogue rows (any of the ten, so the
    rows whose band edges round badly occur), a stay probability, a rate
    block length, a policy and a seed."""
    rows = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    p_stay = draw(st.floats(0.0, 1.0))
    specs = [dataclasses.replace(CATALOGUE[r], id=i, p_stay=p_stay)
             for i, r in enumerate(rows)]
    pool = PoolConfig(k_servers=draw(st.integers(1, 3)), rho_max=draw(st.floats(5.0, 60.0)),
                      eta_max=draw(st.floats(5.0, 60.0)), n_vnfs=len(specs))
    traffic = TrafficConfig(t_max=draw(st.integers(1, 5)))
    return pool, specs, traffic, draw(st.sampled_from(["random", "greedy"])), \
        draw(st.integers(0, 2**32 - 1))


def assert_allocation_invariants(state, pool):
    k = pool.k_servers
    assert (state.cpu[:k].sum(axis=1) <= pool.rho_max).all()
    assert (state.mem[:k].sum(axis=1) <= pool.eta_max).all()
    assert (state.cpu >= 0).all() and (state.mem >= 0).all() and (state.users >= 0).all()
    # no user sits on a server instance without CPU
    assert not ((state.users[:k] > 0) & (state.cpu[:k] <= 0)).any()


def fresh_psi(env, vnf, action, out):
    """Check the environment's kept cost matrices against a fresh grid of the
    current state, bit for bit, and return the request's psi from that grid."""
    fresh = cost_components(env.state, env.specs, env.costs, env.cur.cloud_rate)
    for kept, want in zip(env._grid, fresh):
        assert np.array_equal(kept, want) and np.array_equal(np.signbit(kept), np.signbit(want))
    if out.infeasible:
        return 1.0
    num, users = fresh[3], env.state.users
    ic = float(num[action.target, vnf] / max(int(users[action.target, vnf]), 1))
    nc = float(num.sum() / max(int(users.sum()), 1))
    return agent_cost(ic, nc, env.beta, env.gamma_max)


def request_positions(layout, pool, cell, vnf) -> set:
    """The feature positions one request on (cell, vnf) may change: the
    cell's users, its CPU and memory on a server, and the VNF's deployed flag."""
    at = cell * pool.n_vnfs + vnf
    positions = {layout.users.start + at, layout.deployed.start + vnf}
    if cell < pool.k_servers:
        positions |= {layout.cpu.start + at, layout.mem.start + at}
    return positions


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(scenarios())
def test_invariants_hold_on_every_request_and_epoch(scenario):
    pool, specs, traffic, kind, seed = scenario
    env = VnfEnv(pool, specs, CostParams(), traffic, seed=seed)
    agent = GreedyAgent(pool, specs) if kind == "greedy" else RandomAgent(pool, seed)

    def checked_policy(features, vnf, state, has_user):
        assert_allocation_invariants(state, pool)  # the state the last request left
        # carried over from the last request's next state, with the request moved
        assert np.array_equal(features, env.encode_state(vnf))
        return agent.select(features, vnf, state, has_user)

    apply_action, psis, next_states, changeable = env.apply_action, [], [], []

    def checked_apply(vnf, action, assign_user=True):
        out = apply_action(vnf, action, assign_user)
        assert env._users == int(env.state.users.sum())  # the kept user count
        psis.append(fresh_psi(env, vnf, action, out))
        next_states.append(env.encode_state(vnf))
        cell = env.state.cloud if out.infeasible and assign_user else action.target
        changeable.append(request_positions(env.layout, pool, cell, vnf))
        return out

    env.apply_action = checked_apply
    for _ in range(EPOCHS):
        before = int(env.state.users.sum())
        psis.clear()
        next_states.clear()
        changeable.clear()
        summary = env.advance_epoch(checked_policy, keep_snapshot=True)
        served, rate = summary.snapshot
        assert_allocation_invariants(served, pool)
        assert all(-1.0 <= r.cost_psi <= 1.0 for r in summary.records)
        assert [r.cost_psi for r in summary.records] == psis
        # including the epoch's last next state, which only replay sees
        assert len(next_states) == len(summary.records)
        for r, want in zip(summary.records, next_states):
            assert np.array_equal(r.next_state, want)
        # what lets replay store a next state as its own state with a patch
        for r, positions in zip(summary.records, changeable):
            changed = np.flatnonzero(r.next_state.view(np.int64) != r.state.view(np.int64))
            assert set(changed.tolist()) <= positions

        # every arrival is placed once; departures only remove users
        arrivals = env.cur.arrivals
        assert len(summary.records) == int(np.maximum(arrivals, 1).sum())
        assert int(served.users.sum()) == before + int(arrivals.sum())
        assert ((env.state.users >= 0) & (env.state.users <= served.users)).all()
        k = pool.k_servers
        assert (env.state.cpu[:k] == served.cpu[:k]).all()
        assert_allocation_invariants(env.state, pool)

        want = oracle_figures(served, specs, env.costs, rate, pool.rho_max, pool.eta_max)
        got = {key: getattr(summary.metrics, key) for key in want}
        assert check_oracle(got, want, f"{kind} epoch {summary.metrics.epoch}") == []


def test_every_transition_fits_the_replay_ring():
    """Every record's next state differs from its state in at most
    ReplayBuffer.PATCH entries, compared by bit pattern, and ReplayBuffer.add
    takes each record, which the ring then samples bitwise as the ring as
    first written does. Infeasible fall-throughs, idle visits, each epoch's
    last record and next states that use the whole patch are among them."""
    seen = collections.Counter()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(scenarios())
    def check(scenario):
        pool, specs, traffic, kind, seed = scenario
        env = VnfEnv(pool, specs, CostParams(), traffic, seed=seed)
        agent = GreedyAgent(pool, specs) if kind == "greedy" else RandomAgent(pool, seed)
        for _ in range(EPOCHS):
            records = env.advance_epoch(agent.select).records
            got = ReplayBuffer(len(records), env.feature_length)
            want = ReplayBufferReference(len(records), env.feature_length)
            for r in records:
                changed = int((bits(r.next_state) != bits(r.state)).sum())
                assert changed <= ReplayBuffer.PATCH
                for ring in (got, want):
                    ring.add(r.state, r.action.target, (r.action.d_cpu, r.action.d_mem),
                             -r.cost_psi, r.next_state)
                seen["infeasible"] += r.infeasible
                seen["idle"] += not r.had_user
                seen["whole patch"] += changed == ReplayBuffer.PATCH
            seen["epoch end"] += 1
            b = 4 * len(records)
            for g, w in zip(got.sample(b, np.random.default_rng(seed)),
                            want.sample(b, np.random.default_rng(seed))):
                assert (bits(g) == bits(w)).all()

    check()
    assert min(seen[case] for case in ("infeasible", "idle", "whole patch", "epoch end")) > 0
