"""Environment stepping: action application, feature encoding, epoch loop."""

import numpy as np
import pytest

from reference import check_oracle, oracle_figures
from vnf_lab import env as env_module, harness
from vnf_lab.baselines import RandomAgent
from vnf_lab.env import (VnfSpec, CostParams, PoolConfig, TrafficConfig,
                         ParamAction, EpochTraffic, VnfEnv, agent_cost, cost_components,
                         resource_range)
from vnf_lab.harness import default_vnfs


def make_env(k=3, n=3, seed=0, specs=None, traffic=None, pool=None):
    pool = pool or PoolConfig(k_servers=k, rho_max=50, eta_max=50, n_vnfs=n)
    specs = specs or default_vnfs(n)
    traffic = traffic or TrafficConfig()
    env = VnfEnv(pool, specs, CostParams(), traffic, seed=seed)
    # a fixed traffic snapshot so apply_action can be probed in isolation
    env.open_epoch(EpochTraffic(np.zeros(n, dtype=np.int64), 10.0))
    return env


def offload_policy(features, vnf, state, has_user):
    return ParamAction(state.cloud, 0.0, 0.0)


class TestApplyAction:
    def test_deploy_on_empty_server(self):
        env = make_env()
        out = env.apply_action(0, ParamAction(0, 4.0, 8.0))
        st = env.state
        assert (st.cpu[0, 0], st.mem[0, 0], st.users[0, 0]) == (4.0, 8.0, 1)
        assert not out.infeasible
        # boot latency is part of the instance cost numerator
        lat = 20 + 4 * 3 + 8 * 4
        num = env._grid[3]
        ic, nc = float(num[0, 0] / st.users[0, 0]), float(num.sum() / st.users.sum())
        assert ic == pytest.approx(
            1 * lat + 2 * (-35.0) + 1 * (4 * 6 + 8 * 3 + (2 + 1) / 3), abs=1e-9)
        assert out.cost_psi == agent_cost(ic, nc, env.beta, env.gamma_max)

    def test_capacity_overflow_forces_cloud(self):
        env = make_env()
        out = env.apply_action(0, ParamAction(0, 60.0, 0.0))
        st = env.state
        assert out.infeasible
        assert out.cost_psi == 1.0
        assert st.cpu[0, 0] == 0.0
        assert st.users[st.cloud, 0] == 1
        _, c_up, _, m_up = resource_range(env.specs[0], 1)
        assert st.cpu[st.cloud, 0] == c_up
        assert st.mem[st.cloud, 0] == m_up

    def test_negative_resource_is_infeasible(self):
        env = make_env()
        env.apply_action(0, ParamAction(0, 6.0, 9.0))
        out = env.apply_action(0, ParamAction(0, -7.0, 0.0))
        assert out.infeasible
        assert env.state.cpu[0, 0] == 6.0

    def test_stranding_users_is_infeasible(self):
        env = make_env()
        env.apply_action(0, ParamAction(0, 6.0, 9.0))
        out = env.apply_action(0, ParamAction(0, -6.0, 0.0), assign_user=False)
        assert out.infeasible

    def test_power_down_idle_instance_allowed(self):
        env = make_env()
        env.apply_action(0, ParamAction(0, 6.0, 9.0), assign_user=False)
        out = env.apply_action(0, ParamAction(0, -6.0, -9.0), assign_user=False)
        assert not out.infeasible
        assert env.state.cpu[0, 0] == 0.0 and env.state.mem[0, 0] == 0.0

    def test_cloud_target_books_upper_bounds(self):
        env = make_env()
        out = env.apply_action(1, ParamAction(env.state.cloud))
        st = env.state
        assert st.users[st.cloud, 1] == 1
        _, c_up, _, m_up = resource_range(env.specs[1], 1)
        assert st.cpu[st.cloud, 1] == c_up and st.mem[st.cloud, 1] == m_up
        assert not out.infeasible
        # second user rebooks the same instance at u = 2
        env.apply_action(1, ParamAction(env.state.cloud))
        _, c_up2, _, m_up2 = resource_range(env.specs[1], 2)
        assert st.cpu[st.cloud, 1] == c_up2 and st.users[st.cloud, 1] == 2

    def test_cloud_admissions_book_the_raw_catalogue_bands(self):
        """On the int default catalogue, the env's float booking equals the
        integer band of the raw spec, offloaded or fallen through."""
        raw = default_vnfs(10)
        env = make_env(k=2, n=10)
        st = env.state
        for u in range(1, 41):
            for j in range(10):
                action = ParamAction(st.cloud) if (u + j) % 3 else ParamAction(0, 99.0, 0.0)
                env.apply_action(j, action)
                _, c_up, _, m_up = resource_range(raw[j], u)
                assert (st.users[st.cloud, j], st.cpu[st.cloud, j], st.mem[st.cloud, j]) \
                    == (u, c_up, m_up)
                assert type(c_up) is int

    def test_cloud_idle_visit_is_noop(self):
        env = make_env()
        before = env.state.copy()
        out = env.apply_action(2, ParamAction(env.state.cloud), assign_user=False)
        assert not out.infeasible
        assert (env.state.cpu == before.cpu).all()
        assert (env.state.users == before.users).all()

    def test_bad_indices_raise(self):
        env = make_env()
        with pytest.raises(ValueError):
            env.apply_action(9, ParamAction(0, 1.0, 1.0))
        with pytest.raises(ValueError):
            env.apply_action(0, ParamAction(4, 1.0, 1.0))
        with pytest.raises(ValueError):
            env.apply_action(0, ParamAction(-1, 1.0, 1.0))

    def test_psi_stays_in_unit_interval(self):
        env = make_env(seed=1)
        rng = np.random.default_rng(2)
        for _ in range(300):
            j = int(rng.integers(3))
            a = int(rng.integers(4))
            act = ParamAction(a, float(rng.uniform(-30, 30)),
                              float(rng.uniform(-30, 30))) if a < 3 else ParamAction(3)
            out = env.apply_action(j, act)
            assert -1.0 <= out.cost_psi <= 1.0

    def test_capacity_never_exceeded(self):
        env = make_env(seed=3)
        rng = np.random.default_rng(4)
        for _ in range(500):
            j = int(rng.integers(3))
            a = int(rng.integers(3))
            env.apply_action(j, ParamAction(a, float(rng.uniform(-20, 40)),
                                            float(rng.uniform(-20, 40))))
            assert (env.state.cpu[:3].sum(axis=1) <= 50 + 1e-9).all()
            assert (env.state.mem[:3].sum(axis=1) <= 50 + 1e-9).all()
            # users sit only on deployed instances
            assert not ((env.state.users[:3] > 0) & (env.state.cpu[:3] <= 0)).any()

    def test_no_traffic_snapshot_fails_before_changing_the_state(self):
        cfg = harness.defaults()
        env = harness.build_env(cfg, 0)
        with pytest.raises(ValueError, match="advance an epoch first"):
            env.apply_action(0, ParamAction(0, 1.0, 1.0))
        assert env.state.users.sum() == 0 and env.state.cpu.sum() == 0.0

    def test_first_request_of_a_new_snapshot_counts_its_user_once(self):
        """The kept user count starts from the state its epoch opens on, then
        adds the first request's user: on a server, on the cloud, after a
        fall-through, or none on an idle visit."""
        env = make_env()
        env.apply_action(0, ParamAction(0, 6.0, 9.0))
        env.apply_action(1, ParamAction(3))
        requests = [(2, ParamAction(1, 4.0, 8.0), True), (0, ParamAction(3), True),
                    (1, ParamAction(0, 60.0, 0.0), True), (1, ParamAction(0, 1.0, 1.0), False),
                    (2, ParamAction(3), False)]
        for vnf, action, assign_user in requests:
            env.open_epoch(EpochTraffic(np.zeros(3, dtype=np.int64), 10.0))
            before = int(env.state.users.sum())
            out = env.apply_action(vnf, action, assign_user)
            users = int(env.state.users.sum())
            assert users == before + assign_user and env._users == users
            num = env._grid[3]
            assert np.array_equal(num, cost_components(env.state, env.specs, env.costs, 10.0)[3])
            t = env.state.cloud if out.infeasible and assign_user else action.target
            ic = float(num[t, vnf] / max(int(env.state.users[t, vnf]), 1))
            nc = float(num.sum() / users)
            assert out.cost_psi == (1.0 if out.infeasible else
                                    agent_cost(ic, nc, env.beta, env.gamma_max))


class TestEncodeState:
    def test_length_formula_at_full_scale(self):
        env = make_env(k=10, n=10)
        assert env.feature_length == 341
        assert env.encode_state(0).shape == (341,)

    def test_layout_and_normalization(self):
        env = make_env()
        env.apply_action(0, ParamAction(0, 5.0, 10.0))
        env.apply_action(1, ParamAction(env.state.cloud))
        env.open_epoch(EpochTraffic(np.array([2, 0, 1]), 8.0))
        s = env.encode_state(2)
        n, k = 3, 3
        assert s[:3] == pytest.approx([0.2, 0.0, 0.1])          # arrivals / 10
        assert s[3:6] == pytest.approx([1.0, 1.0, 0.0])         # deployed flags
        users = s[6:6 + 12].reshape(4, 3)
        assert users[0, 0] == pytest.approx(0.1)
        assert users[3, 1] == pytest.approx(0.1)
        cpu = s[18:18 + 9].reshape(3, 3)
        assert cpu[0, 0] == pytest.approx(5 / 50)
        mem = s[27:27 + 9].reshape(3, 3)
        assert mem[0, 0] == pytest.approx(10 / 50)
        assert s[36] == pytest.approx(8.0 / 16.0)               # rate / (mu + 3 sigma)
        assert list(s[37:]) == [0.0, 0.0, 1.0]                  # request one-hot

    def test_pure(self):
        env = make_env()
        env.apply_action(0, ParamAction(0, 5.0, 10.0))
        a = env.encode_state(1)
        b = env.encode_state(1)
        assert (a == b).all()


class TestNextStateFeatures:
    """advance_epoch patches a copy of the request's features at the cell the
    request changed (StepOutcome.row) in place of a fresh encode; each
    request kind must leave them equal to encode_state after it."""

    # (label, vnf, action, assign_user, VNF's deployed flag after the request)
    REQUESTS = [
        ("feasible server placement", 0, ParamAction(1, 5.0, 6.0), True, 1.0),
        ("infeasible fall-through to the cloud", 1, ParamAction(0, 60.0, 1.0), True, 1.0),
        ("cloud offload", 1, ParamAction(3), True, 1.0),
        ("idle visit deploying on a server", 2, ParamAction(2, 4.0, 4.0), False, 1.0),
        ("idle visit leaving a server empty", 0, ParamAction(0, 0.0, 0.0), False, 1.0),
        ("server CPU drops to 0, flag flips", 2, ParamAction(2, -4.0, -4.0), False, 0.0),
        ("idle deployment beside a live one", 0, ParamAction(2, 3.0, 3.0), False, 1.0),
        ("server CPU drops to 0, flag holds", 0, ParamAction(2, -3.0, -3.0), False, 1.0),
        ("infeasible idle visit", 1, ParamAction(0, -5.0, 0.0), False, 1.0),
        ("cloud idle visit", 2, ParamAction(3), False, 0.0),
    ]

    def test_each_request_kind_matches_a_fresh_encode(self):
        env = make_env()
        env.open_epoch(EpochTraffic(np.array([3, 2, 1]), 9.5))
        flags, req = env.layout.deployed, env.layout.request
        after = env.encode_state(0)
        handed = []
        for label, vnf, action, assign_user, flag in self.REQUESTS:
            s = after.copy()  # as advance_epoch moves the request slot
            s[req] = 0.0
            s[req.start + vnf] = 1.0
            assert np.array_equal(s, env.encode_state(vnf)), label
            out = env.apply_action(vnf, action, assign_user)
            assert out.row == (3 if out.infeasible and assign_user else action.target), label
            after = s.copy()
            env._patch_features(after, out.row, vnf)
            assert np.array_equal(after, env.encode_state(vnf)), label
            assert after[flags][vnf] == flag, label
            handed += [(s, s.copy()), (after, after.copy())]
        # each request's arrays are new; none is written after it is handed out
        assert all(np.array_equal(a, b) for a, b in handed)
        assert len({id(a) for a, _ in handed}) == len(handed)
        assert env.state.users[3, 1] == 2 and env.state.users[1, 0] == 1

    def test_records_hold_what_each_request_saw(self):
        """A record's state is what its policy call got and its next state what
        encode_state gave right after the request, however many follow it."""
        env = make_env()
        agent = RandomAgent(env.pool, 1)
        apply_action, seen = env.apply_action, []

        def policy(features, vnf, state, has_user):
            seen.append(features.copy())
            return agent.select(features, vnf, state, has_user)

        def checked_apply(vnf, action, assign_user=True):
            out = apply_action(vnf, action, assign_user)
            seen.append(env.encode_state(vnf))
            return out

        env.apply_action = checked_apply
        records = [r for _ in range(4) for r in env.advance_epoch(policy).records]
        held = [a for r in records for a in (r.state, r.next_state)]
        assert len(held) == len(seen) > 8
        assert all(np.array_equal(a, b) for a, b in zip(held, seen))
        assert len({id(a) for a in held}) == len(held)


class TestAdvanceEpoch:
    def test_encodes_and_builds_the_grid_once_per_epoch(self, monkeypatch):
        """Requests reuse the epoch's features and cost grid: encode_state
        and cost_components each run once per epoch at the default scale."""
        calls = {"encode_state": 0, "cost_components": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(VnfEnv, "encode_state", counted("encode_state", VnfEnv.encode_state))
        monkeypatch.setattr(env_module, "cost_components",
                            counted("cost_components", env_module.cost_components))
        cfg = harness.defaults()
        env = harness.build_env(cfg, 4)
        agent = RandomAgent(cfg.pool, 4)
        epochs, requests = 5, 0
        for _ in range(epochs):
            requests += len(env.advance_epoch(agent.select).records)
        assert env.pool.k_servers == 10 and requests > 10 * epochs
        assert calls == {"encode_state": epochs, "cost_components": epochs}

    def test_zero_arrivals_yield_one_visit_per_vnf(self):
        specs = [VnfSpec(i, 3, 5, 4, 6, 5, 3, 35, 70, 2, 0.0, 0.0) for i in range(3)]
        env = VnfEnv(PoolConfig(k_servers=3, n_vnfs=3), specs, CostParams(),
                     TrafficConfig(), seed=0)
        summary = env.advance_epoch(offload_policy)
        assert len(summary.records) == 3
        assert not any(r.had_user for r in summary.records)

    def test_transition_count_is_requests_plus_idle_vnfs(self):
        env = VnfEnv(PoolConfig(k_servers=3, n_vnfs=3), default_vnfs(3),
                     CostParams(), TrafficConfig(), seed=12)
        for _ in range(20):
            summary = env.advance_epoch(offload_policy)
            arrivals = env.cur.arrivals
            want = int(sum(max(int(a), 1) for a in arrivals))
            assert len(summary.records) == want

    def test_rate_block_held_for_t_max_epochs(self):
        traffic = TrafficConfig(t_max=5)
        env = VnfEnv(PoolConfig(k_servers=2, n_vnfs=2), default_vnfs(2),
                     CostParams(), traffic, seed=3)
        lambdas = []
        for _ in range(11):
            env.advance_epoch(offload_policy)
            lambdas.append(env.lambdas.copy())
        for t in range(1, 5):
            assert (lambdas[t] == lambdas[0]).all()
        assert not (lambdas[5] == lambdas[0]).all()
        for t in range(6, 10):
            assert (lambdas[t] == lambdas[5]).all()
        assert not (lambdas[10] == lambdas[5]).all()

    def test_deterministic_given_seed(self):
        def run(seed):
            env = VnfEnv(PoolConfig(k_servers=3, n_vnfs=3), default_vnfs(3),
                         CostParams(), TrafficConfig(), seed=seed)
            return [env.advance_epoch(offload_policy).metrics for _ in range(30)]

        a, b, c = run(9), run(9), run(10)
        assert a == b
        assert a != c

    def test_user_conservation(self):
        env = VnfEnv(PoolConfig(k_servers=3, n_vnfs=3), default_vnfs(3),
                     CostParams(), TrafficConfig(), seed=5)
        rng = np.random.default_rng(6)

        def policy(features, vnf, state, has_user):
            a = int(rng.integers(4))
            if a == 3:
                return ParamAction(3)
            return ParamAction(a, float(rng.uniform(-10, 20)), float(rng.uniform(-10, 20)))

        admitted = 0
        for _ in range(50):
            before = int(env.state.users.sum())
            summary = env.advance_epoch(policy)
            arrivals = int(env.cur.arrivals.sum())
            admitted = before + arrivals
            # metrics count users after serving, before departures
            assert summary.metrics.active_users == admitted
            assert int(env.state.users.sum()) <= admitted

    def test_metrics_recomputable_from_snapshot(self):
        env = VnfEnv(PoolConfig(k_servers=3, n_vnfs=3), default_vnfs(3),
                     CostParams(), TrafficConfig(), seed=8)
        for _ in range(10):
            summary = env.advance_epoch(offload_policy, keep_snapshot=True)
            st, rate = summary.snapshot
            want = oracle_figures(st, env.specs, env.costs, rate)
            got = {key: getattr(summary.metrics, key) for key in want}
            assert check_oracle(got, want, f"epoch {summary.metrics.epoch}") == []

    def test_cloud_only_metrics(self):
        env = VnfEnv(PoolConfig(k_servers=3, n_vnfs=3), default_vnfs(3),
                     CostParams(), TrafficConfig(), seed=11)
        for _ in range(5):
            summary = env.advance_epoch(offload_policy)
            m = summary.metrics
            assert m.cpu_util == 0.0
            assert m.cloud_fraction == (1.0 if m.active_users else 0.0)
