"""Reference policies: greedy packing rules, grids, and the paired learners."""

import json

import numpy as np
import pytest

from vnf_lab import cli, nn
from vnf_lab.baselines import (BaselineRlConfig, CloudAgent, DdpgPairAgent,
                               DdqnPairAgent, DiscretizedGrid, GreedyAgent,
                               RandomAgent, dqn_grad)
from reference import one_hot
from vnf_lab.env import AllocationState, ParamAction, PoolConfig, VnfSpec, qos, resource_range
from vnf_lab.pat import DTYPE, ReplayBuffer

STATE_DIM = 12
N_TARGETS = 4
PATCH = ReplayBuffer.PATCH

SPEC0 = VnfSpec(0, 3, 5, 4, 6, 5, 3, 35, 70, 2, 2.0, 1.5)
SPEC1 = VnfSpec(1, 2, 3, 2, 4, 4, 2, 36, 80, 2, 2.5, 0.2)
POOL = PoolConfig(k_servers=2, rho_max=50.0, eta_max=50.0, n_vnfs=2)


def small_cfg(**overrides) -> BaselineRlConfig:
    return BaselineRlConfig(**{"batch_size": 8, "buffer_capacity": 64,
                               "warmup_size": 8, **overrides})


def fill_learner(agent, rng, n, grid=None):
    for _ in range(n):
        a = int(rng.integers(N_TARGETS))
        if a == N_TARGETS - 1:
            p = np.zeros(2)
        elif grid is not None:
            p = np.array(grid.delta(int(rng.integers(grid.n_cells))))
        else:
            p = rng.uniform(-50, 50, 2)
        state = rng.normal(0, 1, STATE_DIM)
        next_state = state.copy()  # with PATCH entries redrawn, as replay takes at most that many
        next_state[rng.choice(STATE_DIM, PATCH, replace=False)] = rng.normal(0, 1, PATCH)
        agent.store(state, a, p, float(rng.uniform(-1, 1)), next_state)


class TestGreedy:
    def setup_method(self):
        self.agent = GreedyAgent(POOL, [SPEC0, SPEC1])

    def test_grows_existing_instance_to_new_lower_bounds(self):
        st = AllocationState(2, 2)
        st.cpu[0, 0], st.mem[0, 0], st.users[0, 0] = 4.0, 8.0, 1
        act = self.agent.select(None, 0, st)
        c_low, _, m_low, _ = resource_range(SPEC0, 2)
        assert act == ParamAction(0, c_low - 4.0, m_low - 8.0)

    def test_deploys_minimal_instance_when_absent(self):
        act = self.agent.select(None, 0, AllocationState(2, 2))
        assert act == ParamAction(0, 4.0, 8.0)

    def test_prefers_growth_over_fresh_deployment(self):
        st = AllocationState(2, 2)
        st.cpu[1, 0], st.mem[1, 0], st.users[1, 0] = 4.0, 8.0, 1
        act = self.agent.select(None, 0, st)
        assert act.target == 1

    def test_skips_full_server_for_deployment(self):
        st = AllocationState(2, 2)
        st.cpu[0, 1], st.mem[0, 1], st.users[0, 1] = 48.0, 10.0, 1
        act = self.agent.select(None, 0, st)
        assert act == ParamAction(1, 4.0, 8.0)

    def test_growth_that_would_overflow_falls_through(self):
        st = AllocationState(2, 2)
        st.cpu[0, 0], st.mem[0, 0], st.users[0, 0] = 4.0, 8.0, 1
        st.cpu[0, 1], st.mem[0, 1], st.users[0, 1] = 46.0, 10.0, 1
        act = self.agent.select(None, 0, st)
        assert act == ParamAction(1, 4.0, 8.0)

    def test_offloads_when_nothing_fits(self):
        st = AllocationState(2, 2)
        st.cpu[0, 1], st.mem[0, 1], st.users[0, 1] = 50.0, 50.0, 1
        st.cpu[1, 1], st.mem[1, 1], st.users[1, 1] = 50.0, 50.0, 1
        act = self.agent.select(None, 0, st)
        assert act == ParamAction(2, 0.0, 0.0)

    def test_idle_visit_is_a_no_op(self):
        st = AllocationState(2, 2)
        st.cpu[0, 0], st.mem[0, 0], st.users[0, 0] = 4.0, 8.0, 1
        act = self.agent.select(None, 0, st, has_user=False)
        assert act == ParamAction(2, 0.0, 0.0)

    def test_placed_allocations_meet_the_qos_floor(self):
        rng = np.random.default_rng(40)
        st = AllocationState(2, 2)
        for _ in range(60):
            j = int(rng.integers(2))
            spec = (SPEC0, SPEC1)[j]
            act = self.agent.select(None, j, st)
            if act.target >= 2:
                continue
            k = act.target
            st.cpu[k, j] += act.d_cpu
            st.mem[k, j] += act.d_mem
            st.users[k, j] += 1
            q = qos(spec, int(st.users[k, j]), st.cpu[k, j], st.mem[k, j])
            assert q >= spec.qos_min - 1e-9
            assert st.cpu[k].sum() <= POOL.rho_max + 1e-9
            assert st.mem[k].sum() <= POOL.eta_max + 1e-9


class TestCloudAndRandom:
    def test_cloud_agent_always_offloads(self):
        agent = CloudAgent(POOL)
        st = AllocationState(2, 2)
        for j in range(2):
            assert agent.select(None, j, st) == ParamAction(2, 0.0, 0.0)
            assert agent.select(None, j, st, has_user=False) == ParamAction(2, 0.0, 0.0)

    def test_random_targets_are_uniform(self):
        agent = RandomAgent(POOL, seed=41)
        counts = np.zeros(3)
        for _ in range(15_000):
            counts[agent.select(None, 0, None).target] += 1
        assert np.abs(counts / 15_000 - 1 / 3).max() < 0.02

    def test_random_deltas_stay_in_box_and_cloud_is_clean(self):
        agent = RandomAgent(POOL, seed=42)
        for _ in range(500):
            act = agent.select(None, 0, None)
            assert abs(act.d_cpu) <= POOL.rho_max and abs(act.d_mem) <= POOL.eta_max
            if act.target == 2:
                assert act.d_cpu == 0.0 and act.d_mem == 0.0

    def test_random_agent_is_seed_reproducible(self):
        seq = [RandomAgent(POOL, seed=7).select(None, 0, None) for _ in range(5)]
        again = [RandomAgent(POOL, seed=7).select(None, 0, None) for _ in range(5)]
        assert seq == again


def cell_of(grid, d_cpu, d_mem) -> int:
    return int(grid.cells_of(np.array([[d_cpu, d_mem]]))[0])


class TestDiscretizedGrid:
    def test_default_lattice_shape(self):
        grid = DiscretizedGrid(5.0, 50.0, 50.0)
        assert grid.n_cells == 100
        assert grid.values_cpu[0] == -25.0 and grid.values_cpu[-1] == 20.0
        assert (np.diff(grid.values_cpu) == 5.0).all()

    def test_delta_index_roundtrip(self):
        grid = DiscretizedGrid(5.0, 50.0, 50.0)
        for i in range(grid.n_cells):
            assert cell_of(grid, *grid.delta(i)) == i

    def test_zero_cell_exists_and_nearest_rounding(self):
        grid = DiscretizedGrid(5.0, 50.0, 50.0)
        zero = cell_of(grid, 0.0, 0.0)
        assert grid.delta(zero) == (0.0, 0.0)
        assert cell_of(grid, -1.0, 1.0) == zero
        assert grid.delta(cell_of(grid, -24.0, 19.0)) == (-25.0, 20.0)

    @pytest.mark.parametrize("resolution,span", [(5.0, 50.0), (3.0, 20.0), (0.7, 9.0)])
    def test_batched_lookup_matches_the_scalar_loop(self, resolution, span):
        """cells_of equals a per-row argmin over |lattice - delta|, first
        minimum on a tie, on lattice deltas, off-lattice deltas and exact
        midpoints between neighbouring values."""
        grid = DiscretizedGrid(resolution, span, span)

        def loop(params):
            nm = len(grid.values_mem)
            return np.array([int(np.argmin(np.abs(grid.values_cpu - c))) * nm
                             + int(np.argmin(np.abs(grid.values_mem - m))) for c, m in params])

        rng = np.random.default_rng(8)
        lattice = np.array([grid.delta(i) for i in range(grid.n_cells)])
        off = rng.uniform(-span, span, (300, 2))
        mids_c = (grid.values_cpu[:-1] + grid.values_cpu[1:]) / 2
        mids_m = (grid.values_mem[:-1] + grid.values_mem[1:]) / 2
        ties = np.stack([rng.choice(mids_c, 200), rng.choice(mids_m, 200)], axis=1)
        # a midpoint is an exact tie where both distances round alike
        dist = np.abs(grid.values_cpu - mids_c[:, None])
        assert ((dist == dist.min(axis=1, keepdims=True)).sum(axis=1) > 1).any()
        for params in (lattice, off, ties, np.concatenate([lattice, off, ties])):
            got = grid.cells_of(params)
            assert got.dtype == np.int64 and np.array_equal(got, loop(params))
        assert np.array_equal(grid.cells_of(lattice), np.arange(grid.n_cells))
        assert [cell_of(grid, c, m) for c, m in ties] == loop(ties).tolist()

    def test_small_span_keeps_at_least_one_cell(self):
        grid = DiscretizedGrid(5.0, 2.0, 2.0)
        assert grid.n_cells == 1
        assert grid.delta(0) == (0.0, 0.0)

    def test_rejects_bad_resolution(self):
        with pytest.raises(ValueError):
            DiscretizedGrid(0.0, 50.0, 50.0)


class TestDqnUpdate:
    @staticmethod
    def constant_net(sizes, head_bias):
        net = nn.Mlp(sizes)
        for w in net.weights:
            w[:] = 0.0
        net.biases[-1][:] = head_bias
        return net

    def test_bootstrap_uses_online_argmax_with_target_values(self):
        # online prefers action 0 while the target net scores action 1 higher;
        # the loss reveals which bootstrap was used
        net = self.constant_net((3, 8, 2), [2.0, 1.0])
        target = self.constant_net((3, 8, 2), [10.0, 20.0])
        states = np.zeros((1, 3))
        loss, _ = dqn_grad(net, target, states, np.array([0]),
                           np.array([0.5]), np.zeros((1, 3)), 0.99)
        y_double = 0.5 + 0.99 * 10.0
        y_vanilla_max = 0.5 + 0.99 * 20.0
        assert loss == pytest.approx((2.0 - y_double) ** 2, rel=1e-12)
        assert abs(loss - (2.0 - y_vanilla_max) ** 2) > 1.0

    def test_fits_reward_with_zero_discount(self):
        rng = np.random.default_rng(43)
        net = nn.Mlp((3, 16, 8, 2))
        nn.gaussian_init(net, rng)
        target = nn.clone(net)
        adam = nn.AdamState(net, lr=1e-3)
        states = rng.normal(0, 1, (4, 3))
        actions = np.array([0, 1, 0, 1])
        rewards = np.array([0.3, -0.4, 0.1, 0.9])
        for _ in range(800):
            loss, grad = dqn_grad(net, target, states, actions, rewards, states, 0.0)
            adam.step(net, grad)
        q = nn.forward(net, states)
        assert q[np.arange(4), actions] == pytest.approx(rewards, abs=2e-3)
        assert loss < 1e-5


class TestDdqnPair:
    def make(self, seed=50, **over):
        cfg = small_cfg(alternation_period=2, **over)
        agent = DdqnPairAgent(STATE_DIM, N_TARGETS, (50.0, 50.0), cfg, seed=seed)
        return agent, agent.grid

    @pytest.mark.parametrize("resolution, box", [(5.0, (50.0, 50.0)), (3.0, (20.0, 9.0))])
    def test_lattice_of_the_resolution_spans_the_box(self, resolution, box):
        agent = DdqnPairAgent(STATE_DIM, N_TARGETS, box, small_cfg(resolution=resolution))
        want = DiscretizedGrid(resolution, *box)
        assert agent.grid.resolution == resolution
        assert np.array_equal(agent.grid.values_cpu, want.values_cpu)
        assert np.array_equal(agent.grid.values_mem, want.values_mem)
        assert agent.param_q.n_out == want.n_cells

    def test_select_deltas_come_from_the_lattice(self):
        agent, grid = self.make()
        rng = np.random.default_rng(51)
        for _ in range(200):
            act = agent.select(rng.normal(0, 1, STATE_DIM))
            if act.target == agent.cloud_action:
                assert act.d_cpu == 0.0 and act.d_mem == 0.0
            else:
                assert act.d_cpu in grid.values_cpu
                assert act.d_mem in grid.values_mem

    def test_phase_alternation_freezes_the_other_network(self):
        agent, grid = self.make()
        fill_learner(agent, np.random.default_rng(52), 16, grid=grid)
        server0 = [w.copy() for w in agent.server_q.weights]
        param0 = [w.copy() for w in agent.param_q.weights]
        for _ in range(2):
            assert agent.phase == 0
            assert agent.train_step()["trained"]
        assert any((w0 != w1).any() for w0, w1 in zip(server0, agent.server_q.weights))
        for w0, w1 in zip(param0, agent.param_q.weights):
            assert (w0 == w1).all()
        server1 = [w.copy() for w in agent.server_q.weights]
        for _ in range(2):
            assert agent.phase == 1
            agent.train_step()
        for w0, w1 in zip(server1, agent.server_q.weights):
            assert (w0 == w1).all()
        assert any((w0 != w1).any() for w0, w1 in zip(param0, agent.param_q.weights))

    def test_warmup_noop_and_checkpoint_roundtrip(self, tmp_path):
        # nets, optimizers and actions round-trip in test_pat's TestCheckpoint
        agent, grid = self.make()
        assert agent.train_step() == {"trained": False, "eps": 0.8, "clip_c": 0.5}
        path = agent.save(tmp_path / "ddqn.npz")
        again = DdqnPairAgent.load(path)
        assert (again.grid.values_cpu == grid.values_cpu).all()
        assert (again.grid.values_mem == grid.values_mem).all()


# each pair's parameter side: the nets its phase 1 steps
PARAM_SIDE = {"ddqn": ("param_q",), "ddpg": ("actor", "critic")}


@pytest.mark.parametrize("kind", ["ddqn", "ddpg"])
def test_target_nets_track_only_their_phase(kind):
    """train_step blends only the t_ copies of the nets its phase steps: the
    server selector's in phase 0, the parameter side's in phase 1. The first
    cycle runs unchecked, so that every live net has left its t_ copy."""
    cls = DdqnPairAgent if kind == "ddqn" else DdpgPairAgent
    agent = cls(STATE_DIM, N_TARGETS, (50.0, 50.0), small_cfg(alternation_period=2), seed=53)
    fill_learner(agent, np.random.default_rng(53), 16, grid=getattr(agent, "grid", None))
    for _ in range(4):
        agent.train_step()
    names = ("server_q", *PARAM_SIDE[kind])
    for phase in (0, 0, 1, 1):  # alternation_period updates each
        stepped = names[1:] if phase else names[:1]
        before = {name: getattr(agent, "t_" + name).params.copy() for name in names}
        assert agent.phase == phase and agent.train_step()["trained"]
        for name in names:
            moved = (getattr(agent, "t_" + name).params != before[name]).any()
            assert moved == (name in stepped), (phase, name)


class TestDdpgPair:
    def make(self, seed=60, **over):
        cfg = small_cfg(alternation_period=2, **over)
        return DdpgPairAgent(STATE_DIM, N_TARGETS, (50.0, 50.0), cfg, seed=seed)

    def test_targets_are_deterministic_single_critic(self):
        agent = self.make()
        for w in agent.t_critic.weights:
            w[:] = 0.0
        for b in agent.t_critic.biases:
            b[:] = 0.0
        agent.t_critic.biases[-1][0] = 3.0
        rng = np.random.default_rng(61)
        rewards = rng.uniform(-1, 1, 8).astype(DTYPE)
        batch = (rng.normal(0, 1, (8, STATE_DIM)).astype(DTYPE), rng.integers(0, N_TARGETS, 8),
                 rng.uniform(-50, 50, (8, 2)).astype(DTYPE), rewards,
                 rng.normal(0, 1, (8, STATE_DIM)).astype(DTYPE))
        y1, _ = agent.compute_targets(batch)
        y2, _ = agent.compute_targets(batch)
        assert (y1 == y2).all()
        # rewards + 0.99 * 3.0 in the learners' dtype, in that order
        assert (y1 == rewards + DTYPE(0.99) * DTYPE(3.0)).all() and y1.dtype == DTYPE

    def test_exploration_noise_is_bounded(self):
        agent = self.make(sigma_noise=5.0)
        rng = np.random.default_rng(62)
        for _ in range(200):
            feats = rng.normal(0, 1, STATE_DIM).astype(DTYPE)  # select's cast
            act = agent.select(feats)
            assert abs(act.d_cpu) <= 50.0 and abs(act.d_mem) <= 50.0
            if act.target != agent.cloud_action:
                x = np.concatenate([feats, one_hot([act.target], N_TARGETS, DTYPE)[0]])
                mu = nn.forward(agent.actor, x)
                limit = agent.clip_c * 50.0
                assert abs(act.d_cpu - mu[0]) <= limit + 1e-9
                assert abs(act.d_mem - mu[1]) <= limit + 1e-9

    def test_eval_mode_is_deterministic(self):
        agent = self.make()
        agent.set_eval(True)
        feats = np.random.default_rng(63).normal(0, 1, STATE_DIM)
        assert agent.select(feats) == agent.select(feats)

    def test_phase_alternation_freezes_the_other_side(self):
        agent = self.make()
        fill_learner(agent, np.random.default_rng(64), 16)
        actor0 = [w.copy() for w in agent.actor.weights]
        critic0 = [w.copy() for w in agent.critic.weights]
        for _ in range(2):
            assert agent.phase == 0
            agent.train_step()
        for w0, w1 in zip(actor0, agent.actor.weights):
            assert (w0 == w1).all()
        for w0, w1 in zip(critic0, agent.critic.weights):
            assert (w0 == w1).all()
        server1 = [w.copy() for w in agent.server_q.weights]
        for _ in range(2):
            assert agent.phase == 1
            agent.train_step()
        for w0, w1 in zip(server1, agent.server_q.weights):
            assert (w0 == w1).all()
        assert any((w0 != w1).any() for w0, w1 in zip(actor0, agent.actor.weights))
        assert any((w0 != w1).any() for w0, w1 in zip(critic0, agent.critic.weights))


class TestBaselineConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            BaselineRlConfig(resolution=0.0)
        with pytest.raises(ValueError):
            BaselineRlConfig(alternation_period=0)
        with pytest.raises(ValueError):
            BaselineRlConfig(batch_size=0)
        # the ranges it shares with PatConfig are checked too
        with pytest.raises(ValueError, match="tau"):
            BaselineRlConfig(tau=5)
        with pytest.raises(ValueError, match="gamma"):
            BaselineRlConfig(gamma=2)
        with pytest.raises(ValueError, match="eps_min"):
            BaselineRlConfig(eps=0.2, eps_min=0.5)

    def test_validate_config_rejects_out_of_range_pair_block(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"pool": {"k_servers": 3, "n_vnfs": 3},
                                    "agent": {"kind": "ddqn", "tau": 5}}))
        assert cli.main(["validate-config", "--config", str(path)]) == 1
        assert "tau" in capsys.readouterr().err
