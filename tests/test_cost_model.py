"""Cost-model unit tests: the cost kernel against the independent oracle
(tests/reference.py) and against frozen hand values on tiny states."""

import dataclasses

import numpy as np
import pytest

from reference import (check_kernel, dense_cost_grid, qos_reference, random_populated_state,
                       random_spec)
from vnf_lab.env import (VnfSpec, CostParams, PoolConfig, AllocationState,
                         resource_range, qos, agent_cost, cost_components)
from vnf_lab.harness import default_vnfs

N1 = VnfSpec(0, 3, 5, 4, 6, 5, 3, 35, 70, 2, 2.0, 1.5)
N6 = VnfSpec(5, 1, 2, 1, 0, 3, 2, 5, 30, 2, 2.0, 1.5)
COSTS = CostParams()


class TestResourceRange:
    def test_n1_single_user(self):
        assert resource_range(N1, 1) == (4, 12, 8, 14)

    def test_n6_two_users(self):
        assert resource_range(N6, 2) == (3, 7, 2, 10)

    def test_monotone_in_users(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            spec = random_spec(rng)
            u = int(rng.integers(1, 20))
            lo1, up1, ml1, mu1 = resource_range(spec, u)
            lo2, up2, ml2, mu2 = resource_range(spec, u + 1)
            assert lo2 > lo1 and up2 > up1 and ml2 > ml1 and mu2 > mu1
            assert lo1 <= up1 and ml1 <= mu1


class TestQos:
    def test_mid_band_value(self):
        assert qos(N1, 1, 8, 11) == pytest.approx(52.5, abs=1e-12)

    def test_lower_corner_hits_floor(self):
        assert qos(N1, 1, 4, 8) == pytest.approx(35.0, abs=1e-12)

    def test_saturation_needs_both_axes(self):
        assert qos(N1, 1, 13, 15) == 70.0
        # one axis above, the other capped inside: linear with the cap
        assert qos(N1, 1, 13, 11) == pytest.approx(2.5 * (12 + 11) + 5, abs=1e-12)

    def test_starvation_on_either_axis(self):
        assert qos(N1, 1, 3.9, 14) == 0.0
        assert qos(N1, 1, 12, 7.9) == 0.0

    def test_oracle_agreement_bulk(self):
        rng = np.random.default_rng(11)
        for _ in range(3000):
            spec = random_spec(rng)
            u = int(rng.integers(1, 15))
            c_low, c_up, m_low, m_up = resource_range(spec, u)
            c = rng.uniform(-2, c_up * 1.5 + 2)
            m = rng.uniform(-2, m_up * 1.5 + 2)
            got = qos(spec, u, c, m)
            want = qos_reference(spec, u, c, m)
            assert got == pytest.approx(want, abs=1e-9)
            assert 0.0 <= got <= spec.qos_max + 1e-12

    @pytest.mark.parametrize("u", range(1, 9))
    def test_band_edges_stay_inside_the_band(self, u):
        # slope * x + offset lands just below qos_min at the lower edge for
        # some catalogue rows (VNFs 4, 5 and 9 at u = 3); the floor must hold
        specs = default_vnfs(10)
        st = make_state(k_servers=2, n_vnfs=10)
        st.users[:2] = u
        for j, spec in enumerate(specs):
            c_low, c_up, m_low, m_up = resource_range(spec, u)
            st.cpu[:2, j], st.mem[:2, j] = (c_low, c_up), (m_low, m_up)
            assert qos(spec, u, st.cpu[0, j], st.mem[0, j]) >= spec.qos_min
            assert qos(spec, u, st.cpu[1, j], st.mem[1, j]) <= spec.qos_max
        sla = cost_components(st, specs, COSTS, 10.0)[2]
        assert sla[0] == pytest.approx([-s.qos_min * u for s in specs], rel=1e-12)
        assert sla[1] == pytest.approx([-s.qos_max * u for s in specs], rel=1e-12)

    def test_monotone_inside_band(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            spec = random_spec(rng)
            u = int(rng.integers(1, 10))
            c_low, c_up, m_low, m_up = resource_range(spec, u)
            c = rng.uniform(c_low, c_up)
            m = rng.uniform(m_low, m_up)
            step = rng.uniform(0, (c_up - c_low) + 1e-9)
            assert qos(spec, u, min(c + step, c_up), m) >= qos(spec, u, c, m) - 1e-12


def make_state(k_servers=3, n_vnfs=3):
    return AllocationState(k_servers, n_vnfs)


def components(st, specs=None, costs=COSTS, rate=10.0):
    """(latency, financial, sla, numerator) matrices of cost_components."""
    specs = specs or [N1] * st.n_vnfs
    return cost_components(st, specs, costs, rate)


class TestLatencies:
    def test_resize_is_l1_weighted(self):
        for now, before in (((7, 10), (4, 8)), ((4, 8), (7, 10))):
            st = make_state()
            st.cpu[0, 0], st.mem[0, 0] = now
            st.cpu_prev[0, 0], st.mem_prev[0, 0] = before
            st.users[0, 0] = 1
            assert components(st)[0][0, 0] == 3 * 3 + 2 * 4

    def test_deployment_only_on_boot(self):
        # resize weights off, so each cell's latency is its boot charge
        costs = CostParams(d_rc=0.0, d_rm=0.0)
        st = make_state()
        st.users[:3, 0] = 1
        st.cpu_prev[:3, 0] = (0, 4, 0)
        st.cpu[:3, 0] = (4, 8, 0)
        assert list(components(st, costs=costs)[0][:3, 0]) == [20, 0, 0]

    def test_offload_roundtrip(self):
        st = make_state()
        cl = st.cloud
        st.users[cl, 0] = 1
        st.cpu[cl, 0], st.mem[cl, 0] = 12, 14
        assert components(st, rate=1.0)[0][cl, 0] == 28
        assert components(st, rate=14.0)[0][cl, 0] == 2


class TestInstanceCosts:
    def test_server_financial_active_share(self):
        st = make_state(k_servers=10, n_vnfs=10)
        st.cpu[0, 0], st.mem[0, 0], st.users[0, 0] = 4, 8, 1
        st.cpu_prev[0, 0], st.mem_prev[0, 0] = 4, 8
        st.server_active_prev[0] = True
        assert components(st)[1][0, 0] == pytest.approx(48.1, abs=1e-12)

    def test_idle_deployment_still_pays_one_user(self):
        st = make_state(k_servers=10, n_vnfs=10)
        st.cpu[0, 0], st.mem[0, 0] = 4, 8
        st.server_active_prev[0] = True
        assert components(st)[1][0, 0] == pytest.approx(48.1, abs=1e-12)

    def test_undeployed_is_free(self):
        st = make_state()
        assert components(st)[1][0, 0] == 0.0

    def test_power_on_share_charged_once_per_server(self):
        st = make_state(k_servers=10, n_vnfs=10)
        st.cpu[0, 0], st.mem[0, 0], st.users[0, 0] = 4, 8, 1
        assert components(st)[1][0, 0] == pytest.approx(
            4 * 6 + 8 * 3 + 2 / 10 + 1 / 10, abs=1e-12)

    def test_cloud_new_offload(self):
        st = make_state(k_servers=10, n_vnfs=10)
        cl = st.cloud
        st.users[cl, 0] = 1
        st.cpu[cl, 0], st.mem[cl, 0] = 12, 14
        assert components(st)[1][cl, 0] == pytest.approx(43.0, abs=1e-12)

    def test_cloud_rental_after_first_epoch(self):
        st = make_state(k_servers=10, n_vnfs=10)
        cl = st.cloud
        st.users[cl, 0] = 1
        st.cpu[cl, 0], st.mem[cl, 0] = 12, 14
        st.cpu_prev[cl, 0] = 12
        assert components(st)[1][cl, 0] == pytest.approx(42.0, abs=1e-12)

    def test_sla_penalty_and_reward(self):
        st = make_state()
        st.users[0, 0], st.cpu[0, 0], st.mem[0, 0] = 3, 4, 9   # starved: qos 0
        st.users[1, 0], st.cpu[1, 0], st.mem[1, 0] = 2, 13, 16  # mid-band: qos 52.5
        st.cpu[2, 0], st.mem[2, 0] = 13, 16                     # no users
        sla = components(st)[2]
        assert list(sla[:3, 0]) == [6.0, -105.0, 0.0]

    def test_instance_latency_cloud(self):
        st = make_state()
        cl = st.cloud
        st.users[cl, 1] = 1
        st.cpu[cl, 1], st.mem[cl, 1] = 12, 14
        assert components(st, rate=14.0)[0][cl, 1] == pytest.approx(2.0)

    def test_instance_cost_frozen_example(self):
        # one user, latency 10, qos 52.5 (sla -52.5), financial 81.1, weights (1,1,2)
        st = make_state(k_servers=10, n_vnfs=10)
        st.cpu[0, 0], st.mem[0, 0], st.users[0, 0] = 8, 11, 1
        st.cpu_prev[0, 0], st.mem_prev[0, 0] = 9, 12.75  # resize back by (1, 1.75)
        st.server_active_prev[0] = True
        lat, fin, _, num = components(st, [N1] + [N6] * 9)
        assert lat[0, 0] == pytest.approx(1 * 3 + 1.75 * 4, abs=1e-12)  # = 10
        assert fin[0, 0] == pytest.approx(8 * 6 + 11 * 3 + 0.1, abs=1e-12)  # = 81.1
        assert num[0, 0] == pytest.approx(1 * 10 + 2 * (-52.5) + 1 * 81.1, abs=1e-9)

    def test_agent_cost_blend_and_clip(self):
        assert agent_cost(-46.9, -40.0, 0.2, 100.0) == pytest.approx(-0.549, abs=1e-12)
        assert agent_cost(500.0, 0.0, 0.2, 100.0) == 1.0
        assert agent_cost(-500.0, 0.0, 0.2, 100.0) == -1.0


def isolated(st, k, j):
    """A copy of st holding instance (k, j) alone. An instance's costs depend
    only on itself, its server's previous activity and the catalogue size."""
    out = AllocationState(st.k_servers, st.n_vnfs)
    for name in ("cpu", "mem", "users", "cpu_prev", "mem_prev"):
        getattr(out, name)[k, j] = getattr(st, name)[k, j]
    out.server_active_prev = st.server_active_prev.copy()
    return out


class TestNetworkCost:
    def test_empty_network_is_zero(self):
        st = make_state()
        num = components(st, [N1, N6, N1], rate=5.0)[3]
        assert num.sum() == 0.0

    def test_matches_instance_sum(self):
        rng = np.random.default_rng(21)
        specs = [random_spec(rng, i) for i in range(4)]
        for rep in range(200):
            st = random_populated_state(rng, 3, specs)
            rate = rng.uniform(1, 20)
            mats = cost_components(st, specs, COSTS, rate)
            assert check_kernel(mats, st, specs, COSTS, rate, f"rep {rep}") == []

    def test_vectorized_components_match_scalar_ops(self):
        rng = np.random.default_rng(22)
        specs = [random_spec(rng, i) for i in range(5)]
        for _ in range(100):
            st = random_populated_state(rng, 2, specs)
            rate = rng.uniform(1, 20)
            mats = cost_components(st, specs, COSTS, rate)
            for k in range(3):
                for j in range(5):
                    cell = [mat[k:k + 1, j] for mat in mats]
                    assert check_kernel(cell, isolated(st, k, j), specs, COSTS, rate,
                                        f"cell ({k}, {j})") == []


class TestCostGrid:
    """cost_components against cell_costs run on every cell."""

    @staticmethod
    def assert_grid_equal(st, specs, rate):
        for got, want in zip(cost_components(st, specs, COSTS, rate),
                             dense_cost_grid(st, specs, COSTS, rate)):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            # the env sums these matrices; a sum's rounding follows memory order
            assert got.flags.c_contiguous and got.sum() == want.sum()

    def test_equals_the_dense_kernel_grid(self):
        rng = np.random.default_rng(23)
        specs = [random_spec(rng, i) for i in range(4)]
        # without a base CPU demand, an instance with no users and no CPU has
        # full QoS once its memory reaches m0, so its SLA entry is -0.0, not
        # the +0.0 of an empty cell; N6 has no base memory demand
        specs += [dataclasses.replace(specs[0], id=4, c0=0.0, m0=0.0),
                  dataclasses.replace(specs[1], id=5, c0=0.0),
                  dataclasses.replace(N6, id=6)]
        seen = {"empty cloud": 0, "memory, no CPU": 0, "previous only": 0}
        for _ in range(150):
            st = random_populated_state(rng, 3, specs)
            empty = (st.users == 0) & (st.cpu == 0) & (st.mem == 0)
            # some empty server cells get memory without CPU, users without
            # an allocation or only a previous allocation
            for t, j in np.argwhere(empty[:-1]).tolist():
                draw = rng.random()
                if draw < 0.3:
                    st.mem[t, j] = rng.uniform(0, 2 * specs[j].m0 + 1)  # below and above m0
                elif draw < 0.4:
                    st.users[t, j] = rng.integers(1, 4)
                elif draw < 0.7:
                    st.cpu_prev[t, j], st.mem_prev[t, j] = rng.uniform(0, 12, 2) * (
                        rng.random(2) < 0.7)
            now = (st.users != 0) | (st.cpu != 0) | (st.mem != 0)
            before = (st.cpu_prev != 0) | (st.mem_prev != 0)
            seen["empty cloud"] += int((~now[-1] & ~before[-1]).sum())
            seen["memory, no CPU"] += int(((st.mem != 0) & (st.cpu == 0)).sum())
            seen["previous only"] += int((~now & before).sum())
            self.assert_grid_equal(st, specs, rng.uniform(1, 20))
        assert min(seen.values()) > 20, seen

    def test_empty_cloud_cells_keep_a_negative_zero_sla(self):
        specs = default_vnfs(4)
        st = AllocationState(2, 4)
        st.users[2, 1], st.cpu[2, 1], st.mem[2, 1] = 2, 7.0, 9.0
        sla = cost_components(st, specs, COSTS, 10.0)[2]
        assert np.signbit(sla[2, [0, 2, 3]]).all() and (sla[2, [0, 2, 3]] == 0).all()
        self.assert_grid_equal(st, specs, 10.0)

    def test_all_empty_and_all_occupied_grids(self):
        rng = np.random.default_rng(24)
        specs = [random_spec(rng, i) for i in range(3)]
        self.assert_grid_equal(AllocationState(2, 3), specs, 7.0)
        st = random_populated_state(rng, 2, specs)
        for name in ("cpu", "mem", "cpu_prev", "mem_prev"):
            getattr(st, name)[:] = rng.uniform(0.5, 12, st.cpu.shape)
        self.assert_grid_equal(st, specs, 7.0)


class TestValidation:
    def test_spec_invariants_rejected(self):
        with pytest.raises(ValueError):
            VnfSpec(0, 3, 2, 2, 6, 5, 3, 35, 70, 2, 2.0, 1.5)  # cr == dc
        with pytest.raises(ValueError):
            VnfSpec(0, 3, 5, 4, 6, 2, 3, 35, 70, 2, 2.0, 1.5)  # mr < dm
        with pytest.raises(ValueError):
            VnfSpec(0, 3, 5, 4, 6, 5, 3, 80, 70, 2, 2.0, 1.5)  # qos_min > qos_max
        with pytest.raises(ValueError):
            VnfSpec(0, 3, 5, 4, 6, 5, 3, 35, 70, 2, 2.0, 1.5, p_stay=1.5)

    def test_pool_and_cost_invariants(self):
        with pytest.raises(ValueError):
            PoolConfig(rho_max=-1)
        with pytest.raises(ValueError):
            CostParams(w1=0)
        with pytest.raises(ValueError):
            CostParams(d_rc=-0.1)
