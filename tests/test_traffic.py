"""Statistical checks of the traffic samplers against closed-form moments."""

import dataclasses
import math

import numpy as np
import pytest

from reference import apply_departures_reference, random_populated_state, random_spec
from vnf_lab.env import (VnfSpec, TrafficConfig, AllocationState,
                         sample_rate_block, sample_arrivals, sample_cloud_rate,
                         apply_departures, resource_range)


def truncated_mean(mu, sigma, floor):
    """E[max(X, floor)] for X ~ Normal(mu, sigma)."""
    if sigma == 0:
        return max(mu, floor)
    a = (floor - mu) / sigma
    phi = math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi)
    cdf = 0.5 * (1 + math.erf(a / math.sqrt(2)))
    return floor * cdf + mu * (1 - cdf) + sigma * phi


def spec_with(mu, sigma, p_stay=0.5, idx=0):
    return VnfSpec(idx, 3, 5, 4, 6, 5, 3, 35, 70, 2, mu, sigma, p_stay)


class TestRateBlock:
    def test_never_negative_and_matches_truncated_mean(self):
        rng = np.random.default_rng(5)
        spec = spec_with(2.0, 1.5)
        draws = np.array([sample_rate_block(spec, rng) for _ in range(100_000)])
        assert (draws >= 0).all()
        want = truncated_mean(2.0, 1.5, 0.0)
        assert draws.mean() == pytest.approx(want, rel=0.02)

    def test_negative_mean_zero_sigma_truncates_to_zero(self):
        rng = np.random.default_rng(6)
        assert sample_rate_block(spec_with(-5.0, 0.0), rng) == 0.0


class TestArrivals:
    def test_poisson_moments(self):
        rng = np.random.default_rng(7)
        lam = np.array([2.5])
        draws = np.array([sample_arrivals(lam, 1.0, rng)[0] for _ in range(100_000)])
        assert draws.mean() == pytest.approx(2.5, rel=0.02)
        assert draws.var() == pytest.approx(2.5, rel=0.05)
        assert (draws == 0).mean() == pytest.approx(math.exp(-2.5), rel=0.05)

    def test_slot_scaling(self):
        rng = np.random.default_rng(8)
        lam = np.array([2.0])
        draws = np.array([sample_arrivals(lam, 2.0, rng)[0] for _ in range(50_000)])
        assert draws.mean() == pytest.approx(4.0, rel=0.02)

    def test_one_count_per_vnf(self):
        rng = np.random.default_rng(9)
        out = sample_arrivals(np.array([1.0, 2.0, 0.0]), 1.0, rng)
        assert out.shape == (3,)
        assert out[2] == 0


class TestCloudRate:
    def test_floor_and_mean(self):
        rng = np.random.default_rng(10)
        cfg = TrafficConfig(mu_r=2.0, sigma_r=3.0, r_min=1.0)
        draws = np.array([sample_cloud_rate(cfg, rng) for _ in range(100_000)])
        assert (draws >= 1.0).all()
        assert draws.mean() == pytest.approx(truncated_mean(2.0, 3.0, 1.0), rel=0.02)


class TestDepartures:
    def test_geometric_fraction(self):
        spec = spec_with(2.0, 1.5, p_stay=0.5)
        st = AllocationState(1, 1)
        st.cpu[0, 0], st.mem[0, 0] = 10, 10
        st.users[0, 0] = 100_000
        rng = np.random.default_rng(13)
        leavers = apply_departures(st, [spec], rng)
        assert leavers[0, 0] == pytest.approx(50_000, rel=0.01)
        assert st.users[0, 0] == 100_000 - leavers[0, 0]

    def test_p_stay_extremes(self):
        st = AllocationState(1, 2)
        st.cpu[0] = (5, 5)
        st.users[0] = (1000, 1000)
        specs = [spec_with(1, 0, p_stay=1.0, idx=0), spec_with(1, 0, p_stay=0.0, idx=1)]
        rng = np.random.default_rng(14)
        apply_departures(st, specs, rng)
        assert st.users[0, 0] == 1000  # nobody leaves
        assert st.users[0, 1] == 0     # everybody leaves

    def test_cloud_rebooking_tracks_remaining_users(self):
        spec = spec_with(2.0, 1.5, p_stay=0.5)
        st = AllocationState(1, 1)
        cl = st.cloud
        st.users[cl, 0] = 50
        _, c_up, _, m_up = resource_range(spec, 50)
        st.cpu[cl, 0], st.mem[cl, 0] = c_up, m_up
        rng = np.random.default_rng(15)
        apply_departures(st, [spec], rng)
        u = int(st.users[cl, 0])
        assert 0 < u < 50
        _, c_want, _, m_want = resource_range(spec, u)
        assert st.cpu[cl, 0] == c_want
        assert st.mem[cl, 0] == m_want

    def test_cloud_terminates_at_zero_users(self):
        spec = spec_with(1, 0, p_stay=0.0)
        st = AllocationState(1, 1)
        cl = st.cloud
        st.users[cl, 0] = 7
        st.cpu[cl, 0], st.mem[cl, 0] = 20, 30
        rng = np.random.default_rng(16)
        apply_departures(st, [spec], rng)
        assert st.users[cl, 0] == 0
        assert st.cpu[cl, 0] == 0.0 and st.mem[cl, 0] == 0.0

    def test_rebook_equals_the_column_reference(self):
        """Per-VNF booking on Python floats gives the column rebook's bits,
        on non-integer catalogues, and draws what it draws."""
        rng = np.random.default_rng(18)
        for rep in range(300):
            k, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            specs = [dataclasses.replace(random_spec(rng, i), p_stay=float(rng.random()))
                     for i in range(n)]
            st = random_populated_state(rng, k, specs)
            st.users[st.cloud] *= rng.integers(1, 200, n)  # some large cloud instances
            want = st.copy()
            seed = int(rng.integers(2**32))
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            leavers = apply_departures(st, specs, got_rng)
            assert np.array_equal(leavers, apply_departures_reference(want, specs, want_rng))
            for name in ("users", "cpu", "mem"):
                got, ref = getattr(st, name), getattr(want, name)
                assert np.array_equal(got, ref) and np.array_equal(np.signbit(got),
                                                                   np.signbit(ref)), (rep, name)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_servers_keep_allocations_after_departures(self):
        spec = spec_with(2.0, 1.5, p_stay=0.3)
        st = AllocationState(2, 1)
        st.cpu[0, 0], st.mem[0, 0], st.users[0, 0] = 8, 9, 40
        rng = np.random.default_rng(17)
        apply_departures(st, [spec], rng)
        assert st.cpu[0, 0] == 8 and st.mem[0, 0] == 9
        assert 0 <= st.users[0, 0] <= 40
