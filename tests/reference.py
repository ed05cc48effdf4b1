"""Independent references for the cost-model tests, and the random inputs
they are checked on.

The figures come from perfbench/oracle.py: the benchmark's scalar cost
oracle, written from the model's definition without importing
vnf_lab.env. Its tolerance rule comes from perfbench/checks.py. Both files
are loaded read-only, under private names, so the tests check the program
against the same reference the benchmark gates every round with.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from vnf_lab.env import AllocationState, VnfSpec, resource_range

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}",
                                                  _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load("oracle")
check_oracle = _load("checks").check_oracle


def qos_reference(spec: VnfSpec, u, c, m) -> float:
    """The oracle's QoS: a plain lerp from qos_min to qos_max across the band."""
    return oracle.qos(dataclasses.asdict(spec), u, c, m)


def oracle_figures(state: AllocationState, specs, costs, rate: float,
                   rho_max: float = 50.0, eta_max: float = 50.0) -> dict:
    """oracle.epoch_figures of one allocation: each cost figure as (value,
    magnitude of its summed terms), utilisation and counts as values."""
    snap = {"cpu": state.cpu.tolist(), "mem": state.mem.tolist(),
            "users": state.users.tolist(), "cpu_prev": state.cpu_prev.tolist(),
            "mem_prev": state.mem_prev.tolist(),
            "server_active_prev": state.server_active_prev.tolist()}
    return oracle.epoch_figures(snap, rate, [dataclasses.asdict(s) for s in specs],
                                dataclasses.asdict(costs), rho_max, eta_max)


def check_kernel(mats, state: AllocationState, specs, costs, rate: float,
                 where: str = "") -> list:
    """Failures of cost_components' (latency, financial, sla, numerator)
    matrices against the oracle's per-user cost figures of state, to the
    benchmark's tolerance; an empty list when they agree."""
    lat, fin, sla, num = mats
    per_user = max(int(state.users.sum()), 1)
    got = {"network_cost": float(num.sum() / per_user),
           "latency_per_user": float(lat.sum() / per_user),
           "financial_per_user": float(fin.sum() / per_user),
           "sla_per_user": float(sla.sum() / per_user)}
    want = oracle_figures(state, specs, costs, rate)
    return check_oracle(got, {key: want[key] for key in got}, where)


def random_spec(rng, idx=0) -> VnfSpec:
    c0 = rng.uniform(0, 5)
    dc = rng.uniform(0, 4)
    cr = dc + rng.uniform(0.5, 5)
    m0 = rng.uniform(0, 5)
    dm = rng.uniform(0, 4)
    mr = dm + rng.uniform(0.5, 5)
    qmin = rng.uniform(0, 60)
    qmax = qmin + rng.uniform(0, 60)
    return VnfSpec(idx, c0, cr, dc, m0, mr, dm, qmin, qmax,
                   rng.uniform(0, 5), rng.uniform(0, 5), rng.uniform(0, 2))


def random_populated_state(rng, k_servers, specs) -> AllocationState:
    """Random consistent allocation: users only on deployed instances, some
    deployed instances idle, some sitting exactly on a QoS band edge, cloud
    rows booked at the per-user upper bounds. Each cell's previous
    allocation is, at random, the same, another one or none, so resizes,
    boots and fresh offloads all occur."""
    n = len(specs)
    st = AllocationState(k_servers, n)
    for k in range(k_servers):
        for j in range(n):
            if rng.random() < 0.4:
                st.cpu[k, j] = rng.uniform(0.5, 12)
                st.mem[k, j] = rng.uniform(0.5, 12)
                if rng.random() < 0.8:
                    st.users[k, j] = rng.integers(1, 8)
                    if rng.random() < 0.3:
                        c_low, c_up, m_low, m_up = resource_range(specs[j], st.users[k, j])
                        lower = rng.random() < 0.5
                        st.cpu[k, j], st.mem[k, j] = (c_low, m_low) if lower else (c_up, m_up)
    cl = st.cloud
    for j in range(n):
        if rng.random() < 0.5:
            u = int(rng.integers(1, 8))
            st.users[cl, j] = u
            _, c_up, _, m_up = resource_range(specs[j], u)
            st.cpu[cl, j] = c_up
            st.mem[cl, j] = m_up
    pick = rng.integers(3, size=st.cpu.shape)
    for now, prev in ((st.cpu, "cpu_prev"), (st.mem, "mem_prev")):
        other = rng.uniform(0, 12, st.cpu.shape)
        setattr(st, prev, np.select([pick == 0, pick == 1], [now, other], 0.0))
    st.server_active_prev = rng.random(k_servers) < 0.5
    return st
