"""Independent reference for the simulator's cost model and traffic trace.

Written from the model's definition, in scalar Python, without importing
vnf_lab.env. Per instance (server row k or the cloud row, VNF j) with u
users, allocation (c, m) and the previous epoch's (c', m'):

- latency: on a server u * (d_db [c' = 0 < c] + d_rc |c - c'| + d_rm |m - m'|);
  in the cloud u * 2 m unit_b / rate (round trip over the cloud link);
- financial: zero for an undeployed instance, else max(u, 1) times the
  rental c c_rp + m c_rm plus the server's share c_iv / N of running and
  c_i0 / N of switching on; in the cloud max(u, 1) (c_c0 [c' = 0] + m c_cv);
- SLA: u (gamma_sla [q < qos_min] - q), where q is the QoS of the
  instance, and offloaded users always see qos_max;
- weighted cost: w1 latency + w2 financial + w3 SLA.

Each per-user figure is the sum over instances divided by max(users, 1).
"""

from __future__ import annotations

COST_KEYS = ("network_cost", "latency_per_user", "financial_per_user", "sla_per_user")


def qos(spec: dict, u: int, c: float, m: float) -> float:
    """QoS of one instance: zero below the feasible band, qos_max above it,
    and a linear blend of qos_min..qos_max in the capped c + m inside."""
    c_low = spec["c0"] + (spec["cr"] - spec["dc"]) * u
    c_up = spec["c0"] + (spec["cr"] + spec["dc"]) * u
    m_low = spec["m0"] + (spec["mr"] - spec["dm"]) * u
    m_up = spec["m0"] + (spec["mr"] + spec["dm"]) * u
    if c > c_up and m > m_up:
        return float(spec["qos_max"])
    if c < c_low or m < m_low:
        return 0.0
    lo, hi = c_low + m_low, c_up + m_up
    if hi <= lo:
        return float(spec["qos_max"])
    t = (min(c, c_up) + min(m, m_up) - lo) / (hi - lo)
    return spec["qos_min"] + (spec["qos_max"] - spec["qos_min"]) * t


def epoch_figures(state: dict, rate: float, specs: list, costs: dict,
                  rho_max: float, eta_max: float) -> dict:
    """Per-user costs and utilisation of one allocation.

    state holds nested lists cpu, mem, users, cpu_prev, mem_prev (rows
    0..K-1 servers, row K the cloud) and server_active_prev (K flags).
    Each cost figure comes as (value, magnitude of its summed terms), the
    magnitude setting the scale of rounding error in a sum whose terms
    cancel; utilisation, cloud share and user count come as plain values."""
    cpu, mem, users = state["cpu"], state["mem"], state["users"]
    k_servers = len(cpu) - 1
    n = len(specs)
    total_users = sum(sum(row) for row in users)
    sums = {key: 0.0 for key in COST_KEYS}
    mags = {key: 0.0 for key in COST_KEYS}
    for k in range(k_servers + 1):
        cloud = k == k_servers
        for j, spec in enumerate(specs):
            u = users[k][j]
            c, m = cpu[k][j], mem[k][j]
            c_prev, m_prev = state["cpu_prev"][k][j], state["mem_prev"][k][j]
            if cloud:
                lat = u * 2.0 * m * costs["unit_b"] / rate
            else:
                deploy = costs["d_db"] if (c_prev == 0 and c > 0) else 0.0
                lat = u * (deploy + abs(c - c_prev) * costs["d_rc"]
                           + abs(m - m_prev) * costs["d_rm"])
            if c <= 0:
                fin = 0.0
            elif cloud:
                booking = costs["c_c0"] if c_prev == 0 else 0.0
                fin = max(u, 1) * (booking + m * costs["c_cv"])
            else:
                switch_on = 0.0 if state["server_active_prev"][k] else costs["c_i0"] / n
                fin = max(u, 1) * (c * costs["c_rp"] + m * costs["c_rm"]
                                   + costs["c_iv"] / n + switch_on)
            if u == 0:
                sla = 0.0
            else:
                q = spec["qos_max"] if cloud else qos(spec, u, c, m)
                miss = 1.0 if q < spec["qos_min"] else 0.0
                sla = u * (spec["gamma_sla"] * miss - q)
            terms = {"latency_per_user": lat, "financial_per_user": fin,
                     "sla_per_user": sla}
            weighted = (costs["w1"] * lat + costs["w2"] * fin + costs["w3"] * sla)
            for key, val in terms.items():
                sums[key] += val
                mags[key] += abs(val)
            sums["network_cost"] += weighted
            mags["network_cost"] += (abs(costs["w1"] * lat) + abs(costs["w2"] * fin)
                                     + abs(costs["w3"] * sla))
    per_user = max(total_users, 1)
    out = {key: (sums[key] / per_user, mags[key] / per_user) for key in COST_KEYS}
    out["cpu_util"] = sum(sum(row) for row in cpu[:k_servers]) / (k_servers * rho_max)
    out["mem_util"] = sum(sum(row) for row in mem[:k_servers]) / (k_servers * eta_max)
    out["cloud_fraction"] = sum(users[k_servers]) / per_user
    out["active_users"] = total_users
    return out


def request_counts(seed: int, stream: int, epochs: int, vnfs: list,
                   traffic: dict) -> list:
    """Requests served per epoch of the trace a run's seed and stream give:
    sum over VNFs of max(arrivals, 1), since an idle VNF gets one visit.

    The trace is the model's: per block of t_max epochs each VNF's rate is
    a Gaussian truncated at zero, arrivals per slot are Poisson, then the
    cloud-link rate is drawn and the serving order is permuted. The draws
    follow the program's seed lineage (SeedSequence([seed, stream]), first
    child stream for traffic), so the counts come from the seed alone."""
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]).spawn(2)[0])
    counts = []
    lambdas = None
    for epoch in range(epochs):
        if epoch % traffic["t_max"] == 0:
            lambdas = [max(float(rng.normal(v["mu_arr"], v["sigma_arr"])), 0.0)
                       for v in vnfs]
        arrivals = rng.poisson(np.asarray(lambdas) * traffic["slot_t"])
        rng.normal(traffic["mu_r"], traffic["sigma_r"])  # cloud-link rate
        rng.permutation(len(vnfs))                        # serving order
        counts.append(int(sum(max(int(a), 1) for a in arrivals)))
    return counts


def schedule(requests: list, agent: dict) -> list:
    """(trained, eps, clip_c) after each training epoch.

    Every served request is stored; train_step updates once per epoch once
    the buffer holds warmup_size transitions, and both schedules fall by
    eps_decay per update to their floors."""
    out = []
    stored = updates = 0
    for count in requests:
        stored = min(stored + count, agent["buffer_capacity"])
        trained = stored >= agent["warmup_size"]
        if trained:
            updates += agent["updates_per_epoch"]
        eps = max(agent["eps"] - updates * agent["eps_decay"], agent["eps_min"])
        clip_c = max(agent["clip_c"] - updates * agent["eps_decay"], agent["clip_c_min"])
        out.append((trained, eps, clip_c))
    return out
