"""Discrete-epoch simulator of elastic VNF instances on an edge server pool plus cloud.

Server rows are indexed 0..k_servers-1, the cloud occupies row k_servers.
Users arrive per VNF as a Poisson stream whose rate is redrawn in blocks,
stay geometrically, and are placed one request at a time by an agent callback.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, fields

import numpy as np

# scale applied to raw user/arrival counts in the feature encoding
USER_SCALE = 10.0


@dataclass(frozen=True)
class VnfSpec:
    """Per-VNF resource elasticity, QoS band and arrival statistics."""

    id: int
    c0: float
    cr: float
    dc: float
    m0: float
    mr: float
    dm: float
    qos_min: float
    qos_max: float
    gamma_sla: float
    mu_arr: float
    sigma_arr: float
    p_stay: float = 0.5

    def __post_init__(self):
        if self.c0 < 0 or self.m0 < 0:
            raise ValueError(f"vnf {self.id}: base demands must be >= 0")
        if not self.cr > self.dc >= 0:
            raise ValueError(f"vnf {self.id}: requires cr > dc >= 0")
        if not self.mr > self.dm >= 0:
            raise ValueError(f"vnf {self.id}: requires mr > dm >= 0")
        if not 0 <= self.qos_min <= self.qos_max:
            raise ValueError(f"vnf {self.id}: requires 0 <= qos_min <= qos_max")
        if self.sigma_arr < 0:
            raise ValueError(f"vnf {self.id}: sigma_arr must be >= 0")
        if not 0.0 <= self.p_stay <= 1.0:
            raise ValueError(f"vnf {self.id}: p_stay must lie in [0, 1]")


@dataclass(frozen=True)
class CostParams:
    """Latency and pricing coefficients plus mixing weights."""

    d_rc: float = 3.0
    d_rm: float = 4.0
    d_db: float = 20.0
    c_rp: float = 6.0
    c_rm: float = 3.0
    c_i0: float = 2.0
    c_iv: float = 1.0
    c_c0: float = 1.0
    c_cv: float = 3.0
    w1: float = 1.0
    w2: float = 1.0
    w3: float = 2.0
    unit_b: float = 1.0

    def __post_init__(self):
        for name in ("d_rc", "d_rm", "d_db", "c_rp", "c_rm",
                     "c_i0", "c_iv", "c_c0", "c_cv", "unit_b"):
            if getattr(self, name) < 0:
                raise ValueError(f"costs.{name} must be >= 0")
        for name in ("w1", "w2", "w3"):
            if getattr(self, name) <= 0:
                raise ValueError(f"costs.{name} must be > 0")


@dataclass(frozen=True)
class PoolConfig:
    """Server pool shape: homogeneous capacities, VNF catalogue size."""

    k_servers: int = 10
    rho_max: float = 50.0
    eta_max: float = 50.0
    n_vnfs: int = 10

    def __post_init__(self):
        if self.k_servers < 1 or self.n_vnfs < 1:
            raise ValueError("pool.k_servers and pool.n_vnfs must be >= 1")
        if self.rho_max <= 0 or self.eta_max <= 0:
            raise ValueError("pool capacities must be > 0")


@dataclass(frozen=True)
class TrafficConfig:
    """Arrival-block and cloud-link dynamics."""

    t_max: int = 100
    mu_r: float = 10.0
    sigma_r: float = 2.0
    r_min: float = 1.0
    slot_t: float = 1.0

    def __post_init__(self):
        if self.t_max < 1:
            raise ValueError("traffic.t_max must be >= 1")
        if self.sigma_r < 0:
            raise ValueError("traffic.sigma_r must be >= 0")
        if self.r_min <= 0:
            raise ValueError("traffic.r_min must be > 0")
        if self.slot_t <= 0:
            raise ValueError("traffic.slot_t must be > 0")


@dataclass(frozen=True)
class ParamAction:
    """Placement target (0..K-1 server, K cloud) with CPU/memory deltas."""

    target: int
    d_cpu: float = 0.0
    d_mem: float = 0.0


@dataclass
class StepOutcome:
    cost_psi: float
    infeasible: bool
    row: int  # of the one cell (row, vnf) the request changed: the target, or the cloud


@dataclass
class EpochTraffic:
    """Traffic realization for one epoch."""

    arrivals: np.ndarray  # int64, shape (N,)
    cloud_rate: float


@dataclass
class StepRecord:
    """One served request: encoded snapshots around a single action."""

    state: np.ndarray
    action: ParamAction
    cost_psi: float
    next_state: np.ndarray
    infeasible: bool
    had_user: bool


@dataclass
class EpochMetrics:
    epoch: int
    network_cost: float
    latency_per_user: float
    financial_per_user: float
    sla_per_user: float
    cpu_util: float
    mem_util: float
    cloud_fraction: float
    active_users: int
    mean_reward: float
    eps: float = 0.0
    clip_c: float = 0.0


@dataclass
class EpochSummary:
    metrics: EpochMetrics
    records: list
    snapshot: object = None


class AllocationState:
    """Mutable allocation matrices plus the previous-epoch snapshot."""

    def __init__(self, k_servers: int, n_vnfs: int):
        rows = k_servers + 1
        self.k_servers = k_servers
        self.n_vnfs = n_vnfs
        self.cpu = np.zeros((rows, n_vnfs))
        self.mem = np.zeros((rows, n_vnfs))
        self.users = np.zeros((rows, n_vnfs), dtype=np.int64)
        self.cpu_prev = np.zeros((rows, n_vnfs))
        self.mem_prev = np.zeros((rows, n_vnfs))
        self.server_active_prev = np.zeros(k_servers, dtype=bool)

    @property
    def cloud(self) -> int:
        return self.k_servers

    def snapshot_prev(self):
        """Freeze the current allocation as the next epoch's reference point."""
        self.cpu_prev = self.cpu.copy()
        self.mem_prev = self.mem.copy()
        self.server_active_prev = self.cpu[: self.k_servers].sum(axis=1) > 0

    def copy(self) -> "AllocationState":
        return copy.deepcopy(self)


# ---------------------------------------------------------------------------
# resource ranges, QoS and the cost model

def resource_range(spec, u):
    """Feasible (c_low, c_up, m_low, m_up) band for u users on one instance."""
    c_low = spec.c0 + (spec.cr - spec.dc) * u
    c_up = spec.c0 + (spec.cr + spec.dc) * u
    m_low = spec.m0 + (spec.mr - spec.dm) * u
    m_up = spec.m0 + (spec.mr + spec.dm) * u
    return c_low, c_up, m_low, m_up


def qos(spec, u, c, m) -> float:
    """Piecewise QoS of one instance: 0 under the band, qos_max above it on
    both axes, and linear in the capped c + m inside, from qos_min at the
    lower edge to qos_max at the upper one."""
    c_low, c_up, m_low, m_up = resource_range(spec, u)
    if c < c_low or m < m_low:
        return 0.0
    r_up = c_up + m_up
    r_low = c_low + m_low
    den = r_up - r_low
    # a degenerate band (dc = dm = 0) meets the top whenever it is feasible
    if (c > c_up and m > m_up) or not den > 0:
        return float(spec.qos_max)
    lin = ((spec.qos_max - spec.qos_min) / den) * (min(c, c_up) + min(m, m_up)) \
        + (spec.qos_min * r_up - spec.qos_max * r_low) / den
    # slope * x + offset can round just past qos_min or qos_max at the edges
    return float(min(max(lin, spec.qos_min), spec.qos_max))


def cell_costs(state: AllocationState, spec: VnfSpec, costs: CostParams, rate: float,
               t: int, j: int):
    """(latency, financial, sla, weighted numerator) of the instance of VNF j
    on row t, in plain float arithmetic. It reads no other cell: only a
    deployed instance pays, and a server holding one is on, which is all its
    share of the server's power-on and running cost depends on."""
    u = float(state.users[t, j])
    c = float(state.cpu[t, j])
    m = float(state.mem[t, j])
    c_prev = float(state.cpu_prev[t, j])
    deployed = c > 0
    fresh = c_prev == 0 and deployed
    u_eff = max(u, 1.0) if deployed else 0.0
    if t == state.k_servers:
        lat = u * (2.0 * m * costs.unit_b / rate)
        fin = u_eff * (fresh * costs.c_c0 + m * costs.c_cv)
        sla = -spec.qos_max * u  # offloaded users always see the QoS ceiling
    else:
        delta = abs(c - c_prev) * costs.d_rc + abs(m - float(state.mem_prev[t, j])) * costs.d_rm
        lat = u * (fresh * costs.d_db + delta)
        newly = deployed and not state.server_active_prev[t]
        share = newly * (costs.c_i0 / state.n_vnfs) + deployed * (costs.c_iv / state.n_vnfs)
        fin = u_eff * (c * costs.c_rp + m * costs.c_rm + share)
        q = qos(spec, u, c, m)
        sla = (spec.gamma_sla * (q < spec.qos_min) - q) * u
    return lat, fin, sla, costs.w1 * lat + costs.w3 * sla + costs.w2 * fin


def cost_components(state: AllocationState, specs, costs: CostParams, rate: float):
    """(latency, financial, sla, weighted numerator) matrices over all rows,
    filled cell by cell from cell_costs. A server cell whose users, CPU,
    memory and previous allocation are all zero costs what an empty server
    cell of its VNF costs, so that value is computed once per VNF."""
    k, n = state.k_servers, state.n_vnfs
    live = np.logical_or.reduce([state.users, state.cpu, state.mem,
                                 state.cpu_prev, state.mem_prev]).tolist()
    empty, idle, cells = None, {}, []
    for t in range(k + 1):
        for j, spec in enumerate(specs):
            if t == k or live[t][j]:
                cells.append(cell_costs(state, spec, costs, rate, t, j))
                continue
            if j not in idle:
                empty = empty or AllocationState(1, n)  # row 0: an empty server cell
                idle[j] = cell_costs(empty, spec, costs, rate, 0, j)
            cells.append(idle[j])
    # C order: the env sums these matrices, and a sum rounds in memory order
    return tuple(np.ascontiguousarray(np.array(cells).T).reshape(4, k + 1, n))


def agent_cost(inst_cost: float, net_cost: float, beta: float, gamma_max: float) -> float:
    """Training cost: blended instance + network cost squashed into [-1, 1]."""
    return min(max((inst_cost + beta * net_cost) / gamma_max, -1.0), 1.0)


# ---------------------------------------------------------------------------
# traffic sampling

def sample_rate_block(spec: VnfSpec, rng: np.random.Generator) -> float:
    """Arrival rate for the next block: Gaussian truncated at zero."""
    return max(float(rng.normal(spec.mu_arr, spec.sigma_arr)), 0.0)


def sample_arrivals(lambdas: np.ndarray, slot_t: float, rng: np.random.Generator) -> np.ndarray:
    """Poisson request counts for one slot, one draw per VNF."""
    return rng.poisson(np.asarray(lambdas, dtype=np.float64) * slot_t)


def sample_cloud_rate(traffic: TrafficConfig, rng: np.random.Generator) -> float:
    """Cloud link rate for one slot: Gaussian floored at r_min."""
    return max(float(rng.normal(traffic.mu_r, traffic.sigma_r)), traffic.r_min)


def book_cloud(state: AllocationState, spec: VnfSpec, j: int):
    """Book VNF j's cloud instance at the per-user upper bounds of its users,
    or terminate it at zero when it has none."""
    u = int(state.users[state.cloud, j])
    _, c_up, _, m_up = resource_range(spec, u) if u else (0.0,) * 4
    state.cpu[state.cloud, j] = c_up
    state.mem[state.cloud, j] = m_up


def apply_departures(state: AllocationState, specs, rng: np.random.Generator) -> np.ndarray:
    """End-of-slot geometric service: each user leaves w.p. 1 - p_stay.

    Returns the per-(row, vnf) leaver counts. Cloud instances are rebooked
    for the users that remain (book_cloud)."""
    leavers = rng.binomial(state.users, [1.0 - s.p_stay for s in specs])
    state.users -= leavers
    for j, spec in enumerate(specs):
        book_cloud(state, spec, j)
    return leavers


# ---------------------------------------------------------------------------
# environment

class FeatureLayout:
    """Where each block of a request's feature vector sits, for k servers and
    n VNFs: arrivals (n), deployed flags (n), users of every row including
    the cloud ((k+1)n), server CPU (kn), server memory (kn), the cloud rate
    (1) and the request's one-hot VNF (n). Cell blocks are row-major."""

    def __init__(self, k_servers: int, n_vnfs: int):
        k, n = k_servers, n_vnfs
        self.arrivals = slice(0, n)
        self.deployed = slice(n, 2 * n)
        self.users = slice(2 * n, 2 * n + (k + 1) * n)
        self.cpu = slice(self.users.stop, self.users.stop + k * n)
        self.mem = slice(self.cpu.stop, self.cpu.stop + k * n)
        self.rate = self.mem.stop
        self.request = slice(self.rate + 1, self.rate + 1 + n)
        self.length = self.request.stop


class VnfEnv:
    """Slotted orchestration environment driven by an agent callback."""

    def __init__(self, pool: PoolConfig, specs, costs: CostParams,
                 traffic: TrafficConfig, seed=0, beta: float = 0.2,
                 gamma_max: float = 100.0):
        specs = list(specs)
        if len(specs) != pool.n_vnfs:
            raise ValueError("len(specs) must equal pool.n_vnfs")
        if [s.id for s in specs] != list(range(pool.n_vnfs)):
            raise ValueError("vnf ids must be 0..n_vnfs-1 in order")
        self.pool = pool
        self.costs = costs
        self.traffic_cfg = traffic
        # each spec's fields as Python floats, so int catalogue rows get float64 arithmetic
        self.specs = [VnfSpec(s.id, *(float(getattr(s, f.name)) for f in fields(VnfSpec)[1:]))
                      for s in specs]
        self.beta = beta
        self.gamma_max = gamma_max
        ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
        traffic_ss, depart_ss = ss.spawn(2)
        # separate streams so departure bookkeeping never shifts the traffic trace
        self.rng_traffic = np.random.default_rng(traffic_ss)
        self.rng_departures = np.random.default_rng(depart_ss)
        self.state = AllocationState(pool.k_servers, pool.n_vnfs)
        self.lambdas = np.zeros(pool.n_vnfs)
        self.cur: EpochTraffic | None = None
        self.epoch = 0
        self.layout = FeatureLayout(pool.k_servers, pool.n_vnfs)
        # cost matrices and user count of the state under traffic _kept_cur (see _kept)
        self._grid = None
        self._users = 0
        self._kept_cur = None
        self._rate_scale = max(traffic.mu_r + 3.0 * traffic.sigma_r, traffic.r_min)

    @property
    def n_targets(self) -> int:
        return self.pool.k_servers + 1

    @property
    def feature_length(self) -> int:
        return self.layout.length

    def encode_state(self, vnf: int) -> np.ndarray:
        """Normalized feature vector for one pending request."""
        cur = self.cur
        if cur is None:
            raise ValueError("no epoch traffic available; advance an epoch first")
        k, lay, st = self.pool.k_servers, self.layout, self.state
        out = np.empty(lay.length)
        out[lay.arrivals] = cur.arrivals / USER_SCALE
        out[lay.deployed] = (st.cpu > 0).any(axis=0)
        out[lay.users] = st.users.reshape(-1) / USER_SCALE
        out[lay.cpu] = st.cpu[:k].reshape(-1) / self.pool.rho_max
        out[lay.mem] = st.mem[:k].reshape(-1) / self.pool.eta_max
        out[lay.rate] = cur.cloud_rate / self._rate_scale
        out[lay.request] = 0.0
        out[lay.request.start + vnf] = 1.0
        return out

    def _patch_features(self, out: np.ndarray, t: int, j: int):
        """Bring out, the features of the state before a request that changed
        at most cell (t, j), up to date as encode_state computes them: the
        cell's users, its CPU and memory on a server, and VNF j's deployed
        flag. Only that cell of the flag's column moved, so the column needs
        a scan only when the cell holds no CPU and the flag was set."""
        lay, st = self.layout, self.state
        cell = t * self.pool.n_vnfs + j
        c = float(st.cpu[t, j])
        out[lay.users.start + cell] = int(st.users[t, j]) / USER_SCALE
        if t < st.k_servers:
            out[lay.cpu.start + cell] = c / self.pool.rho_max
            out[lay.mem.start + cell] = float(st.mem[t, j]) / self.pool.eta_max
        flag = lay.deployed.start + j
        if c > 0:
            out[flag] = 1.0
        elif out[flag]:
            out[flag] = (st.cpu[:, j] > 0).any()

    def _admit_cloud(self, j: int):
        self.state.users[self.state.cloud, j] += 1
        book_cloud(self.state, self.specs[j], j)

    def _kept(self):
        """The (latency, financial, sla, numerator) matrices and user count _users
        of the current state, built once per traffic snapshot; apply_action keeps both."""
        if self.cur is None:
            raise ValueError("no epoch traffic available; advance an epoch first")
        if self._kept_cur is not self.cur:
            self._grid = cost_components(self.state, self.specs, self.costs,
                                         self.cur.cloud_rate)
            self._users = int(self.state.users.sum())
            self._kept_cur = self.cur
        return self._grid

    def apply_action(self, vnf: int, action: ParamAction,
                     assign_user: bool = True) -> StepOutcome:
        """Apply and price one placement decision; infeasible requests fall
        through to the cloud at the worst training cost. The outcome names the
        row of the one cell (row, vnf) the request can have changed."""
        pool = self.pool
        if not 0 <= vnf < pool.n_vnfs:
            raise ValueError(f"unknown vnf index {vnf}")
        t = action.target
        if not 0 <= t <= pool.k_servers:
            raise ValueError(f"action target {t} outside 0..{pool.k_servers}")
        st = self.state
        # kept before this request changes the state; the refresh below follows it
        lat, fin, sla, num = self._kept()
        infeasible = False
        if t == st.cloud:
            # offload carries no parameters; an idle visit leaves the cloud alone
            if assign_user:
                self._admit_cloud(vnf)
        else:
            c, m = float(st.cpu[t, vnf]), float(st.mem[t, vnf])
            new_c, new_m = c + action.d_cpu, m + action.d_mem
            row_c = float(st.cpu[t].sum()) - c + new_c
            row_m = float(st.mem[t].sum()) - m + new_m
            new_u = int(st.users[t, vnf]) + (1 if assign_user else 0)
            ok = (new_c >= 0 and new_m >= 0
                  and row_c <= pool.rho_max and row_m <= pool.eta_max
                  and not (new_u > 0 and new_c == 0))
            if ok:
                st.cpu[t, vnf] = new_c
                st.mem[t, vnf] = new_m
                st.users[t, vnf] = new_u
            else:
                infeasible = True
                if assign_user:
                    self._admit_cloud(vnf)

        # the one cell this request can change; a cell's costs read no other cell
        where = st.cloud if infeasible and assign_user else t
        lat[where, vnf], fin[where, vnf], sla[where, vnf], num[where, vnf] = cell_costs(
            st, self.specs[vnf], self.costs, self.cur.cloud_rate, where, vnf)
        self._users += bool(assign_user)  # an assigned user lands on a server or the cloud
        ic = float(num[where, vnf] / max(int(st.users[where, vnf]), 1))
        nc = float(num.sum() / max(self._users, 1))
        psi = 1.0 if infeasible else agent_cost(ic, nc, self.beta, self.gamma_max)
        return StepOutcome(psi, infeasible, where)

    def advance_epoch(self, policy, keep_snapshot: bool = False) -> EpochSummary:
        """Run one slot: sample traffic, serve every request (idle VNFs get a
        single no-user visit), collect metrics, then apply departures.

        policy(features, vnf, state, has_user) -> ParamAction; it must not
        change state, whose features are carried from one request to the next.
        """
        if self.epoch % self.traffic_cfg.t_max == 0:
            self.lambdas = np.array(
                [sample_rate_block(s, self.rng_traffic) for s in self.specs])
        arrivals = sample_arrivals(self.lambdas, self.traffic_cfg.slot_t, self.rng_traffic)
        rate = sample_cloud_rate(self.traffic_cfg, self.rng_traffic)
        self.cur = EpochTraffic(arrivals=arrivals, cloud_rate=rate)
        order = self.rng_traffic.permutation(self.pool.n_vnfs)

        records = []
        req = self.layout.request
        after = self.encode_state(0)
        for j in order:
            j = int(j)
            has_user = bool(arrivals[j] > 0)
            for _ in range(max(int(arrivals[j]), 1)):
                # encode_state(j): the last next state with the one-hot request slot moved
                s = after.copy()
                s[req] = 0.0
                s[req.start + j] = 1.0
                action = policy(s, j, self.state, has_user)
                out = self.apply_action(j, action, has_user)
                after = s.copy()
                self._patch_features(after, out.row, j)
                records.append(StepRecord(s, action, out.cost_psi, after,
                                          out.infeasible, has_user))

        metrics = self._epoch_metrics(records)
        snapshot = (self.state.copy(), rate) if keep_snapshot else None
        apply_departures(self.state, self.specs, self.rng_departures)
        self.state.snapshot_prev()
        self._kept_cur = None  # departures and the new reference point change every cell
        self.epoch += 1
        return EpochSummary(metrics, records, snapshot)

    def _epoch_metrics(self, records) -> EpochMetrics:
        st = self.state
        k = self.pool.k_servers
        lat, fin, sla, num = self._kept()
        total_u = int(st.users.sum())
        du = max(total_u, 1)
        return EpochMetrics(
            epoch=self.epoch,
            network_cost=float(num.sum() / du),
            latency_per_user=float(lat.sum() / du),
            financial_per_user=float(fin.sum() / du),
            sla_per_user=float(sla.sum() / du),
            cpu_util=float(st.cpu[:k].sum() / (k * self.pool.rho_max)),
            mem_util=float(st.mem[:k].sum() / (k * self.pool.eta_max)),
            cloud_fraction=float(st.users[st.cloud].sum() / du),
            active_users=total_u,
            mean_reward=float(np.mean([-r.cost_psi for r in records])),
        )
