"""Benchmark harness: JSON experiment configs with strict validation,
seeded runs writing per-epoch metric CSVs, KPI aggregation, and multi-agent
comparisons on a shared traffic trace.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import operator
import os
from dataclasses import dataclass, asdict

import numpy as np

from .env import (VnfSpec, CostParams, PoolConfig, TrafficConfig, VnfEnv,
                  EpochMetrics)
from .pat import LearnerBase, PatAgent, PatConfig
from .baselines import GreedyAgent, CloudAgent, RandomAgent, DdqnPairAgent, DdpgPairAgent

SEED_ENV_VAR = "VNF_LAB_SEED"

# the one metric schema: metrics.csv has a column per EpochMetrics field, in order
METRIC_FIELDS = dataclasses.fields(EpochMetrics)
CSV_HEADER = ",".join(f.name for f in METRIC_FIELDS)
# the KPIs are epoch means of every metric but the counter and the schedules
KPI_KEYS = tuple(f.name for f in METRIC_FIELDS if f.name not in ("epoch", "eps", "clip_c"))

# stable stream tags so every agent kind draws from its own seed lineage
AGENT_KINDS = {"pat": 1, "greedy": 2, "cloud": 3, "random": 4, "ddqn": 5, "ddpg": 6}
# the learners by kind; each one's config class (_CONFIG) has its agent block's keys as fields
LEARNERS = {cls._KIND: cls for cls in (PatAgent, DdqnPairAgent, DdpgPairAgent)}
# the agent-block keys that price requests; every kind's block takes them
PRICING = ("beta", "gamma_max")

# default catalogue: ten service profiles
# (c0, cr, dc, m0, mr, dm, qos_min, qos_max, gamma_sla, mu_arr, sigma_arr)
DEFAULT_VNF_ROWS = [
    (3, 5, 4, 6, 5, 3, 35, 70, 2, 2.0, 1.5),
    (2, 3, 2, 4, 4, 2, 36, 80, 2, 2.5, 0.2),
    (1, 4, 2, 2, 3, 2, 27, 63, 2, 4.0, 0.5),
    (1, 4, 3, 1, 3, 1, 40, 90, 2, 1.0, 1.0),
    (2, 6, 2, 3, 4, 3, 20, 100, 2, 2.5, 1.0),
    (1, 2, 1, 0, 3, 2, 5, 30, 2, 2.0, 1.5),
    (2, 3, 2, 2, 5, 3, 56, 80, 2, 5.0, 1.0),
    (3, 4, 2, 3, 6, 5, 20, 53, 2, 2.0, 1.0),
    (1, 4, 3, 4, 4, 2, 40, 90, 2, 3.0, 0.5),
    (2, 6, 2, 3, 4, 3, 20, 100, 2, 2.0, 1.0),
]


class ConfigError(ValueError):
    """Invalid experiment document; the message names the offending path."""


@dataclass(frozen=True)
class RunConfig:
    seed: int | None = None
    total_epochs: int = 1000
    eval_epochs: int = 100
    metrics_every: int = 1
    checkpoint_path: str | None = None
    smoothing_window: int = 100

    def __post_init__(self):
        if self.seed is not None and self.seed < 0:
            raise ValueError("run.seed must be >= 0 or null")
        if self.total_epochs < 1 or self.eval_epochs < 0:
            raise ValueError("run.total_epochs must be >= 1 and run.eval_epochs >= 0")
        if self.metrics_every < 1 or self.smoothing_window < 1:
            raise ValueError("run.metrics_every and run.smoothing_window must be >= 1")


@dataclass
class ExperimentConfig:
    pool: PoolConfig
    vnfs: list
    costs: CostParams
    traffic: TrafficConfig
    agent: dict
    run: RunConfig


def default_vnfs(count: int | None = None) -> list:
    rows = DEFAULT_VNF_ROWS if count is None else DEFAULT_VNF_ROWS[:count]
    return [VnfSpec(i, *row) for i, row in enumerate(rows)]


def default_agent_config(kind: str) -> dict:
    if not isinstance(kind, str) or kind not in AGENT_KINDS:
        raise ConfigError(f"agent.kind: unknown agent {kind!r}")
    if kind in LEARNERS:
        return {"kind": kind, **asdict(LEARNERS[kind]._CONFIG())}
    return {"kind": kind}


def defaults() -> ExperimentConfig:
    """The shipped experiment: the empty document's full pool, catalogue and learner tables."""
    return config_from_dict({})


# ---------------------------------------------------------------------------
# document <-> config: a config's document is dataclasses.asdict(cfg)

# the JSON values a field of each annotated type takes: 5.0 would reach range(), true pass for 1
_JSON_TYPES = {"int": ((int,), "integers"), "int | None": ((int, type(None)), "integers or null"),
               "float": ((int, float), "numbers"),
               "str | None": ((str, type(None)), "strings or null")}


def finite_number(value) -> bool:
    """Whether value is a JSON number that float() takes to a finite float: json
    reads NaN and Infinity, and integers of any size."""
    try:
        return type(value) in (int, float) and math.isfinite(float(value))
    except OverflowError:
        return False


def _build_section(cls, data: dict, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected an object")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown key")
        types, what = _JSON_TYPES[fields[key]]
        if type(value) not in types:
            raise ConfigError(f"{path}: {key} takes {what}, not {value!r}")
        if fields[key] == "float" and not finite_number(value):
            raise ConfigError(f"{path}: {key} takes finite numbers, not {value!r}")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _agent_block(doc) -> dict:
    """doc over its kind's defaults; each key is its kind's or a PRICING key, and range-checked."""
    if not isinstance(doc, dict):
        raise ConfigError("agent: expected an object")
    kind = doc.get("kind", "pat")
    base = default_agent_config(kind)
    for key in doc:
        if key not in base and key not in PRICING:
            raise ConfigError(f"agent.{key}: unknown key for agent {kind!r}")
    agent = {**base, **doc}
    config = LEARNERS[kind]._CONFIG if kind in LEARNERS else PatConfig
    _build_section(config, {k: v for k, v in agent.items() if k != "kind"}, "agent")
    return agent


def with_agent(cfg: ExperimentConfig, kind: str) -> ExperimentConfig:
    """cfg running agent kind: with its own agent block when that block is of
    this kind, else with the kind's defaults and the block's PRICING keys; checked either way."""
    doc = cfg.agent if cfg.agent.get("kind") == kind else \
        {"kind": kind, **{key: cfg.agent[key] for key in PRICING if key in cfg.agent}}
    return dataclasses.replace(cfg, agent=_agent_block(doc))


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("top level: expected an object")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{key}: unknown key")
    pool = _build_section(PoolConfig, doc.get("pool", {}), "pool")
    raw_vnfs = doc.get("vnfs")
    if raw_vnfs is None:
        vnfs = default_vnfs(pool.n_vnfs)
        if len(vnfs) != pool.n_vnfs:
            raise ConfigError("pool.n_vnfs: no default rows beyond the shipped catalogue")
    else:
        if not isinstance(raw_vnfs, list) or not raw_vnfs:
            raise ConfigError("vnfs: expected a non-empty array")
        vnfs = [_build_section(VnfSpec, v, f"vnfs[{i}]") for i, v in enumerate(raw_vnfs)]
    if len(vnfs) != pool.n_vnfs:
        raise ConfigError("vnfs: length must equal pool.n_vnfs")
    if [v.id for v in vnfs] != list(range(pool.n_vnfs)):
        raise ConfigError("vnfs: ids must be 0..n_vnfs-1 in order")
    costs = _build_section(CostParams, doc.get("costs", {}), "costs")
    traffic = _build_section(TrafficConfig, doc.get("traffic", {}), "traffic")
    agent = _agent_block(doc.get("agent", {"kind": "pat"}))
    run = _build_section(RunConfig, doc.get("run", {}), "run")
    return ExperimentConfig(pool, vnfs, costs, traffic, agent, run)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    return config_from_dict(doc)


def export_defaults() -> str:
    return json.dumps(asdict(defaults()), indent=2) + "\n"


def check_seed(seed, source: str) -> int:
    """seed as an int >= 0, from an integer or, as the environment gives it, the
    text of one; anything else is refused naming where it came from."""
    try:
        if isinstance(seed, bool):  # an int to Python, but no seed
            raise TypeError
        value = int(seed) if isinstance(seed, str) else operator.index(seed)
    except (TypeError, ValueError):
        raise ConfigError(f"{source}: a seed must be an integer, not {seed!r}") from None
    if value < 0:
        raise ConfigError(f"{source}: a seed must be >= 0, not {value}")
    return value


def resolve_seed(cfg: ExperimentConfig, cli_seed: int | None = None) -> int:
    """Priority: explicit argument, config value, environment fallback, zero;
    the seed found is checked by check_seed."""
    if cli_seed is not None:
        return check_seed(cli_seed, "--seed")
    if cfg.run.seed is not None:
        return check_seed(cfg.run.seed, "run.seed")
    env = os.environ.get(SEED_ENV_VAR)
    return 0 if env is None else check_seed(env, SEED_ENV_VAR)


# ---------------------------------------------------------------------------
# wiring

def build_env(cfg: ExperimentConfig, seed: int, stream: int = 0) -> VnfEnv:
    """stream 0 is the training trace, stream 1 the shared evaluation trace."""
    pricing = {key: cfg.agent[key] for key in PRICING if key in cfg.agent}
    return VnfEnv(cfg.pool, cfg.vnfs, cfg.costs, cfg.traffic,
                  seed=np.random.SeedSequence([seed, stream]), **pricing)


def build_agent(cfg: ExperimentConfig, env: VnfEnv | None, seed: int):
    """cfg's agent; env is read only for a learner's dimensions, so a baseline takes None."""
    agent = cfg.agent
    kind = agent["kind"]
    agent_seed = np.random.SeedSequence([seed, 2, AGENT_KINDS[kind]])
    if kind == "greedy":
        return GreedyAgent(cfg.pool, cfg.vnfs)
    if kind == "cloud":
        return CloudAgent(cfg.pool)
    if kind == "random":
        return RandomAgent(cfg.pool, seed=agent_seed)
    rl = LEARNERS[kind]._CONFIG(**{k: v for k, v in agent.items() if k != "kind"})
    return LEARNERS[kind](env.feature_length, env.n_targets,
                          (cfg.pool.rho_max, cfg.pool.eta_max), rl, seed=agent_seed)


# ---------------------------------------------------------------------------
# runs

def format_float(x: float) -> str:
    return f"{x:.9g}"


def metrics_row(m: EpochMetrics) -> str:
    """One metrics.csv line: int fields as they are, float fields through format_float."""
    return ",".join(str(getattr(m, f.name)) if f.type in ("int", int)
                    else format_float(getattr(m, f.name)) for f in METRIC_FIELDS)


def metrics_file(out_dir, name: str):
    """out_dir/name, made and headed by CSV_HEADER; without out_dir, a context giving None."""
    if out_dir is None:
        return contextlib.nullcontext()
    os.makedirs(out_dir, exist_ok=True)
    fh = open(os.path.join(out_dir, name), "w")
    fh.write(CSV_HEADER + "\n")
    return fh


def _drive(env: VnfEnv, agent, epochs: int, sink=None, metrics_every: int = 1):
    """Run epochs and return their metrics; a learner not in eval mode stores and trains."""
    learning = isinstance(agent, LearnerBase) and not agent.eval_mode
    rows = []
    for _ in range(epochs):
        summary = env.advance_epoch(agent.select)
        if learning:
            for rec in summary.records:
                agent.store(rec.state, rec.action.target, (rec.action.d_cpu, rec.action.d_mem),
                            -rec.cost_psi, rec.next_state)
            for _ in range(agent.cfg.updates_per_epoch):
                agent.train_step()
            summary.metrics.eps = agent.eps
            summary.metrics.clip_c = agent.clip_c
        rows.append(summary.metrics)
        if sink is not None and summary.metrics.epoch % metrics_every == 0:
            sink.write(metrics_row(summary.metrics) + "\n")
            sink.flush()
    return rows


def compute_kpis(rows) -> dict:
    """Epoch means of the headline metrics."""
    if not rows:
        return {}
    return {k: float(np.mean([getattr(m, k) for m in rows])) for k in KPI_KEYS}


def aggregate_kpis(per_seed: list) -> dict:
    """Across-seed mean and standard deviation per KPI."""
    out = {}
    for key in per_seed[0]:
        vals = np.array([d[key] for d in per_seed])
        out[key] = (float(vals.mean()), float(vals.std()))
    return out


def run_agent(cfg: ExperimentConfig, seed: int, train_epochs: int, eval_epochs: int, sink=None):
    """Train and compare's one job: cfg's agent runs train_epochs on seed's training trace, rows
    to sink every run.metrics_every epochs, then eval_epochs on the shared evaluation trace (a
    baseline is rebuilt first, so evaluated as built). A learner is closed at the end, which
    stops its update's helper process. Returns (agent, train_rows, eval_rows)."""
    env = build_env(cfg, seed, stream=0)
    agent = build_agent(cfg, env, seed)
    try:
        train_rows = _drive(env, agent, train_epochs, sink, cfg.run.metrics_every)
        if not isinstance(agent, LearnerBase):
            agent = build_agent(cfg, env, seed)
        return agent, train_rows, evaluate_agent(cfg, agent, seed, eval_epochs)
    finally:
        if isinstance(agent, LearnerBase):
            agent.close()


@dataclass
class RunResult:
    seed: int
    train_rows: list
    eval_rows: list
    train_kpis: dict
    eval_kpis: dict
    metrics_path: str | None
    checkpoint_path: str | None


def run_experiment(cfg: ExperimentConfig, out_dir=None, seed=None,
                   quiet: bool = True) -> RunResult:
    """Train (when the agent learns) and evaluate one agent on seeded traces.

    Writes metrics.csv, summary.json and checkpoint.npz under out_dir when
    given; rows are flushed as they are produced."""
    seed = resolve_seed(cfg, seed)
    kind = cfg.agent["kind"]
    with metrics_file(out_dir, "metrics.csv") as sink:
        metrics_path = None if sink is None else sink.name
        agent, train_rows, eval_rows = run_agent(cfg, seed, cfg.run.total_epochs,
                                                 cfg.run.eval_epochs, sink)
    if not quiet:
        print(f"[{kind}] seed {seed}: trained {cfg.run.total_epochs} epochs")

    result = RunResult(seed, train_rows, eval_rows,
                       compute_kpis(train_rows), compute_kpis(eval_rows),
                       metrics_path, None)
    if out_dir is not None:
        if isinstance(agent, LearnerBase):
            result.checkpoint_path = agent.save(
                cfg.run.checkpoint_path or os.path.join(out_dir, "checkpoint.npz"))
        summary = {
            "agent": kind,
            "seed": seed,
            "total_epochs": cfg.run.total_epochs,
            "eval_epochs": cfg.run.eval_epochs,
            "smoothing_window": cfg.run.smoothing_window,
            "train_kpis": result.train_kpis,
            "eval_kpis": result.eval_kpis,
            "config": asdict(cfg),
        }
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2)
            fh.write("\n")
    return result


def evaluate_agent(cfg: ExperimentConfig, agent, seed: int, epochs: int, sink=None):
    """Exploration-free rollout on the shared evaluation trace; every epoch's
    metrics row goes to sink when given. A learner must fit the config's pool."""
    env = build_env(cfg, seed, stream=1)
    learner = isinstance(agent, LearnerBase)
    if learner:
        got, want = (agent.state_dim, agent.n_targets), (env.feature_length, env.n_targets)
        if got != want:
            raise ConfigError(f"eval: the {agent._KIND} learner has (state_dim, n_targets) "
                              f"{got}, but the config's pool gives {want}")
        agent.set_eval(True)
    try:
        return _drive(env, agent, epochs, sink)
    finally:
        if learner:
            agent.set_eval(False)


@dataclass
class ComparisonResult:
    kpis: dict        # agent -> {kpi: (mean, std)}
    per_seed: dict    # agent -> [per-seed kpi dicts]
    long_rows: list   # (agent, seed, epoch, metric, value)


def compare(cfg: ExperimentConfig, agent_names, seeds=None, out_dir=None,
            quiet: bool = True) -> ComparisonResult:
    """Train each learner, then evaluate every agent on the identical traffic
    trace per seed, and tabulate KPI means across seeds."""
    names = list(agent_names)
    if not names:
        raise ConfigError("compare: need at least one agent")
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ConfigError(f"compare: agent {', '.join(map(repr, repeated))} named twice")
    seeds = [resolve_seed(cfg)] if seeds is None else \
        [check_seed(s, f"compare: seeds[{i}]") for i, s in enumerate(seeds)]
    if not seeds:
        raise ConfigError("compare: need at least one seed")
    # every agent's config is built and checked before any job runs
    acfgs = {name: with_agent(cfg, name) for name in names}
    per_seed = {name: [] for name in names}
    long_rows = []
    long_keys = tuple(k for k in KPI_KEYS if k != "active_users")
    for seed in seeds:
        for name in names:
            acfg = acfgs[name]
            # a baseline learns nothing from the training trace, so it skips it
            _, _, rows = run_agent(acfg, seed, acfg.run.total_epochs if name in LEARNERS else 0,
                                   max(acfg.run.eval_epochs, 1))
            per_seed[name].append(compute_kpis(rows))
            for m in rows:
                for key in long_keys:
                    long_rows.append((name, seed, m.epoch, key, getattr(m, key)))
            if not quiet:
                print(f"[compare] seed {seed} agent {name}: done")
    kpis = {name: aggregate_kpis(per_seed[name]) for name in names}
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "compare_kpis.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["agent", "kpi", "mean", "std"])
            for name in names:
                for key, (mean, std) in kpis[name].items():
                    w.writerow([name, key, format_float(mean), format_float(std)])
        with open(os.path.join(out_dir, "compare_long.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["agent", "seed", "epoch", "metric", "value"])
            for row in long_rows:
                w.writerow([row[0], row[1], row[2], row[3], format_float(row[4])])
    return ComparisonResult(kpis, per_seed, long_rows)
