"""End-to-end acceptance checks: the cost kernel against the independent
oracle (tests/reference.py), gradient probes, learner mechanics, desk-scale
learning and benchmark ordering, reproducibility.

The desk-scale fixture (three servers, three services, 20k epochs, three
seeds) is trained once and shared by the learning and comparison checks.
"""

import dataclasses
import json
import os
import time

import numpy as np
import pytest

from reference import check_kernel, qos_reference, random_populated_state, random_spec
from vnf_lab import cli, harness, nn
from vnf_lab.baselines import CloudAgent, GreedyAgent
from vnf_lab.env import CostParams, VnfSpec, cost_components, qos, resource_range
from vnf_lab.pat import DTYPE, PatAgent, PatConfig

SPEC0 = VnfSpec(0, 3, 5, 4, 6, 5, 3, 35, 70, 2, 2.0, 1.5)

DESK_DOC = {"pool": {"k_servers": 3, "n_vnfs": 3},
            "run": {"total_epochs": 20_000, "eval_epochs": 100}}
SEEDS = (0, 1, 2)


# ---------------------------------------------------------------------------
# quality model against an independently coded reference

def test_quality_model_matches_independent_oracle():
    start = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    for rep in range(400):
        spec = random_spec(rng)
        for u in (1, int(rng.integers(2, 12)), int(rng.integers(12, 30))):
            lo_c, hi_c, lo_m, hi_m = resource_range(spec, u)
            cs = [lo_c - 1.0, lo_c, 0.5 * (lo_c + hi_c), hi_c, hi_c + 1e-9, hi_c + 3.0]
            ms = [lo_m - 1.0, lo_m, 0.5 * (lo_m + hi_m), hi_m, hi_m + 1e-9, hi_m + 3.0]
            for c in cs:
                for m in ms:
                    got = qos(spec, u, c, m)
                    want = qos_reference(spec, u, c, m)
                    assert abs(got - want) <= 1e-9, (spec, u, c, m, got, want)
                    checked += 1
    assert checked >= 10_000
    # catalogue-derived fixed points
    assert resource_range(SPEC0, 1) == (4.0, 12.0, 8.0, 14.0)
    assert qos(SPEC0, 1, 8.0, 11.0) == pytest.approx(52.5, abs=1e-9)
    assert qos(SPEC0, 1, 4.0, 8.0) == pytest.approx(35.0, abs=1e-9)
    assert qos(SPEC0, 1, 12.5, 14.5) == pytest.approx(70.0, abs=1e-9)
    assert time.time() - start < 10.0


# ---------------------------------------------------------------------------
# the network cost aggregates per-instance costs as the oracle adds them up

def test_network_cost_aggregates_instance_costs():
    rng = np.random.default_rng(777)
    costs = CostParams()
    for rep in range(1200):
        k, n = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        specs = [random_spec(rng, i) for i in range(n)]
        st = random_populated_state(rng, k, specs)
        rate = float(rng.uniform(1.0, 16.0))
        mats = cost_components(st, specs, costs, rate)
        assert check_kernel(mats, st, specs, costs, rate, f"rep {rep}") == []


# ---------------------------------------------------------------------------
# analytic gradients against central finite differences

def _randomize(net, rng, std=0.25):
    for w in net.weights:
        w[:] = rng.normal(0, std, w.shape)
    for b in net.biases:
        b[:] = rng.normal(0, std, b.shape)


def _probe_net(net, rng, n_param_probes, n_input_probes, h=1e-5):
    x = rng.normal(0, 1, (5, net.n_in))
    gout = rng.normal(0, 1, (5, net.n_out))
    _, cache = nn.forward_cached(net, x)
    dws, dbs = nn.layer_views(net.sizes, nn.backward(net, cache, gout))
    gin = nn.input_grad(net, cache, gout)

    def objective():
        return float(np.sum(nn.forward(net, x) * gout))

    done = 0
    for _ in range(n_param_probes):
        layer = int(rng.integers(len(net.weights)))
        if rng.random() < 0.75:
            arr = net.weights[layer]
            idx = (int(rng.integers(arr.shape[0])), int(rng.integers(arr.shape[1])))
            got = dws[layer][idx]
        else:
            arr = net.biases[layer]
            idx = int(rng.integers(arr.shape[0]))
            got = dbs[layer][idx]
        old = arr[idx]
        arr[idx] = old + h
        up = objective()
        arr[idx] = old - h
        dn = objective()
        arr[idx] = old
        want = (up - dn) / (2 * h)
        assert abs(got - want) / max(abs(got), abs(want), 1e-7) < 1e-4, (layer, idx)
        done += 1
    for _ in range(n_input_probes):
        r = int(rng.integers(x.shape[0]))
        c = int(rng.integers(x.shape[1]))
        old = x[r, c]
        x[r, c] = old + h
        up = objective()
        x[r, c] = old - h
        dn = objective()
        x[r, c] = old
        want = (up - dn) / (2 * h)
        assert abs(gin[r, c] - want) / max(abs(gin[r, c]), abs(want), 1e-7) < 1e-4
        done += 1
    return done


def test_gradients_match_finite_differences():
    start = time.time()
    rng = np.random.default_rng(31337)
    heads = [
        ((9, 24, 12, 4), None),            # multi-score head
        ((9 + 4, 24, 12, 2), (50.0, 50.0)),  # bounded parameter head
        ((9 + 4 + 2, 24, 12, 1), None),    # scalar value head
    ]
    probes = 0
    for sizes, scale in heads:
        for rep in range(4):
            net = nn.Mlp(sizes, head_scale=scale)
            _randomize(net, rng)
            probes += _probe_net(net, rng, 70, 20)
    assert probes >= 1000
    assert time.time() - start < 30.0


# ---------------------------------------------------------------------------
# learner update mechanics

def test_update_rules_match_hand_values():
    agent = PatAgent(6, 3, (50.0, 50.0),
                     PatConfig(batch_size=4, buffer_capacity=16, warmup_size=4),
                     seed=0)
    for net, value in ((agent.t_critic_1, 1.0), (agent.t_critic_2, 2.0)):
        for w in net.weights:
            w[:] = 0.0
        for b in net.biases:
            b[:] = 0.0
        net.biases[-1][0] = value
    rng = np.random.default_rng(1)
    # a batch as replay samples it, floats in the learners' dtype
    batch = (np.zeros((4, 6), DTYPE), np.zeros(4, dtype=np.int64), np.zeros((4, 2), DTYPE),
             np.full(4, 0.5, DTYPE), rng.normal(0, 1, (4, 6)).astype(DTYPE))
    y, info = agent.compute_targets(batch)
    assert (y == batch[3] + 0.99 * np.minimum(*info["q"])).all()
    # 0.5 + 0.99 * 1.0 in that dtype, in that order
    assert (y == DTYPE(0.5) + DTYPE(0.99) * DTYPE(1.0)).all() and y.dtype == DTYPE

    src = nn.Mlp((4, 8, 2))
    tgt = nn.Mlp((4, 8, 2))
    for net in (src, tgt):
        _randomize(net, np.random.default_rng(id(net) % 1000))
    old = [w.copy() for w in tgt.weights]
    nn.soft_update(tgt, src, 5e-3)
    for w_old, w_src, w_new in zip(old, src.weights, tgt.weights):
        assert np.allclose(w_new - w_old, 5e-3 * (w_src - w_old), rtol=1e-12, atol=1e-15)

    for updates in (0, 1, 100, 750, 751, 5000):
        agent.updates = updates
        assert agent.eps == max(0.8 - updates * 1e-3, 0.05)
        assert agent.clip_c == max(0.5 - updates * 1e-3, 0.1)


# ---------------------------------------------------------------------------
# desk-scale learning and comparisons (shared trained fixture)

@pytest.fixture(scope="session")
def trained_runs():
    cfg = harness.config_from_dict(DESK_DOC)
    runs = {}
    start = time.time()
    for seed in SEEDS:
        env = harness.build_env(cfg, seed, stream=0)
        agent = harness.build_agent(cfg, env, seed)
        rows = harness._drive(env, agent, cfg.run.total_epochs)
        runs[seed] = (agent, rows)
    return cfg, runs, time.time() - start


@pytest.mark.slow
def test_desk_scale_training_improves_reward(trained_runs):
    cfg, runs, elapsed = trained_runs
    for seed in SEEDS:
        rewards = [m.mean_reward for m in runs[seed][1]]
        first = float(np.mean(rewards[:2000]))
        last = float(np.mean(rewards[-2000:]))
        assert last > first, f"seed {seed}: mean reward {first:.4f} -> {last:.4f}"
    assert elapsed < 900.0, f"training took {elapsed:.0f}s"


def eval_counting_arrivals(cfg, agent, seed, epochs):
    env = harness.build_env(cfg, seed, stream=1)
    if hasattr(agent, "set_eval"):
        agent.set_eval(True)
    rows, arrivals = [], []
    for _ in range(epochs):
        summary = env.advance_epoch(agent.select)
        rows.append(summary.metrics)
        arrivals.append(sum(r.had_user for r in summary.records))
    if hasattr(agent, "set_eval"):
        agent.set_eval(False)
    return rows, arrivals


@pytest.mark.slow
def test_trained_agent_orders_against_baselines(trained_runs):
    cfg, runs, _ = trained_runs
    names = ("pat", "cloud", "random", "greedy")
    net_cost = {n: [] for n in names}
    cloud_frac = {n: [] for n in names}
    for seed in SEEDS:
        rcfg = dataclasses.replace(cfg, agent=harness.default_agent_config("random"))
        agents = {
            "pat": runs[seed][0],
            "cloud": CloudAgent(cfg.pool),
            "random": harness.build_agent(rcfg, harness.build_env(rcfg, seed, 1), seed),
            "greedy": GreedyAgent(cfg.pool, cfg.vnfs),
        }
        traces = {}
        for name in names:
            rows, arrivals = eval_counting_arrivals(cfg, agents[name], seed,
                                                    cfg.run.eval_epochs)
            kpis = harness.compute_kpis(rows)
            net_cost[name].append(kpis["network_cost"])
            cloud_frac[name].append(kpis["cloud_fraction"])
            traces[name] = arrivals
        for name in names[1:]:
            assert traces[name] == traces["pat"], f"trace diverged for {name}"
    mean_nc = {n: float(np.mean(v)) for n, v in net_cost.items()}
    mean_cf = {n: float(np.mean(v)) for n, v in cloud_frac.items()}
    assert mean_nc["pat"] <= mean_nc["cloud"], mean_nc
    assert mean_nc["pat"] <= mean_nc["random"], mean_nc
    assert all(mean_cf["greedy"] <= mean_cf[n] for n in names), mean_cf


# ---------------------------------------------------------------------------
# reproducibility of the train command

def test_train_command_repeats_byte_identical(tmp_path):
    doc = {
        "pool": {"k_servers": 3, "n_vnfs": 3},
        "agent": {"kind": "pat", "warmup_size": 64, "batch_size": 32,
                  "buffer_capacity": 4096},
        "run": {"seed": 5, "total_epochs": 80, "eval_epochs": 0},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli.main(["train", "--config", str(path), "--out", str(out),
                         "--quiet"]) == 0
        outs.append((out / "metrics.csv").read_bytes())
    assert outs[0] == outs[1]
    header, first = outs[0].decode().splitlines()[:2]
    assert header == harness.CSV_HEADER
    assert first.split(",")[0] == "0"


# ---------------------------------------------------------------------------
# optional long-horizon benchmark (off by default; enable explicitly)

@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("VNF_LAB_LONG_RUN"),
                    reason="long-horizon benchmark; set VNF_LAB_LONG_RUN=1 to run")
def test_full_scale_cost_trends_negative():
    cfg = harness.defaults()
    cfg = dataclasses.replace(cfg, run=dataclasses.replace(
        cfg.run, seed=0, total_epochs=60_000, eval_epochs=1000))
    env = harness.build_env(cfg, 0, stream=0)
    agent = harness.build_agent(cfg, env, 0)
    rows = harness._drive(env, agent, cfg.run.total_epochs)
    window = cfg.run.smoothing_window
    nc = np.array([m.network_cost for m in rows])
    smooth = np.convolve(nc, np.ones(window) / window, mode="valid")
    assert smooth[-1] < smooth[0]
    eval_rows = harness.evaluate_agent(cfg, agent, 0, cfg.run.eval_epochs)
    assert harness.compute_kpis(eval_rows)["network_cost"] < 0.0
