"""Experiment harness: config documents, seeding, CSV output, comparisons, CLI."""

import ctypes
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import vnf_lab
from vnf_lab import cli, harness
from vnf_lab.baselines import CloudAgent, GreedyAgent
from vnf_lab.env import EpochMetrics
from vnf_lab.harness import (CSV_HEADER, ConfigError, aggregate_kpis, compare,
                             compute_kpis, config_from_dict, default_vnfs, defaults,
                             export_defaults, format_float, metrics_row,
                             resolve_seed, run_agent, run_experiment, with_agent)


def desk_doc(agent=None, **run):
    """Small three-server document used across these tests."""
    doc = {
        "pool": {"k_servers": 3, "n_vnfs": 3},
        "run": {"seed": 3, "total_epochs": 4, "eval_epochs": 3, **run},
    }
    if agent is not None:
        doc["agent"] = agent
    return doc


def desk_cfg(agent=None, **run):
    return config_from_dict(desk_doc(agent, **run))


class TestDefaults:
    def test_shipped_experiment_shape(self):
        cfg = defaults()
        assert cfg.pool.k_servers == 10 and cfg.pool.n_vnfs == 10
        assert cfg.pool.rho_max == 50.0 and cfg.pool.eta_max == 50.0
        assert len(cfg.vnfs) == 10
        first = cfg.vnfs[0]
        assert (first.c0, first.cr, first.dc) == (3, 5, 4)
        assert (first.m0, first.mr, first.dm) == (6, 5, 3)
        assert (first.qos_min, first.qos_max, first.gamma_sla) == (35, 70, 2)
        assert (first.mu_arr, first.sigma_arr, first.p_stay) == (2.0, 1.5, 0.5)
        assert cfg.costs.d_rc == 3.0 and cfg.costs.d_rm == 4.0
        assert cfg.costs.d_db == 20.0 and cfg.costs.c_rp == 6.0
        assert (cfg.costs.w1, cfg.costs.w2, cfg.costs.w3) == (1.0, 1.0, 2.0)
        assert cfg.traffic.t_max == 100 and cfg.traffic.mu_r == 10.0
        assert cfg.agent["kind"] == "pat"
        assert cfg.agent["gamma"] == 0.99 and cfg.agent["tau"] == 5e-3
        assert cfg.agent["eps"] == 0.8 and cfg.agent["sigma_noise"] == 0.2

    def test_export_roundtrips(self):
        text = export_defaults()
        again = config_from_dict(json.loads(text))
        assert again == defaults() == config_from_dict({})
        # the document lists the config's sections in their field order
        assert list(json.loads(text)) == [f.name for f in
                                          dataclasses.fields(harness.ExperimentConfig)]

    def test_config_dict_roundtrip_from_custom(self):
        cfg = desk_cfg(agent={"kind": "ddqn", "resolution": 10.0})
        again = config_from_dict(dataclasses.asdict(cfg))
        assert again == cfg


class TestConfigValidation:
    def test_unknown_keys_are_named(self):
        cases = [
            ({"bogus": 1}, "bogus"),
            ({"pool": {"k_serv": 3}}, "pool.k_serv"),
            ({"costs": {"d_rz": 1}}, "costs.d_rz"),
            ({"run": {"epochs": 5}}, "run.epochs"),
            ({"traffic": {"tmax": 5}}, "traffic.tmax"),
        ]
        for doc, needle in cases:
            with pytest.raises(ConfigError, match=needle.replace(".", r"\.")):
                config_from_dict(doc)

    def test_unknown_vnf_and_agent_keys(self):
        doc = desk_doc()
        doc["vnfs"] = [dictmerge(i) for i in range(3)]
        doc["vnfs"][1]["spare"] = 4
        with pytest.raises(ConfigError, match=r"vnfs\[1\]\.spare"):
            config_from_dict(doc)
        with pytest.raises(ConfigError, match="agent.lr2"):
            config_from_dict(desk_doc(agent={"kind": "pat", "lr2": 1}))
        with pytest.raises(ConfigError, match="resolution"):
            # valid only for the lattice learner, not for pat
            config_from_dict(desk_doc(agent={"kind": "pat", "resolution": 5.0}))

    def test_default_rows_fill_missing_vnfs(self):
        cfg = desk_cfg()
        assert cfg.vnfs == default_vnfs(3)

    def test_catalogue_cannot_stretch_past_shipped_rows(self):
        with pytest.raises(ConfigError, match="n_vnfs"):
            config_from_dict({"pool": {"k_servers": 3, "n_vnfs": 12}})

    def test_vnf_list_must_match_pool(self):
        doc = desk_doc()
        doc["vnfs"] = [dictrow(0), dictrow(1)]
        with pytest.raises(ConfigError, match="length"):
            config_from_dict(doc)
        doc["vnfs"] = [dictrow(0), dictrow(1), dictrow(1)]
        with pytest.raises(ConfigError, match="ids"):
            config_from_dict(doc)

    def test_missing_stay_probability_defaults(self):
        doc = desk_doc()
        doc["vnfs"] = [dictrow(i) for i in range(3)]
        for row in doc["vnfs"]:
            row.pop("p_stay")
        cfg = config_from_dict(doc)
        assert all(v.p_stay == 0.5 for v in cfg.vnfs)

    def test_agent_values_are_checked(self):
        with pytest.raises(ConfigError):
            config_from_dict(desk_doc(agent={"kind": "pat", "gamma": 1.5}))
        with pytest.raises(ConfigError, match="unknown agent"):
            config_from_dict(desk_doc(agent={"kind": "sarsa"}))

    def test_sections_must_be_objects(self):
        with pytest.raises(ConfigError, match="pool"):
            config_from_dict({"pool": 4})
        with pytest.raises(ConfigError, match="top level"):
            config_from_dict([1, 2])
        with pytest.raises(ConfigError, match="vnfs"):
            config_from_dict({"pool": {"k_servers": 3, "n_vnfs": 3}, "vnfs": []})

    def test_bad_json_file_is_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="JSON"):
            harness.load_config(path)


def dictrow(i: int) -> dict:
    """Catalogue row as a plain document, with the id forced to i."""
    return {**dataclasses.asdict(default_vnfs()[min(i, 9)]), "id": i}


def dictmerge(i: int) -> dict:
    return dataclasses.asdict(default_vnfs(3)[i])


class TestWithAgent:
    def test_keeps_a_block_of_the_kind_else_takes_its_defaults(self):
        """Another kind gets its defaults plus the block's beta and gamma_max,
        so every agent of a document is priced alike."""
        cfg = desk_cfg(agent={"kind": "pat", "warmup_size": 300, "beta": 0.9})
        pricing = {"beta": 0.9, "gamma_max": 100.0}
        assert with_agent(cfg, "pat").agent == cfg.agent
        assert with_agent(cfg, "ddqn").agent == {**harness.default_agent_config("ddqn"),
                                                 **pricing}
        assert with_agent(cfg, "cloud").agent == {"kind": "cloud", **pricing}
        # a baseline block that sets no pricing carries none, and its own block stays
        greedy = desk_cfg(agent={"kind": "greedy"})
        assert with_agent(greedy, "cloud").agent == {"kind": "cloud"}
        assert with_agent(greedy, "greedy").agent == {"kind": "greedy"}
        assert with_agent(greedy, "pat").agent == harness.default_agent_config("pat")
        with pytest.raises(ConfigError, match="unknown agent 'sarsa'"):
            with_agent(cfg, "sarsa")
        with pytest.raises(ConfigError, match="tau"):
            with_agent(dataclasses.replace(cfg, agent={"kind": "pat", "tau": 5.0}), "pat")

    def test_a_baseline_block_takes_the_pricing_keys_checked_as_a_learners(self):
        cfg = desk_cfg(agent={"kind": "random", "beta": 1, "gamma_max": 50.0})
        assert cfg.agent == {"kind": "random", "beta": 1, "gamma_max": 50.0}
        env = harness.build_env(cfg, 3)
        assert (env.beta, env.gamma_max) == (1, 50.0)
        for block, error in (({"gamma_max": 0}, "^agent: gamma_max must be > 0$"),
                             ({"beta": "x"}, "^agent: beta takes numbers, not 'x'$"),
                             ({"tau": 0.5}, "^agent.tau: unknown key for agent 'cloud'$")):
            with pytest.raises(ConfigError, match=error):
                desk_cfg(agent={"kind": "cloud", **block})
        with pytest.raises(ConfigError, match="^agent: gamma_max must be > 0$"):
            with_agent(dataclasses.replace(cfg, agent={"kind": "pat", "gamma_max": 0}),
                       "greedy")


class TestSeedResolution:
    def test_cli_beats_config(self):
        assert resolve_seed(desk_cfg(), 9) == 9

    def test_config_beats_environment(self, monkeypatch):
        monkeypatch.setenv(harness.SEED_ENV_VAR, "77")
        assert resolve_seed(desk_cfg()) == 3

    def test_environment_beats_default(self, monkeypatch):
        cfg = config_from_dict({"pool": {"k_servers": 3, "n_vnfs": 3}})
        monkeypatch.setenv(harness.SEED_ENV_VAR, "77")
        assert resolve_seed(cfg) == 77
        monkeypatch.delenv(harness.SEED_ENV_VAR)
        assert resolve_seed(cfg) == 0

    def test_bad_environment_value(self, monkeypatch):
        cfg = config_from_dict({"pool": {"k_servers": 3, "n_vnfs": 3}})
        monkeypatch.setenv(harness.SEED_ENV_VAR, "many")
        with pytest.raises(ConfigError,
                           match=f"^{harness.SEED_ENV_VAR}: a seed must be an integer, not 'many'$"):
            resolve_seed(cfg)

    def test_negative_seeds_are_refused_naming_their_source(self, monkeypatch):
        with pytest.raises(ConfigError, match="^run: run.seed must be >= 0 or null$"):
            desk_cfg(seed=-2)
        with pytest.raises(ConfigError, match="^--seed: a seed must be >= 0, not -5$"):
            resolve_seed(desk_cfg(), -5)
        cfg = config_from_dict({"pool": {"k_servers": 3, "n_vnfs": 3}})
        monkeypatch.setenv(harness.SEED_ENV_VAR, "-3")
        with pytest.raises(ConfigError, match=f"^{harness.SEED_ENV_VAR}: a seed must be >= 0"):
            resolve_seed(cfg)
        assert resolve_seed(cfg, 0) == 0

    def test_seeds_must_be_integers(self):
        with pytest.raises(ConfigError, match="^--seed: a seed must be an integer, not 1.7$"):
            resolve_seed(desk_cfg(), 1.7)
        with pytest.raises(ConfigError, match="^--seed: a seed must be an integer, not True$"):
            resolve_seed(desk_cfg(), True)
        assert resolve_seed(desk_cfg(), np.int64(4)) == 4


class TestCsvFormat:
    def test_header_is_stable(self):
        assert CSV_HEADER == ("epoch,network_cost,latency_per_user,"
                              "financial_per_user,sla_per_user,cpu_util,"
                              "mem_util,cloud_fraction,active_users,"
                              "mean_reward,eps,clip_c")

    def test_nine_significant_digits(self):
        assert format_float(0.123456789123) == "0.123456789"
        assert format_float(1.0) == "1"
        assert format_float(-2.5e-07) == "-2.5e-07"

    def test_row_layout(self):
        m = EpochMetrics(epoch=7, network_cost=0.5, latency_per_user=1.25,
                         financial_per_user=2.0, sla_per_user=-3.5, cpu_util=0.1,
                         mem_util=0.2, cloud_fraction=0.25, active_users=12,
                         mean_reward=-0.5, eps=0.8, clip_c=0.5)
        assert metrics_row(m) == "7,0.5,1.25,2,-3.5,0.1,0.2,0.25,12,-0.5,0.8,0.5"


class TestKpis:
    def test_epoch_means(self):
        rows = [EpochMetrics(0, 1.0, 2.0, 3.0, 4.0, 0.2, 0.4, 0.5, 10, -1.0),
                EpochMetrics(1, 3.0, 4.0, 5.0, 6.0, 0.4, 0.6, 1.0, 20, -3.0)]
        k = compute_kpis(rows)
        assert k["network_cost"] == 2.0
        assert k["latency_per_user"] == 3.0
        assert k["cpu_util"] == pytest.approx(0.3)
        assert k["cloud_fraction"] == 0.75
        assert k["active_users"] == 15.0
        assert k["mean_reward"] == -2.0
        assert compute_kpis([]) == {}

    def test_seed_aggregation(self):
        agg = aggregate_kpis([{"network_cost": 1.0}, {"network_cost": 3.0}])
        assert agg["network_cost"] == (2.0, 1.0)


class TestRunExperiment:
    def test_plain_agent_writes_metrics_and_summary(self, tmp_path):
        cfg = desk_cfg(agent={"kind": "greedy"})
        result = run_experiment(cfg, out_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4
        assert lines[1].split(",")[0] == "0"
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["agent"] == "greedy" and summary["seed"] == 3
        assert "network_cost" in summary["eval_kpis"]
        assert result.checkpoint_path is None
        assert len(result.train_rows) == 4 and len(result.eval_rows) == 3

    def test_same_seed_reproduces_bytes(self, tmp_path):
        cfg = desk_cfg(agent={"kind": "greedy"})
        run_experiment(cfg, out_dir=tmp_path / "a")
        run_experiment(cfg, out_dir=tmp_path / "b")
        run_experiment(cfg, out_dir=tmp_path / "c", seed=4)
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        c = (tmp_path / "c" / "metrics.csv").read_bytes()
        assert a == b
        assert a != c

    def test_metrics_every_thins_rows(self, tmp_path):
        cfg = desk_cfg(agent={"kind": "greedy"}, total_epochs=5, metrics_every=2)
        run_experiment(cfg, out_dir=tmp_path / "run")
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in lines[1:]] == ["0", "2", "4"]

    def test_learner_run_trains_and_checkpoints(self, tmp_path):
        agent = {"kind": "pat", "warmup_size": 8, "batch_size": 8,
                 "buffer_capacity": 512}
        cfg = desk_cfg(agent=agent, total_epochs=10, eval_epochs=2)
        result = run_experiment(cfg, out_dir=tmp_path / "run")
        assert result.checkpoint_path is not None
        assert (tmp_path / "run" / "checkpoint.npz").exists()
        lines = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
        last_eps = float(lines[-1].split(",")[10])
        assert last_eps < 0.8  # the schedule moved, so updates really ran

    def test_baseline_is_evaluated_as_built_as_in_compare(self):
        """Training epochs move the random agent's draws; evaluation starts
        from the agent as built, so its KPIs equal compare's row, which skips
        training."""
        cfg = with_agent(desk_cfg(total_epochs=20, eval_epochs=20), "random")
        assert run_experiment(cfg).eval_kpis == compare(cfg, ["random"]).per_seed["random"][0]

    def test_checkpoint_path_override(self, tmp_path):
        agent = {"kind": "pat", "warmup_size": 8, "batch_size": 8,
                 "buffer_capacity": 512}
        target = str(tmp_path / "elsewhere.npz")
        cfg = desk_cfg(agent=agent, total_epochs=3, eval_epochs=0,
                       checkpoint_path=target)
        result = run_experiment(cfg, out_dir=tmp_path / "run")
        assert result.checkpoint_path == target
        assert (tmp_path / "elsewhere.npz").exists()

    def test_checkpoint_path_without_suffix_round_trips(self, tmp_path, capsys):
        # np.savez appends .npz; the reported path and eval must follow it
        agent = {"kind": "pat", "warmup_size": 8, "batch_size": 8,
                 "buffer_capacity": 512}
        doc = desk_doc(agent, total_epochs=3, eval_epochs=2,
                       checkpoint_path=str(tmp_path / "ckpt"))
        result = run_experiment(config_from_dict(doc), out_dir=tmp_path / "run")
        assert result.checkpoint_path == str(tmp_path / "ckpt.npz")
        assert (tmp_path / "ckpt.npz").exists()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["eval", "--config", str(path), "--quiet"]) == 0


class TestEvaluateAgent:
    def test_eval_mode_is_restored_when_the_policy_raises(self):
        cfg = desk_cfg(agent={"kind": "pat"})
        agent = harness.build_agent(cfg, harness.build_env(cfg, 3), 3)
        seen = []
        select = agent.select

        def failing(*args, **kwargs):
            seen.append(agent.eval_mode)
            if len(seen) == 3:
                raise RuntimeError("policy failed")
            return select(*args, **kwargs)

        agent.select = failing
        with pytest.raises(RuntimeError, match="policy failed"):
            harness.evaluate_agent(cfg, agent, 3, 5)
        assert seen == [True, True, True]
        assert agent.eval_mode is False

    def test_refuses_a_learner_of_another_pool_shape(self):
        cfg = desk_cfg(agent={"kind": "pat"})
        agent = harness.build_agent(cfg, harness.build_env(cfg, 3), 3)
        wide = dataclasses.replace(cfg, pool=dataclasses.replace(cfg.pool, k_servers=4))
        # 3 servers x 3 VNFs give 40 features and 4 targets; 4 servers give 49 and 5
        with pytest.raises(ConfigError, match=r"\(40, 4\), but the config's pool gives \(49, 5\)"):
            harness.evaluate_agent(wide, agent, 3, 2)
        assert agent.eval_mode is False

    def test_sink_gets_every_row_whatever_metrics_every(self):
        cfg = desk_cfg(agent={"kind": "greedy"}, metrics_every=3)
        agent = harness.build_agent(cfg, harness.build_env(cfg, 3), 3)
        sink = io.StringIO()
        rows = harness.evaluate_agent(cfg, agent, 3, 5, sink=sink)
        assert sink.getvalue().splitlines() == [metrics_row(m) for m in rows]
        assert len(rows) == 5


class TestDrive:
    def test_only_a_learner_in_training_stores_and_trains(self):
        cfg = desk_cfg(agent={"kind": "pat", "warmup_size": 16, "batch_size": 8,
                              "buffer_capacity": 512})
        env = harness.build_env(cfg, 3)
        agent = harness.build_agent(cfg, env, 3)
        agent.set_eval(True)
        rows = harness._drive(env, agent, 6)
        assert agent.buffer.size == 0 and agent.updates == 0
        assert [m.eps for m in rows] == [0.0] * 6
        agent.set_eval(False)
        rows = harness._drive(env, agent, 6)
        assert agent.buffer.size > 16 and agent.updates > 0
        assert rows[-1].eps == agent.eps > 0.0
        # a baseline has no store or train_step for _drive to call
        greedy = GreedyAgent(cfg.pool, cfg.vnfs)
        assert not hasattr(greedy, "store")
        assert len(harness._drive(env, greedy, 3)) == 3


class TestCompare:
    def test_agents_see_the_same_arrival_trace(self):
        cfg = desk_cfg()
        counts = []
        for agent in (GreedyAgent(cfg.pool, cfg.vnfs), CloudAgent(cfg.pool)):
            env = harness.build_env(cfg, 11, stream=1)
            counts.append([sum(r.had_user for r in env.advance_epoch(agent.select).records)
                           for _ in range(6)])
        assert counts[0] == counts[1]

    def test_compare_tabulates_and_writes(self, tmp_path):
        cfg = desk_cfg(agent={"kind": "greedy"}, total_epochs=2, eval_epochs=4)
        result = compare(cfg, ["greedy", "cloud"], seeds=[1, 2], out_dir=tmp_path)
        assert set(result.kpis) == {"greedy", "cloud"}
        assert len(result.per_seed["cloud"]) == 2
        assert result.kpis["cloud"]["cloud_fraction"] == (1.0, 0.0)
        assert result.kpis["greedy"]["cloud_fraction"][0] < 1.0
        assert len(result.long_rows) == 2 * 2 * 4 * 8
        kpi_lines = (tmp_path / "compare_kpis.csv").read_text().splitlines()
        assert kpi_lines[0] == "agent,kpi,mean,std"
        long_lines = (tmp_path / "compare_long.csv").read_text().splitlines()
        assert long_lines[0] == "agent,seed,epoch,metric,value"
        assert len(long_lines) == 1 + len(result.long_rows)

    def test_each_row_is_the_job_of_its_agent_and_seed(self):
        """compare's per-seed KPIs are run_agent's eval rows for that kind and
        seed, a learner trained for run.total_epochs first and a baseline not."""
        agent = {"kind": "pat", "warmup_size": 40, "batch_size": 8, "buffer_capacity": 256}
        cfg = desk_cfg(agent=agent, total_epochs=12, eval_epochs=5)
        kinds, seeds = list(harness.AGENT_KINDS), [2, 5]
        result = compare(cfg, kinds, seeds=seeds)
        for kind in kinds:
            acfg = with_agent(cfg, kind)
            train = acfg.run.total_epochs if kind in harness.LEARNERS else 0
            for i, seed in enumerate(seeds):
                _, train_rows, eval_rows = run_agent(acfg, seed, train, 5)
                assert len(train_rows) == train and len(eval_rows) == 5
                assert result.per_seed[kind][i] == compute_kpis(eval_rows), (kind, seed)

    def test_baselines_are_priced_by_the_documents_block(self):
        """The learner block's beta prices every agent's requests, so greedy's
        mean_reward moves with it, as the learner's does."""
        rewards = []
        for beta in (0.2, 0.9):
            cfg = desk_cfg(agent={"kind": "pat", "beta": beta}, total_epochs=20,
                           eval_epochs=20)
            result = compare(cfg, ["pat", "greedy"], seeds=[3])
            rewards.append({name: result.kpis[name]["mean_reward"][0]
                            for name in ("pat", "greedy")})
        assert rewards[0]["pat"] != rewards[1]["pat"]
        assert rewards[0]["greedy"] != rewards[1]["greedy"]
        # beta 0.2 is the default, at which the baselines were priced before
        assert rewards[0]["greedy"] == pytest.approx(-0.486, abs=5e-4)

    def test_compare_needs_agents(self):
        with pytest.raises(ConfigError):
            compare(desk_cfg(), [])

    def test_compare_needs_seeds(self):
        with pytest.raises(ConfigError, match="need at least one seed"):
            compare(desk_cfg(), ["cloud"], seeds=[])

    def test_compare_refuses_bad_seeds_naming_them(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "evaluate_agent", lambda *a, **k: calls.append(a))
        with pytest.raises(ConfigError, match=r"^compare: seeds\[0\]: a seed must be >= 0, not -1$"):
            compare(desk_cfg(), ["greedy"], seeds=[-1])
        with pytest.raises(ConfigError,
                           match=r"^compare: seeds\[1\]: a seed must be an integer, not 1.7$"):
            compare(desk_cfg(), ["greedy"], seeds=[2, 1.7])
        with pytest.raises(ConfigError,
                           match=r"^compare: seeds\[0\]: a seed must be an integer, not True$"):
            compare(desk_cfg(), ["greedy"], seeds=[True])
        assert calls == []


class TestCli:
    def write_cfg(self, tmp_path, agent=None, **run):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(desk_doc(agent, **run)))
        return str(path)

    # sha256 of metrics.csv from `train --agent KIND --epochs 30 --seed 7` on
    # the exported 10x10 defaults, without evaluation epochs; these agents
    # make no BLAS calls, so the bytes depend only on the code and numpy's rng
    @pytest.mark.parametrize("kind, digest", [
        ("random", "f82e8f32a837cb2caf2d42552342f36d15e620ed4bf35c1c7022644d1839a52f"),
        ("greedy", "603056d4b94b724807620dd0d5c28680729525bf0af0e50ba0fd840294189d93"),
    ])
    def test_train_metrics_bytes_are_frozen(self, tmp_path, kind, digest):
        doc = json.loads(export_defaults())
        doc["run"]["eval_epochs"] = 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--agent", kind, "--epochs", "30",
                         "--seed", "7", "--out", str(out), "--quiet"]) == 0
        assert hashlib.sha256((out / "metrics.csv").read_bytes()).hexdigest() == digest

    # sha256 of compare_kpis.csv and compare_long.csv from `compare --agents
    # greedy,cloud,random --seed 7` on the exported 10x10 defaults with 5
    # evaluation epochs; they pin the metric schema the tables are built from
    def test_compare_bytes_are_frozen(self, tmp_path):
        doc = json.loads(export_defaults())
        doc["run"]["eval_epochs"] = 5
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", str(path), "--agents", "greedy,cloud,random",
                         "--seed", "7", "--out", str(out), "--quiet"]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("compare_kpis.csv", "compare_long.csv")}
        assert digests == {
            "compare_kpis.csv":
                "48bd35aa242f28f6d6818cd7b11cfc23711ee168bf38424810e134ddc127e1a8",
            "compare_long.csv":
                "319bf81e39a2902bf31504b54d13030374a7469ec8495514ab1650f40f867c53",
        }

    def test_export_defaults_stdout(self, capsys):
        assert cli.main(["export-defaults"]) == 0
        out = capsys.readouterr().out
        assert config_from_dict(json.loads(out)) == defaults()

    def test_validate_config_paths(self, tmp_path, capsys):
        good = self.write_cfg(tmp_path)
        assert cli.main(["validate-config", "--config", good]) == 0
        assert capsys.readouterr().out.strip() == "ok"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"pool": {"k_servers": 0}}))
        assert cli.main(["validate-config", "--config", str(bad)]) == 1
        assert "pool" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["d_dt", "unit_c"])
    def test_validate_config_rejects_removed_cost_keys(self, tmp_path, capsys, key):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({**desk_doc(), "costs": {key: 1.0}}))
        assert cli.main(["validate-config", "--config", str(path)]) == 1
        assert f"costs.{key}: unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("agent, error", [
        ({"kind": ["pat"]}, "agent.kind: unknown agent ['pat']"),
        ({"kind": 5}, "agent.kind: unknown agent 5"),
        ({"kind": "greedy", "beta": -5}, "agent: beta must be >= 0"),
    ], ids=["kind-list", "kind-number", "negative-beta"])
    def test_validate_config_refuses_a_bad_kind_or_beta(self, tmp_path, capsys, agent, error):
        """A kind that is not a string, and a negative beta, which would make
        the training cost reward network cost, fail as an error line."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**desk_doc(), "agent": agent}))
        assert cli.main(["validate-config", "--config", str(path)]) == 1
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {error}\n"

    def test_missing_file_fails_cleanly(self, capsys):
        assert cli.main(["validate-config", "--config", "/no/such.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_train_writes_outputs(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, agent={"kind": "greedy"})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", path, "--out", str(out), "--quiet"]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "summary.json").exists()

    def test_epoch_override_must_be_positive(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, agent={"kind": "greedy"})
        assert cli.main(["train", "--config", path, "--epochs", "0",
                         "--out", str(tmp_path / "x"), "--quiet"]) == 1
        assert "--epochs" in capsys.readouterr().err

    def test_agent_override(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", path, "--agent", "cloud",
                         "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["agent"] == "cloud"
        assert cli.main(["train", "--config", path, "--agent", "sarsa",
                         "--out", str(out), "--quiet"]) == 1
        assert "unknown agent" in capsys.readouterr().err

    def test_every_command_prices_an_agent_by_the_document(self, tmp_path):
        """One document whose pat block sets beta 0.9 and gamma_max 50: for
        every kind, train --agent K's eval KPIs equal compare's K row exactly,
        eval --agent K's rows equal compare's for each baseline, and compare
        from the greedy block that --agent greedy makes keeps the pricing."""
        path = self.write_cfg(tmp_path, agent={"kind": "pat", "beta": 0.9, "gamma_max": 50.0},
                              total_epochs=20, eval_epochs=20)
        kinds = ["pat", "ddqn", "ddpg", "greedy", "cloud", "random"]
        cfg = harness.load_config(path)
        result = compare(cfg, kinds)
        for kind in kinds:
            out = tmp_path / kind
            assert cli.main(["train", "--config", path, "--agent", kind,
                             "--out", str(out), "--quiet"]) == 0
            summary = json.loads((out / "summary.json").read_text())
            assert summary["eval_kpis"] == result.per_seed[kind][0], kind
            assert summary["config"]["agent"]["beta"] == 0.9
            assert summary["config"]["agent"]["gamma_max"] == 50.0
        for kind in ("greedy", "cloud", "random"):
            out = tmp_path / f"eval-{kind}"
            assert cli.main(["eval", "--config", path, "--agent", kind,
                             "--out", str(out), "--quiet"]) == 0
            lines = (out / "eval_metrics.csv").read_text().splitlines()
            header = lines[0].split(",")
            cells = [dict(zip(header, line.split(","))) for line in lines[1:]]
            got = [(kind, 3, int(c["epoch"]), key, c[key]) for c in cells for key in header
                   if key in harness.KPI_KEYS and key != "active_users"]
            assert got == [(*row[:4], format_float(row[4])) for row in result.long_rows
                           if row[0] == kind]
        greedy = compare(with_agent(cfg, "greedy"), ["greedy"])
        assert greedy.per_seed["greedy"] == result.per_seed["greedy"]

    def test_agent_override_keeps_a_block_of_that_kind(self, tmp_path):
        agent = {"kind": "pat", "warmup_size": 300, "batch_size": 16, "buffer_capacity": 1000}
        path = self.write_cfg(tmp_path, agent=agent, eval_epochs=0)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", path, "--agent", "pat", "--epochs", "60",
                         "--out", str(out), "--quiet"]) == 0
        lines = (out / "metrics.csv").read_text().splitlines()
        # the config's warm-up of 300 transitions, not the default 5000, gated training
        assert float(lines[-1].split(",")[10]) < 0.8

    @pytest.mark.parametrize("key", ["batch_size", "buffer_capacity", "warmup_size",
                                     "updates_per_epoch"])
    @pytest.mark.parametrize("kind, value", [("pat", 16.0), ("pat", True), ("ddqn", 16.0),
                                             ("ddpg", "16")])
    def test_integer_agent_keys_must_be_integers(self, tmp_path, capsys, key, kind, value):
        agent = {"kind": kind, "batch_size": 16, "buffer_capacity": 1000, "warmup_size": 16,
                 key: value}
        path = self.write_cfg(tmp_path, agent=agent)
        assert cli.main(["validate-config", "--config", path]) == 1
        assert "agent: " in capsys.readouterr().err
        assert cli.main(["train", "--config", path, "--out", str(tmp_path / "x"),
                         "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: agent: ") and "integers" in err

    @pytest.mark.parametrize("section, key, value", [
        ("pool", "k_servers", 3.0), ("pool", "n_vnfs", 3.0), ("pool", "k_servers", True),
        ("traffic", "t_max", 5.0), ("run", "total_epochs", 5.0), ("run", "eval_epochs", 2.0),
        ("run", "metrics_every", True), ("run", "seed", 1.5), ("run", "seed", "1")])
    def test_integer_keys_must_be_integers_in_every_section(self, tmp_path, capsys,
                                                            section, key, value):
        doc = desk_doc(total_epochs=2, eval_epochs=1)
        doc.setdefault(section, {})[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate-config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {section}: {key} ") and "integers" in err
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "x"),
                         "--quiet"]) == 1
        assert capsys.readouterr().err == err

    def test_null_seed_is_accepted(self, tmp_path, capsys):
        assert cli.main(["validate-config", "--config", self.write_cfg(tmp_path, seed=None)]) == 0
        assert capsys.readouterr().out == "ok\n"

    @pytest.mark.parametrize("section, key, value, what", [
        ("run", "checkpoint_path", 5, "strings or null"), ("pool", "rho_max", True, "numbers"),
        ("agent", "lr", True, "numbers"), ("costs", "w1", "2", "numbers"),
        ("pool", "rho_max", float("nan"), "finite numbers"),
        ("agent", "lr", float("nan"), "finite numbers"),
        ("costs", "w1", float("nan"), "finite numbers"),
        ("traffic", "mu_r", float("inf"), "finite numbers"),
        ("vnfs", "mu_arr", float("-inf"), "finite numbers")])
    def test_keys_take_only_the_json_values_of_their_type(self, tmp_path, capsys,
                                                          section, key, value, what):
        doc = desk_doc(total_epochs=2, eval_epochs=1)
        if section == "vnfs":
            doc["vnfs"] = [dataclasses.asdict(v) for v in default_vnfs(3)]
            doc["vnfs"][1][key] = value
            section = "vnfs[1]"
        else:
            doc.setdefault(section, {})[key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))  # nan and inf are written as NaN, Infinity, -Infinity
        assert cli.main(["validate-config", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {section}: {key} takes {what}, not {value!r}\n"

    def test_exported_defaults_validate(self, tmp_path, capsys):
        """The shipped catalogue writes integers into float fields; they validate."""
        assert cli.main(["export-defaults"]) == 0
        path = tmp_path / "defaults.json"
        path.write_text(capsys.readouterr().out)
        assert type(json.loads(path.read_text())["vnfs"][0]["c0"]) is int
        assert cli.main(["validate-config", "--config", str(path)]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_eval_writes_csv(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, agent={"kind": "cloud"})
        out = tmp_path / "out"
        assert cli.main(["eval", "--config", path, "--out", str(out), "--quiet"]) == 0
        lines = (out / "eval_metrics.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 1 + 3

    @pytest.mark.parametrize("kind", ["pat", "ddqn", "ddpg"])
    def test_eval_of_a_checkpoint_reproduces_training_eval(self, tmp_path, capsys, kind):
        agent = {"kind": kind, "warmup_size": 16, "batch_size": 8,
                 "buffer_capacity": 512}
        path = self.write_cfg(tmp_path, agent=agent, total_epochs=12, eval_epochs=4)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", path, "--out", str(out), "--quiet"]) == 0
        summary = json.loads((out / "summary.json").read_text())
        capsys.readouterr()
        assert cli.main(["eval", "--config", path, "--checkpoint",
                         str(out / "checkpoint.npz")]) == 0
        printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
        assert printed == {k: f"{v:.6g}" for k, v in summary["eval_kpis"].items()}

    def test_eval_of_a_learner_needs_its_checkpoint(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, agent={"kind": "ddpg"})
        assert cli.main(["eval", "--config", path, "--quiet"]) == 1
        assert "checkpoint" in capsys.readouterr().err
        missing = str(tmp_path / "nowhere.npz")
        assert cli.main(["eval", "--config", path, "--checkpoint", missing, "--quiet"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and missing in err

    @pytest.mark.parametrize("kind", ["greedy", "cloud", "random"])
    def test_eval_of_a_baseline_refuses_a_checkpoint(self, tmp_path, capsys, kind):
        path = self.write_cfg(tmp_path, agent={"kind": "pat"})
        for ckpt in (str(tmp_path / "nowhere.npz"), ""):
            assert cli.main(["eval", "--config", path, "--agent", kind, "--checkpoint", ckpt,
                             "--quiet"]) == 1
            assert capsys.readouterr().err == \
                f"error: eval: agent {kind!r} is not a learner and takes no --checkpoint\n"
        assert cli.main(["eval", "--config", path, "--agent", kind, "--quiet"]) == 0

    def test_eval_refuses_a_checkpoint_of_another_kind(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, agent={"kind": "pat"})
        out = tmp_path / "out"
        assert cli.main(["train", "--config", path, "--out", str(out), "--quiet"]) == 0
        assert cli.main(["eval", "--config", path, "--agent", "ddqn", "--checkpoint",
                         str(out / "checkpoint.npz"), "--quiet"]) == 1
        assert "'pat'" in capsys.readouterr().err

    def test_eval_refuses_a_file_that_is_not_a_checkpoint(self, tmp_path, capsys):
        agent = {"kind": "pat", "warmup_size": 16, "batch_size": 8, "buffer_capacity": 512}
        path = self.write_cfg(tmp_path, agent=agent, total_epochs=2, eval_epochs=1)
        other = tmp_path / "other.npz"
        np.savez(other, weights=np.zeros(3))
        assert cli.main(["eval", "--config", path, "--checkpoint", str(other), "--quiet"]) == 1
        assert capsys.readouterr().err == f"error: {other}: meta: not in the checkpoint\n"
        for meta, err in (("5", "not a JSON object"), ("{", "not a JSON object"),
                          (json.dumps({"kind": "pat"}), "no 'state_dim' key")):
            np.savez(other, meta=np.array(meta))
            assert cli.main(["eval", "--config", path, "--checkpoint", str(other),
                             "--quiet"]) == 1
            assert capsys.readouterr().err == f"error: {other}: meta: {err}\n"
        out = tmp_path / "out"
        assert cli.main(["train", "--config", path, "--out", str(out), "--quiet"]) == 0
        with np.load(out / "checkpoint.npz") as data:
            arrays = {k: data[k] for k in data.files}
        meta = json.loads(str(arrays["meta"]))
        for key, low in (("state_dim", 1), ("n_targets", 1), ("updates", 0)):
            for value in ([1], "x", -4, low - 1, 2.5, True, None):
                np.savez(other, **{**arrays, "meta": np.array(json.dumps({**meta, key: value}))})
                assert cli.main(["eval", "--config", path, "--checkpoint", str(other),
                                 "--quiet"]) == 1
                assert capsys.readouterr().err == \
                    f"error: {other}: meta: {key} takes integers >= {low}, not {value!r}\n"
        # meta.scale takes two finite JSON numbers: no bool, string or infinity
        for value in ([True, 50], [float("inf"), 50], ["5", 50]):
            np.savez(other, **{**arrays, "meta": np.array(json.dumps({**meta, "scale": value}))})
            assert cli.main(["eval", "--config", path, "--checkpoint", str(other),
                             "--quiet"]) == 1
            assert capsys.readouterr().err == \
                f"error: {other}: meta: scale takes two finite numbers, not {value!r}\n"
        # meta.cfg is checked as the kind's agent block is
        for key, value, err in (("batch_size", True, "takes integers, not True"),
                                ("gamma", True, "takes numbers, not True"),
                                ("warmup_size", 2.5, "takes integers, not 2.5"),
                                ("lr", float("nan"), "takes finite numbers, not nan"),
                                ("tau", "x", "takes numbers, not 'x'")):
            cfg = {**meta["cfg"], key: value}
            np.savez(other, **{**arrays, "meta": np.array(json.dumps({**meta, "cfg": cfg}))})
            assert cli.main(["eval", "--config", path, "--checkpoint", str(other),
                             "--quiet"]) == 1
            assert capsys.readouterr().err == f"error: {other}: meta: cfg: {key} {err}\n"
        # one net's arrays left out
        np.savez(other, **{k: v for k, v in arrays.items() if not k.startswith("critic_2.")})
        assert cli.main(["eval", "--config", path, "--checkpoint", str(other), "--quiet"]) == 1
        assert capsys.readouterr().err == \
            f"error: {other}: critic_2.w0: not in the checkpoint\n"

    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_negative_seeds_are_refused_naming_their_source(self, tmp_path, capsys,
                                                            monkeypatch, command):
        argv = [command, "--config", self.write_cfg(tmp_path, agent={"kind": "greedy"}, seed=None),
                "--out", str(tmp_path / "out"), "--quiet"]
        assert cli.main(argv + ["--seed", "-5"]) == 1
        assert capsys.readouterr().err == "error: --seed: a seed must be >= 0, not -5\n"
        monkeypatch.setenv(harness.SEED_ENV_VAR, "-3")
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == \
            f"error: {harness.SEED_ENV_VAR}: a seed must be >= 0, not -3\n"
        self.write_cfg(tmp_path, agent={"kind": "greedy"}, seed=-2)
        for args in (["validate-config", "--config", argv[2]], argv):
            assert cli.main(args) == 1
            assert capsys.readouterr().err == "error: run: run.seed must be >= 0 or null\n"
        assert not (tmp_path / "out").exists()

    def test_eval_refuses_a_checkpoint_of_another_pool_shape(self, tmp_path, capsys):
        agent = {"kind": "pat", "warmup_size": 16, "batch_size": 8, "buffer_capacity": 512}
        path = self.write_cfg(tmp_path, agent=agent, total_epochs=2, eval_epochs=1)
        out = tmp_path / "out"
        assert cli.main(["train", "--config", path, "--out", str(out), "--quiet"]) == 0
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps({**desk_doc(agent), "pool": {"k_servers": 4, "n_vnfs": 3}}))
        assert cli.main(["eval", "--config", str(wide), "--checkpoint",
                         str(out / "checkpoint.npz"), "--quiet"]) == 1
        err = capsys.readouterr().err
        # 3 servers x 3 VNFs give 40 features and 4 targets; 4 servers give 49 and 5
        assert err.startswith("error:") and "(40, 4)" in err and "(49, 5)" in err

    def test_compare_prints_table(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, agent={"kind": "greedy"}, total_epochs=2,
                              eval_epochs=2)
        out = tmp_path / "cmp"
        rc = cli.main(["compare", "--config", path, "--agents", "greedy,cloud",
                       "--out", str(out), "--quiet"])
        assert rc == 0
        printed = capsys.readouterr().out
        assert printed.startswith("greedy:") and "cloud:" in printed
        assert (out / "compare_kpis.csv").exists()

    def test_compare_refuses_a_repeated_agent(self, tmp_path, capsys):
        path = self.write_cfg(tmp_path, agent={"kind": "greedy"})
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", path, "--agents", "greedy,greedy,cloud",
                         "--out", str(out), "--quiet"]) == 1
        assert "'greedy'" in capsys.readouterr().err
        assert not out.exists()

    def test_compare_checks_every_agent_before_running_any(self, tmp_path, capsys,
                                                           monkeypatch):
        """An unknown name after two learners fails before either is trained."""
        calls = []
        monkeypatch.setattr(harness, "_drive", lambda *a, **k: calls.append("_drive"))
        monkeypatch.setattr(harness, "evaluate_agent",
                            lambda *a, **k: calls.append("evaluate_agent"))
        path = tmp_path / "defaults.json"
        path.write_text(export_defaults())
        out = tmp_path / "cmp"
        assert cli.main(["compare", "--config", str(path), "--agents", "ddpg,pat,bogus",
                         "--out", str(out), "--quiet"]) == 1
        assert capsys.readouterr().err == "error: agent.kind: unknown agent 'bogus'\n"
        assert calls == [] and not out.exists()
        # a bad key in the config's own block of a later agent fails as early
        cfg = dataclasses.replace(desk_cfg(), agent={"kind": "ddpg", "tau": 5.0})
        with pytest.raises(ConfigError, match="tau"):
            compare(cfg, ["pat", "ddpg"])
        assert calls == []


class TestBlasThreads:
    VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

    @pytest.mark.parametrize("preset, want", [(None, "1"), ("3", "3")])
    def test_import_caps_threads_unless_the_user_set_them(self, preset, want):
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        src = os.path.dirname(os.path.dirname(vnf_lab.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        code = "import os, vnf_lab; print(*(os.environ[v] for v in %r))" % (self.VARS,)
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout.split()
        assert out == [want, "1", "1"]


def _has_glibc_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except OSError:
        return False


@pytest.mark.skipif(resource is None or not _has_glibc_mallopt(),
                    reason="needs the resource module and glibc mallopt")
class TestMallocSetting:
    """Building a learner, whose replay ring fixes malloc's thresholds,
    makes the process keep freed memory, so blocks freed and taken again,
    an update's temporaries among them, stop faulting their pages in again;
    a malloc setting the user made wins."""

    VARS = ("MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_", "GLIBC_TUNABLES")
    TRAIN = """
import resource
import vnf_lab
import numpy as np
from vnf_lab import harness
from vnf_lab.pat import PatAgent, PatConfig
cfg = harness.config_from_dict({"pool": {"k_servers": 3, "n_vnfs": 3}})
env = harness.build_env(cfg, 0)
s, a = env.feature_length, env.n_targets
agent = PatAgent(s, a, (50.0, 50.0), PatConfig(warmup_size=256, buffer_capacity=1000), seed=0)
rng = np.random.default_rng(1)
k = agent.buffer.PATCH
for _ in range(300):
    state = rng.normal(0, 1, s)
    next_state = state.copy()  # with k entries redrawn, as replay takes at most that many
    next_state[rng.choice(s, k, replace=False)] = rng.normal(0, 1, k)
    agent.store(state, int(rng.integers(a)), rng.uniform(-50, 50, 2), -rng.random(), next_state)
for _ in range(20):
    agent.train_step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(50):
    agent.train_step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""
    # no update: 20 blocks of 1 MiB taken and freed three times, the faults
    # of the last two rounds counted; malloc's defaults hand them back each time
    BUILD = """
import resource
import vnf_lab
import numpy as np
from vnf_lab.pat import PatAgent
agent = PatAgent(30, 4, (50.0, 50.0), seed=0)
faults = 0
for round in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    blocks = [np.ones(1 << 17) for _ in range(20)]
    del blocks
    if round:
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults)
"""

    def faults(self, code, **preset) -> int:
        env = {k: v for k, v in os.environ.items() if k not in self.VARS}
        env.update(preset)
        src = os.path.dirname(os.path.dirname(vnf_lab.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout
        return int(out.split()[-1])

    def test_updates_stop_faulting_unless_the_user_set_malloc(self):
        assert self.faults(self.TRAIN) < 50
        assert self.faults(self.TRAIN, MALLOC_MMAP_THRESHOLD_="131072") >= 50 * 50

    def test_building_a_learner_keeps_freed_memory_unless_the_user_set_malloc(self):
        assert self.faults(self.BUILD) < 50
        for var in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"):
            assert self.faults(self.BUILD, **{var: "131072"}) >= 2 * 20 * 256, var


class TestPerfbench:
    """The benchmark drives and times the program through entry points it
    looks up by name; these fail when one of them is renamed or changes its
    signature. Each runs in its own process, since the hooks patch modules."""

    ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def run(self, *args):
        done = subprocess.run([sys.executable, *args], cwd=self.ROOT, capture_output=True,
                              text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr

    def test_selftest_passes(self):
        self.run(os.path.join("perfbench", "selftest.py"))

    def test_trace_hooks_install(self):
        self.run("-c", "import sys; sys.path[:0] = ['src', 'perfbench']; import hooks; "
                       "from vnf_lab import baselines, env, nn, pat; "
                       "hooks.Tracer().install(env, nn, pat, baselines)")
