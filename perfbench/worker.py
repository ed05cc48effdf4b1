"""One process of a benchmark run. run.py starts a fresh one per step:

  prepare  export the defaults, write the workload's config, record machine facts
  setup    start the workload's command and stop at its first epoch
  round    run the workload's commands to their end (traced with --trace 1)
  verify   check every round's outputs, then drive evaluation epochs
           against the independent cost oracle

python3 perfbench/worker.py STEP --workload NAME --seed N --dir DIR [--trace 0|1]
with the repository's src directory on PYTHONPATH. Each step writes
DIR/report.json.
"""

from __future__ import annotations

import time

T_MAIN = time.monotonic()

import os  # noqa: E402

from workloads import LEARNERS, SPAWN_VAR, THREAD_VARS, WORKLOADS, make_config  # noqa: E402

# one BLAS/OpenMP thread, set before numpy is first imported
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import checks  # noqa: E402
import hooks  # noqa: E402
import oracle  # noqa: E402

ORACLE_EPOCHS = 40     # evaluation epochs per agent checked against the oracle


def _write(path: str, report: dict):
    with open(os.path.join(path, "report.json"), "w") as fh:
        json.dump(report, fh)


def _threads() -> int | None:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _config_path(args) -> str:
    """The run's config, next to the step directories."""
    return os.path.join(os.path.dirname(os.path.abspath(args.dir)), "config.json")


def machine_facts() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "loadavg": list(os.getloadavg())}


def prepare(workload, args):
    from vnf_lab import cli

    defaults = os.path.join(args.dir, "defaults.json")
    if cli.main(["export-defaults", "--out", defaults]) != 0:
        raise RuntimeError("export-defaults failed")
    with open(defaults) as fh:
        doc = make_config(json.load(fh), workload)
    with open(_config_path(args), "w") as fh:
        json.dump(doc, fh, indent=2)
    _write(args.dir, {"facts": machine_facts()})


def run_commands(workload, args, stop_at_first_epoch: bool):
    """Set up and run the workload's commands with the hooks installed."""
    spawned_at = float(os.environ.get(SPAWN_VAR, T_MAIN))
    from vnf_lab import baselines, cli, env, harness, nn, pat
    imported = time.monotonic()
    tracer = hooks.Tracer() if args.trace else None
    if tracer:
        tracer.install(env, nn, pat, baselines)
    recorder = hooks.Recorder(stop_at_first_epoch, tracer)
    recorder.install(env, pat, baselines, harness)

    config = _config_path(args)
    calls = []
    entered = time.monotonic()
    seeds = workload.program_seeds(args.seed, args.round)
    for program_seed in seeds:
        out = os.path.join(args.dir, f"out-{program_seed}")
        try:
            rc = cli.main(workload.argv(config, out, program_seed))
        except hooks.StopAtFirstEpoch:
            break
        end = time.perf_counter()
        if rc != 0:
            raise RuntimeError(f"vnf-lab exited {rc} for seed {program_seed}")
        calls.append({"seed": program_seed,
                      "outputs_s": end - recorder.last_epoch_end})
    finished, finished_pc = time.monotonic(), time.perf_counter()
    speed = recorder.speed
    speed.scale_epochs(recorder.epochs)
    f_py, f_learn = speed.round_factors()
    report = {
        "setup_s": recorder.first_epoch_at - spawned_at,
        "setup_scaled_s": (recorder.first_epoch_at - spawned_at) * speed.setup_factor(),
        "import_s": (imported - T_MAIN) * f_py,
        "build_s": (recorder.first_epoch_at - entered) * f_py,
        "loop_s": finished - recorder.first_epoch_at,
        "loop_scaled_s": speed.scaled_span(recorder.loop_start, finished_pc, recorder.epochs),
        "kernel_s": [s[3] for s in speed.samples],
        "requests": sum(e["requests"] for e in recorder.epochs),
        "seeds": seeds,
        "epochs": recorder.epochs,
        "calls": [{**c, "outputs_s": c["outputs_s"] * f_py} for c in calls],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "threads": _threads(),
    }
    if tracer:
        tracer.scale = (f_py, f_learn)
        report["layers"] = layer_metrics(tracer, recorder, report)
    return report


def layer_metrics(tracer: hooks.Tracer, recorder: hooks.Recorder, report: dict) -> dict:
    """Per-layer figures of one traced round."""
    t = tracer
    requests = max(report["requests"], 1)
    closed = [e for e in recorder.epochs if e["dur"] is not None]
    learning = [e for e in closed if e["trained"]]
    updates = max(t.pat_updates, 1)

    def share(part, whole):
        return part / whole if whole else 0.0

    return {
        "env.advance_epoch.self_us": t.median_us("env.advance_epoch", self_time=True),
        "env.encode_state.us": t.median_us("env.encode_state"),
        "env.encode_state.per_request": t.calls("env.encode_state") / requests,
        "env.apply_action.self_us": t.median_us("env.apply_action", self_time=True),
        "env.cost_components.us": t.median_us("env.cost_components"),
        "env.cost_components.per_request": t.calls("env.cost_components") / requests,
        "env.infeasible_share": share(t.infeasible, t.calls("env.apply_action")),
        "pat.train_step.ms": t.median_us("pat.train_step") / 1e3,
        "pat.compute_targets.ms": t.median_us("pat.compute_targets") / 1e3,
        "pat.update_critics.ms": t.median_us("pat.update_critics") / 1e3,
        "pat.update_actors.ms": t.median_us("pat.update_actors") / 1e3,
        "pat.soft_update.ms": t.total("nn.soft_update") * 1e3 / updates,
        "pat.replay_sample.us": t.median_us("pat.replay_sample"),
        "pat.learning_epoch_share": share(sum(e["train_s"] for e in learning),
                                          sum(e["dur"] for e in learning)),
        "pat.select.explore_us": t.median_us("pat.select.explore"),
        "pat.select.eval_us": t.median_us("pat.select.eval"),
        "pat.store.us": t.median_us("pat.store"),
        "nn.forward.b1_us": t.median_us("nn.forward.b1"),
        "nn.forward.b128_us": t.median_us("nn.forward.b128"),
        "nn.backward.b128_us": t.median_us("nn.backward.b128"),
        "nn.adam_step.us": t.median_us("nn.adam_step"),
        "nn.calls_per_train_step": share(t.nn_calls_in_updates, t.pat_updates),
        "baselines.greedy.select_us": t.median_us("baselines.greedy.select"),
        "baselines.cloud.select_us": t.median_us("baselines.cloud.select"),
        "baselines.random.select_us": t.median_us("baselines.random.select"),
        "baselines.ddqn.select_us": t.median_us("baselines.ddqn.select"),
        "baselines.ddpg.select_us": t.median_us("baselines.ddpg.select"),
        "harness.setup.import_s": report["import_s"],
        "harness.setup.build_ms": report["build_s"] * 1e3,
        "harness.loop.self_us": (statistics.median(e["dur"] - e["covered"] for e in closed)
                                 * 1e6 * t.scale[0] if closed else 0.0),
        "harness.outputs.ms": statistics.median(c["outputs_s"] for c in report["calls"]) * 1e3,
        "trace.coverage_pct": 100.0 * share(sum(e["covered"] for e in closed),
                                            sum(e["dur"] for e in closed)),
    }


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def verify_round(workload, seeds: list, cfg: dict, round_dir: str, epochs: list,
                 where: str):
    """Checks on one round's outputs; returns (failures, {seed: digest})."""
    failures, digests = [], {}
    vnfs, traffic, agent = cfg["vnfs"], cfg["traffic"], cfg["agent"]
    total, evals = cfg["run"]["total_epochs"], max(cfg["run"]["eval_epochs"], 1)
    for ps in seeds:
        here = f"{where} seed {ps}"
        out = os.path.join(round_dir, f"out-{ps}")
        mine = [e for e in epochs if e["seed"] == ps]
        trace_train = oracle.request_counts(ps, 0, total, vnfs, traffic)
        trace_eval = oracle.request_counts(ps, 1, evals, vnfs, traffic)
        if workload.command == "train":
            path = os.path.join(out, "metrics.csv")
            with open(path) as fh:
                rows, found = checks.parse_metrics_csv(fh.read(), total, here)
            failures += found + checks.check_ranges(rows, here)
            train = [e for e in mine if e["stream"] == 0]
            failures += checks.check_requests([e["requests"] for e in train],
                                              trace_train, here + " training")
            failures += checks.check_requests(
                [e["requests"] for e in mine if e["stream"] == 1], trace_eval,
                here + " evaluation")
            failures += checks.check_schedule(rows, [e["trained"] for e in train],
                                              oracle.schedule(trace_train, agent), here)
            digests[ps] = _sha256(path)
        else:
            path = os.path.join(out, "compare_long.csv")
            with open(path) as fh:
                long_rows = checks.parse_long_csv(fh.read())
            for (name, _), series in long_rows.items():
                rows = [dict(zip(series, vals)) for vals in zip(*series.values())]
                if len(rows) != evals:
                    failures.append(f"{here}: {name} has {len(rows)} epochs in compare_long")
                failures += checks.check_ranges(rows, f"{here} {name}")
            seen = {}
            for e in mine:
                seen.setdefault((e["agent"], e["stream"]), []).append(e)
            evaluated = {a: [e["requests"] for e in seen.get((a, 1), [])]
                         for a in workload.agents}
            failures += checks.check_same_requests(evaluated, here)
            failures += checks.check_requests(evaluated[workload.agents[0]], trace_eval,
                                              here + " evaluation")
            for name in LEARNERS:
                failures += checks.check_requests(
                    [e["requests"] for e in seen.get((name, 0), [])], trace_train,
                    f"{here} {name} training")
            failures += checks.check_no_updates([e["trained"] for e in mine], here)
            failures += checks.check_cloud_agent(
                long_rows, [e["users"] for e in seen.get(("cloud", 1), [])], here)
            with open(os.path.join(out, "compare_kpis.csv")) as fh:
                failures += checks.check_compare_kpis(fh.read(), long_rows, here)
            digests[ps] = _sha256(path)
    return failures, digests


def oracle_epochs(workload, cfg_doc: dict, config_path: str, checkpoint_dir: str,
                  program_seed: int) -> list:
    """Drive evaluation epochs with kept snapshots and compare each epoch's
    reported figures with the oracle's, for several agents."""
    import dataclasses
    from vnf_lab import harness, pat

    cfg = harness.load_config(config_path)
    agents = {}
    # greedy is left out: it allocates exactly at the QoS band's lower edge,
    # where the program's QoS rounds below qos_min on some seeds (CHANGES.md)
    for kind in ("random", "cloud", "pat"):
        acfg = dataclasses.replace(cfg, agent=harness.default_agent_config(kind))
        agents[kind] = harness.build_agent(acfg, harness.build_env(acfg, program_seed, 1),
                                           program_seed)
    if workload.command == "train":
        ckpt = os.path.join(checkpoint_dir, f"out-{program_seed}", "checkpoint.npz")
        agents["pat-trained"] = pat.PatAgent.load(ckpt, seed=program_seed)
    pool, costs, specs = cfg_doc["pool"], cfg_doc["costs"], cfg_doc["vnfs"]
    failures = []
    for kind, agent in agents.items():
        if hasattr(agent, "set_eval"):
            agent.set_eval(True)
        sim = harness.build_env(cfg, program_seed, stream=1)
        for _ in range(ORACLE_EPOCHS):
            summary = sim.advance_epoch(agent.select, keep_snapshot=True)
            state, rate = summary.snapshot
            snap = {"cpu": state.cpu.tolist(), "mem": state.mem.tolist(),
                    "users": state.users.tolist(), "cpu_prev": state.cpu_prev.tolist(),
                    "mem_prev": state.mem_prev.tolist(),
                    "server_active_prev": state.server_active_prev.tolist()}
            expected = oracle.epoch_figures(snap, rate, specs, costs,
                                            pool["rho_max"], pool["eta_max"])
            m = summary.metrics
            failures += checks.check_oracle(
                {key: getattr(m, key) for key in expected}, expected,
                f"oracle {kind} seed {program_seed} epoch {m.epoch}")
    return failures


def verify(workload, args):
    run_dir = os.path.dirname(os.path.abspath(args.dir))
    config_path = _config_path(args)
    with open(config_path) as fh:
        cfg = json.load(fh)
    failures, digests, checked = [], {}, []
    for name in sorted(d for d in os.listdir(run_dir) if d.startswith("round-")):
        round_dir = os.path.join(run_dir, name)
        try:
            with open(os.path.join(round_dir, "report.json")) as fh:
                report = json.load(fh)
        except (OSError, ValueError):
            continue  # a failed round is counted by run.py
        found, seen = verify_round(workload, report["seeds"], cfg, round_dir,
                                   report["epochs"], name)
        failures += found
        checked.append((round_dir, report["seeds"]))
        for ps, digest in seen.items():
            digests.setdefault(ps, []).append(digest)
    # rounds that share seeds (a traced round and its untraced pair) must agree
    for ps, seen in digests.items():
        failures += checks.check_digests(seen, f"seed {ps}")
    if checked:
        round_dir, seeds = checked[0]
        for ps in seeds:
            failures += oracle_epochs(workload, cfg, config_path, round_dir, ps)
    _write(args.dir, {"failures": failures,
                      "digests": {str(ps): d[0] for ps, d in digests.items()}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("step", choices=("prepare", "setup", "round", "verify"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", type=int, default=0, help="selects the program seeds")
    args = parser.parse_args(argv)
    os.makedirs(args.dir, exist_ok=True)
    workload = WORKLOADS[args.workload]
    if args.step == "prepare":
        prepare(workload, args)
    elif args.step == "verify":
        verify(workload, args)
    else:
        _write(args.dir, run_commands(workload, args, args.step == "setup"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
