"""Benchmark of vnf-lab's train and compare commands.

python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every step runs in a fresh single-threaded
worker process (worker.py): one to write the workload's config, a few
set-up probes, then whole rounds of the workload's commands until S seconds
have passed, then a check of every round's outputs against properties of
the model and an independent cost oracle.

With --trace 0 the last line of standard output is a JSON object holding
the end-to-end metrics; with --trace 1 rounds alternate untraced and traced
and the object holds the per-layer metrics. The exit code is non-zero when
a check or a round fails. The full result, with machine facts, output
digests and sample counts, goes to perfbench/out/<workload>-seed<N>-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import LEARNERS, SPAWN_VAR, THREAD_VARS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 6          # set-up probes before the rounds; rounds add their own
RUN_LIMIT_S = 170         # a run ends within this, whatever --seconds says


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_step(step: str, args, step_dir: Path, trace: int = 0,
             round_no: int = 0) -> dict | None:
    """One fresh worker process; its report, or None when it failed."""
    step_dir.mkdir(parents=True)
    env = child_env()
    cmd = [sys.executable, str(HERE / "worker.py"), step, "--workload", args.workload,
           "--seed", str(args.seed), "--dir", str(step_dir), "--trace", str(trace),
           "--round", str(round_no)]
    with open(step_dir / "stdout.txt", "w") as out, open(step_dir / "stderr.txt", "w") as err:
        env[SPAWN_VAR] = repr(time.monotonic())
        try:
            proc = subprocess.run(cmd, env=env, stdout=out, stderr=err, cwd=ROOT,
                                  timeout=max(args.deadline - time.monotonic(), 1.0))
        except subprocess.TimeoutExpired:
            print(f"{step} in {step_dir.name}: timed out", file=sys.stderr)
            return None
    if proc.returncode != 0:
        tail = (step_dir / "stderr.txt").read_text().strip().splitlines()[-5:]
        print(f"{step} in {step_dir.name}: exit {proc.returncode}\n  " + "\n  ".join(tail),
              file=sys.stderr)
        return None
    with open(step_dir / "report.json") as fh:
        return json.load(fh)


def planned_epochs(workload, cfg: dict) -> int:
    """Epochs one round attempts."""
    total, evals = cfg["run"]["total_epochs"], max(cfg["run"]["eval_epochs"], 1)
    seeds = len(workload.program_seeds(0, 0))
    if workload.command == "train":
        return seeds * (total + cfg["run"]["eval_epochs"])
    learners = sum(a in LEARNERS for a in workload.agents)
    return seeds * (learners * total + len(workload.agents) * evals)


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload, setups: list, rounds: list, scaled: bool = True) -> dict:
    """The end-to-end metrics, at the reference speed or as measured."""
    timed = [d for r in rounds for d in workload.timed_epochs(
        r["epochs"], "scaled" if scaled else "dur")]
    loop = sum(r["loop_scaled_s" if scaled else "loop_s"] for r in rounds)
    return {
        "setup_s": statistics.median(setups),
        "requests_per_s": sum(r["requests"] for r in rounds) / loop,
        "epoch_ms_p50": statistics.median(timed) * 1e3,
        "epoch_ms_p90": percentile(timed, 90) * 1e3,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }


def per_layer(untraced: list, traced: list) -> dict:
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    # unscaled: the spans' own memory slows the calibration kernel too, so
    # scaling would hide part of the overhead
    per_request = [statistics.median(r["loop_s"] / r["requests"] for r in rs)
                   for rs in (untraced, traced)]
    metrics["trace.overhead_pct"] = 100.0 * (per_request[1] / per_request[0] - 1.0)
    return metrics


def units(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "vnf_lab" / "cli.py").is_file():
        print(f"error: no vnf_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"{tag}-{os.getpid()}"
    try:
        return measure(workload, args, work, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(workload, args, work: Path, tag: str) -> int:
    prepared = run_step("prepare", args, work / "prepare")
    if prepared is None:
        print("error: the workload could not be prepared", file=sys.stderr)
        return 1
    with open(work / "config.json") as fh:
        cfg = json.load(fh)
    probes = [run_step("setup", args, work / f"setup-{i}") for i in range(SETUP_PROBES)]

    rounds, traced_flags = [], []
    begin = time.monotonic()
    while True:
        # a traced round repeats the seeds of the untraced round before it
        n = len(rounds)
        traced = bool(args.trace) and n % 2 == 1
        rounds.append(run_step("round", args, work / f"round-{n:02d}", int(traced),
                               n // 2 if args.trace else n))
        traced_flags.append(traced)
        elapsed = time.monotonic() - begin
        if args.trace and len(rounds) % 2 == 1:
            continue  # finish the untraced/traced pair
        # stop unless one more round (pair, when traced) of the mean length
        # so far would end within a tenth past the window
        step = 2 if args.trace else 1
        if elapsed * (1 + step / len(rounds)) > 1.1 * args.seconds:
            break
    verified = run_step("verify", args, work / "verify")

    done = [r for r in rounds if r is not None]
    per_round = planned_epochs(workload, cfg)
    attempted = per_round * len(rounds)
    failed = per_round * (len(rounds) - len(done))
    failures = list(verified["failures"]) if verified else ["verify step failed"]
    failures += [f"set-up probe {i} failed" for i, p in enumerate(probes) if p is None]

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "rounds": len(rounds), "facts": prepared["facts"],
              "digests": verified["digests"] if verified else {},
              "threads_per_round": [r["threads"] for r in done]}
    untraced = [r for r, t in zip(rounds, traced_flags) if r is not None and not t]
    traced = [r for r, t in zip(rounds, traced_flags) if r is not None and t]
    if not untraced or (args.trace and not traced):
        metrics = {}
    elif args.trace:
        metrics = per_layer(untraced, traced)
        detail.update(traced_rounds=len(traced), untraced_rounds=len(untraced))
    else:
        setups = [p for p in probes[1:] if p] + done
        metrics = end_to_end(workload, [s["setup_scaled_s"] for s in setups], done)
        timed = sum(len(workload.timed_epochs(r["epochs"])) for r in done)
        failures += checks.check_samples(timed, "epoch percentiles")
        loop_s = sum(r["loop_s"] for r in done)
        detail.update(setups=len(setups), timed_epochs=timed,
                      raw=end_to_end(workload, [s["setup_s"] for s in setups], done, False),
                      epochs_per_s=sum(len(r["epochs"]) for r in done) / loop_s,
                      kernel_ms_median=statistics.median(
                          k for r in done for k in r["kernel_s"]) * 1e3)

    section = "per_layer" if args.trace else "end_to_end"
    unit = units(section)
    if metrics and set(metrics) != set(unit):
        raise RuntimeError(f"metrics differ from the {section} list in BENCHMARK.json")
    correct = not failures
    detail["failures"] = failures
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit[k]} for k, v in sorted(metrics.items())}}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({**detail, "result": result}, fh, indent=2)

    facts = prepared["facts"]
    print(f"{tag}: {len(rounds)} rounds, {attempted} epochs attempted, {failed} failed; "
          f"nproc {facts['nproc']}, python {facts['python']}, numpy {facts['numpy']}, "
          f"{facts['blas']}, threads {facts['threads']}, loadavg {facts['loadavg']}")
    for ps, digest in detail["digests"].items():
        print(f"sha256 {'metrics.csv' if workload.command == 'train' else 'compare_long.csv'}"
              f" seed {ps}: {digest}")
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    for name, value in sorted(metrics.items()):
        print(f"{name} {value:.6g} {unit[name]}")
    print(json.dumps(result))
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
