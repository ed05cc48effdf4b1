"""Self-test of the benchmark's checks: each must pass on a correct output
and fail on a wrong one.

python3 perfbench/selftest.py      (from the repository root, a few seconds)

Small desk-scale train and compare runs produce real outputs; the checks
must find nothing in them. Then each check is fed one wrong output and
must report it: costs perturbed by one part in a million, a skipped
train_step, a missing, renamed, non-finite or out-of-range row, an epoch
that served one request too few, changed bytes between rounds, a compare
table that disagrees with its long table, and the rest. Exits 1 when a
correct output fails a check or a wrong one passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import worker  # noqa: E402  (first: it pins BLAS threads before numpy loads)
import checks  # noqa: E402
import hooks  # noqa: E402
import oracle  # noqa: E402
from workloads import COMPARE_AGENTS, Workload, make_config  # noqa: E402

SEED = 3
# desk scale with a small warm-up, so a few dozen epochs include learning
TRAIN = Workload("selftest-train", "train", 3, 3, total_epochs=80, eval_epochs=10)
COMPARE = Workload("selftest-compare", "compare", 3, 3, total_epochs=20, eval_epochs=10,
                   agents=COMPARE_AGENTS)
AGENT = {"warmup_size": 300, "batch_size": 16, "buffer_capacity": 5000}


class SelfTest:
    def __init__(self, root: Path):
        from vnf_lab import baselines, cli, env, harness, pat
        self.cli, self.env, self.pat, self.harness = cli, env, pat, harness
        self.recorder = hooks.Recorder()
        self.recorder.install(env, pat, baselines, harness)
        self.root = root
        self.failed = []

    def config(self, workload: Workload) -> tuple:
        doc = make_config(json.loads(self.harness.export_defaults()), workload)
        doc["agent"].update(AGENT)
        path = self.root / f"{workload.name}.json"
        path.write_text(json.dumps(doc))
        return doc, str(path)

    def run(self, workload: Workload, name: str) -> tuple:
        """One round of the workload into root/name; (round dir, epochs)."""
        _, path = self.config(workload)
        round_dir = self.root / name
        self.recorder.epochs = []
        with contextlib.redirect_stdout(io.StringIO()):
            for ps in workload.program_seeds(SEED, 0):
                rc = self.cli.main(workload.argv(path, str(round_dir / f"out-{ps}"), ps))
                if rc != 0:
                    raise RuntimeError(f"{workload.name}: vnf-lab exited {rc}")
        return round_dir, list(self.recorder.epochs)

    def verify(self, workload: Workload, round_dir: Path, epochs: list) -> list:
        doc, _ = self.config(workload)
        failures, _ = worker.verify_round(workload, workload.program_seeds(SEED, 0), doc,
                                          str(round_dir), epochs, "round")
        return failures

    def oracle(self, workload: Workload, round_dir: Path) -> list:
        doc, path = self.config(workload)
        return [f for ps in workload.program_seeds(SEED, 0)
                for f in worker.oracle_epochs(workload, doc, path, str(round_dir), ps)]

    def expect(self, label: str, failures: list, wrong: bool):
        ok = bool(failures) == wrong
        verdict = "caught" if wrong else "clean"
        print(f"{'ok ' if ok else 'BAD'} {label}: {verdict if ok else failures or 'not caught'}"
              + (f" ({failures[0]})" if ok and wrong else ""))
        if not ok:
            self.failed.append(label)


def patched(owner, attr, replacement):
    """Context manager that swaps owner.attr for the duration of a block."""
    class _Swap:
        def __enter__(self):
            self.saved = getattr(owner, attr)
            setattr(owner, attr, replacement(self.saved))

        def __exit__(self, *exc):
            setattr(owner, attr, self.saved)
    return _Swap()


def skip_one_update(train_step):
    calls = []

    def skipping(agent):
        if agent.buffer.size >= agent.cfg.warmup_size and not calls:
            calls.append(1)
            return {"trained": False, "eps": agent.eps, "clip_c": agent.clip_c}
        return train_step(agent)
    return skipping


def perturb_costs(cost_components):
    def perturbed(*args, **kwargs):
        lat, fin, sla, num = cost_components(*args, **kwargs)
        return lat, fin, sla, num * (1.0 + 1e-6)
    return perturbed


def main() -> int:
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        t = SelfTest(Path(tmp))
        train_dir, train_epochs = t.run(TRAIN, "train")
        t.expect("train outputs", t.verify(TRAIN, train_dir, train_epochs), wrong=False)
        t.expect("cost oracle on train", t.oracle(TRAIN, train_dir), wrong=False)
        compare_dir, compare_epochs = t.run(COMPARE, "compare")
        t.expect("compare outputs", t.verify(COMPARE, compare_dir, compare_epochs),
                 wrong=False)
        t.expect("cost oracle on compare", t.oracle(COMPARE, compare_dir), wrong=False)

        with patched(t.pat.PatAgent, "train_step", skip_one_update):
            skip_dir, skip_epochs = t.run(TRAIN, "skipped")
        t.expect("skipped train_step", t.verify(TRAIN, skip_dir, skip_epochs), wrong=True)
        with patched(t.env, "cost_components", perturb_costs):
            t.expect("costs perturbed by 1e-6", t.oracle(TRAIN, train_dir), wrong=True)

        csv_text = (train_dir / f"out-{SEED}" / "metrics.csv").read_text()
        lines = csv_text.splitlines()
        rows, _ = checks.parse_metrics_csv(csv_text, TRAIN.total_epochs, "m")
        wrong_csv = {
            "renamed column": "\n".join([lines[0].replace("eps", "epsilon")] + lines[1:]),
            "missing row": "\n".join(lines[:-1]),
            "non-finite row": "\n".join(lines[:5] + [lines[5].replace(
                lines[5].split(",")[1], "nan", 1)] + lines[6:]),
        }
        for label, text in wrong_csv.items():
            t.expect(label, checks.parse_metrics_csv(text, TRAIN.total_epochs, "m")[1],
                     wrong=True)
        for key, value in (("cpu_util", 1.5), ("cloud_fraction", -0.01),
                           ("mean_reward", -1.01)):
            t.expect(f"{key}={value}", checks.check_ranges(
                rows[:3] + [{**rows[3], key: value}], "m"), wrong=True)

        served = [e["requests"] for e in train_epochs if e["stream"] == 0]
        short = served[:7] + [served[7] - 1] + served[8:]
        doc, _ = t.config(TRAIN)
        trace = oracle.request_counts(SEED, 0, TRAIN.total_epochs, doc["vnfs"], doc["traffic"])
        t.expect("one request short", checks.check_requests(short, trace, "m"), wrong=True)
        plan = oracle.schedule(trace, doc["agent"])
        trained = [e["trained"] for e in train_epochs if e["stream"] == 0]
        t.expect("extra update", checks.check_schedule(
            rows, [True] + trained[1:], plan, "m"), wrong=True)

        changed = csv_text.replace(lines[9], lines[9][:-1] + "7" if lines[9][-1] != "7"
                                   else lines[9][:-1] + "3")
        (skip_dir / f"out-{SEED}" / "metrics.csv").write_text(changed)
        t.expect("bytes differ between rounds", checks.check_digests(
            [worker._sha256(str(d / f"out-{SEED}" / "metrics.csv"))
             for d in (train_dir, skip_dir)], "m"), wrong=True)

        ps = COMPARE.program_seeds(SEED, 0)[0]
        out = compare_dir / f"out-{ps}"
        long_rows = checks.parse_long_csv((out / "compare_long.csv").read_text())
        kpis = (out / "compare_kpis.csv").read_text()
        cloud = [e for e in compare_epochs if e["seed"] == ps and e["agent"] == "cloud"]
        users = [e["users"] for e in cloud]
        per_agent = {a: [e["requests"] for e in compare_epochs
                         if e["seed"] == ps and e["agent"] == a and e["stream"] == 1]
                     for a in COMPARE.agents}
        t.expect("agents saw different traffic", checks.check_same_requests(
            {**per_agent, "random": per_agent["random"][:-1] + [0]}, "m"), wrong=True)
        series = long_rows[("cloud", ps)]
        bad_cloud = {**long_rows, ("cloud", ps): {**series, "cloud_fraction":
                                                  [0.99] + series["cloud_fraction"][1:]}}
        t.expect("cloud agent kept a user", checks.check_cloud_agent(bad_cloud, users, "m"),
                 wrong=True)
        kpi_lines = kpis.splitlines()
        agent, kpi, mean, std = kpi_lines[1].split(",")
        bad_kpis = "\n".join([kpi_lines[0], f"{agent},{kpi},{float(mean) * (1 + 1e-6):.9g},"
                              f"{std}"] + kpi_lines[2:])
        t.expect("compare_kpis mean off by 1e-6", checks.check_compare_kpis(
            bad_kpis, long_rows, "m"), wrong=True)
        t.expect("update during compare", checks.check_no_updates([False, True], "m"),
                 wrong=True)
        t.expect("99 timed epochs", checks.check_samples(99, "m"), wrong=True)

    print("self-test " + ("passed" if not t.failed else f"FAILED: {', '.join(t.failed)}"))
    return 1 if t.failed else 0


if __name__ == "__main__":
    sys.exit(main())
