"""The benchmark's workloads: which command each runs, at which scale, and
how the benchmark seed maps to program seeds.

Every workload starts from the program's exported defaults and changes
only the keys set here, so a change to a default shows in the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

COMPARE_AGENTS = ("pat", "ddqn", "ddpg", "greedy", "cloud", "random")
LEARNERS = ("pat", "ddqn", "ddpg")
# every benchmark process runs numpy with one BLAS/OpenMP thread
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# environment variable carrying a worker's spawn time (time.monotonic())
SPAWN_VAR = "PERFBENCH_SPAWNED_AT"


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # the vnf-lab subcommand
    k_servers: int
    n_vnfs: int
    total_epochs: int     # run.total_epochs (training epochs per command)
    eval_epochs: int      # run.eval_epochs
    agents: tuple = ()    # compare only

    def program_seeds(self, seed: int, round_no: int) -> list:
        """Program seeds of one round: one train command, or two compare
        commands (the CLI's compare takes a single seed). Each round of a
        run draws new traffic, so a run averages over several seeds; round 0
        of the train workloads uses the benchmark seed itself."""
        base = seed + 1000 * round_no
        if self.command == "compare":
            return [2 * base, 2 * base + 1]
        return [base]

    def argv(self, config_path: str, out_dir: str, program_seed: int) -> list:
        argv = [self.command, "--config", config_path, "--out", out_dir,
                "--seed", str(program_seed)]
        if self.agents:
            argv += ["--agents", ",".join(self.agents)]
        return argv

    def timed_epochs(self, epochs: list, key: str = "scaled") -> list:
        """Durations the epoch percentiles are taken over: learning epochs
        (a train_step updated) for train, every epoch for compare."""
        return [e[key] for e in epochs if e["dur"] is not None
                and (e["trained"] or self.command == "compare")]


WORKLOADS = {w.name: w for w in (
    # 3 x 3 with the learner defaults (warm-up 5000 transitions, batch 128):
    # about 8.8 requests per epoch, so learning starts near epoch 520 and a
    # learning epoch is mostly train_step on tiny matrices.
    Workload("desk-train", "train", 3, 3, total_epochs=1000, eval_epochs=100),
    # default 10 x 10: about 29 requests per epoch, learning from near epoch
    # 160 on 341-wide features.
    Workload("default-train", "train", 10, 10, total_epochs=600, eval_epochs=100),
    # default 10 x 10, six agents; 50 training epochs stay far below every
    # learner's warm-up, so no train_step updates and the time goes to env,
    # batch-1 inference and each agent's select. Short commands give each
    # run several seeds' traffic, since epoch time follows requests per epoch.
    Workload("default-compare", "compare", 10, 10, total_epochs=50, eval_epochs=50,
             agents=COMPARE_AGENTS),
)}


def make_config(defaults: dict, workload: Workload) -> dict:
    """The workload's config document from the exported defaults."""
    doc = dict(defaults)
    doc["pool"] = {**defaults["pool"], "k_servers": workload.k_servers,
                   "n_vnfs": workload.n_vnfs}
    doc["vnfs"] = defaults["vnfs"][:workload.n_vnfs]
    doc["run"] = {**defaults["run"], "total_epochs": workload.total_epochs,
                  "eval_epochs": workload.eval_epochs}
    return doc
