"""PAT's two-lane update: a helper process runs the second critic and the
discrete actor on memory it shares with the learner. The helper and the
inline path give the same bytes, and the helper never outlives its owner."""

import ctypes
import errno
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from vnf_lab import cli, nn, pat
from vnf_lab.pat import DTYPE

from test_pat import N_TARGETS, STATE_DIM, fill_buffer, make_agent, make_learner, random_batch

SRC = os.path.dirname(os.path.dirname(pat.__file__))


def set_cpus(monkeypatch, n: int):
    """The learner sees n CPUs: two forks a helper at the first update, one
    runs the helper's phases inline."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def count_forks(monkeypatch) -> list:
    """The pids of the processes forked from now on, as the parent sees them."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def children() -> set:
    """The pids of this process's children, zombies included (Linux /proc)."""
    found = set()
    for tid in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{tid}/children") as fh:
            found.update(map(int, fh.read().split()))
    return found


def alive(pid: int) -> bool:
    """Whether pid runs: neither gone nor a zombie waiting for its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def adopt_orphans(flag: bool) -> bool:
    """Make this process the reaper of its orphaned descendants (Linux
    PR_SET_CHILD_SUBREAPER), so a test can wait for them; False where it cannot."""
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = (ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong)
    prctl.restype = ctypes.c_int
    return prctl(36, int(flag), 0, 0, 0) == 0


def reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def trained_learner(kind="pat", seed=40):
    """A learner past its warm-up after one update."""
    agent = make_learner(kind, seed)
    fill_buffer(agent, np.random.default_rng(seed + 1), 8)
    assert agent.train_step()["trained"]
    return agent


DESK = {"pool": {"k_servers": 3, "n_vnfs": 3},
        "agent": {"kind": "pat", "warmup_size": 300, "batch_size": 32},
        "run": {"seed": 11, "total_epochs": 300, "eval_epochs": 20}}


@pytest.mark.parametrize("kind", ["pat", "ddqn", "ddpg"])
def test_helper_and_inline_runs_write_the_same_bytes(kind, tmp_path, monkeypatch):
    """A desk train run past its warm-up writes the same metrics.csv and
    eval KPIs, and the same bytes of every checkpoint array, Adam step counts
    included, whether PAT's helper phases run in a forked process or inline.
    Only PAT forks, once per run."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**DESK, "agent": {**DESK["agent"], "kind": kind}}))
    got = {}
    for cpus in (2, 1):
        set_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        out = tmp_path / f"cpus{cpus}"
        assert cli.main(["train", "--config", str(path), "--out", str(out), "--quiet"]) == 0
        assert len(forks) == (kind == "pat" and cpus == 2)
        with np.load(out / "checkpoint.npz") as data:
            arrays = {key: (data[key].dtype, data[key].shape, data[key].tobytes())
                      for key in data.files}
        got[cpus] = ((out / "metrics.csv").read_bytes(), (out / "summary.json").read_bytes(),
                     arrays)
    assert got[2] == got[1]
    steps = [key for key in got[1][2] if key.endswith(".t")]
    assert steps and all(int.from_bytes(got[1][2][key][2], "little") > 0 for key in steps)


class TestLifecycle:
    def test_train_leaves_no_child_process(self, tmp_path, monkeypatch):
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        before = children()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**DESK, "agent": {**DESK["agent"], "warmup_size": 64},
                                    "run": {"seed": 3, "total_epochs": 40, "eval_epochs": 2}}))
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run"),
                         "--quiet"]) == 0
        assert len(forks) == 1 and reaped(forks[0])
        assert children() == before

    def test_close_twice_is_a_no_op_and_a_later_update_forks_again(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        agent = trained_learner()
        assert len(forks) == 1 and alive(forks[0])
        agent.close()
        assert reaped(forks[0]) and not alive(forks[0])
        agent.close()
        assert agent.train_step()["trained"]
        assert len(forks) == 2 and alive(forks[1])
        agent.close()
        assert reaped(forks[1])

    def test_a_dropped_learner_reaps_its_helper(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        agent = trained_learner()
        del agent
        assert len(forks) == 1 and reaped(forks[0])

    def test_close_returns_where_sigchld_is_ignored(self, monkeypatch):
        """A process that ignores SIGCHLD has its children reaped by the
        kernel; close() takes the helper as reaped, and no child is left."""
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        before = children()
        handler = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            agent = trained_learner()
            assert len(forks) == 1
            agent.close()
        finally:
            signal.signal(signal.SIGCHLD, handler)
        assert agent._helper is None and children() == before

    def test_the_helper_exits_when_its_owner_is_killed(self):
        """SIGKILL gives the owner no chance to close the pipe; the helper
        reads EOF and exits within 5 s. This process adopts the orphaned
        helper, so it reaps it and leaves no zombie behind."""
        script = (
            "import os\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "import numpy as np\n"
            "from test_pat import fill_buffer, make_learner\n"
            "agent = make_learner('pat', 40)\n"
            "fill_buffer(agent, np.random.default_rng(41), 8)\n"
            "agent.train_step()\n"
            "print(agent._helper.pid, flush=True)\n"
            "while True:\n"
            "    agent.train_step()\n")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [SRC, os.path.dirname(os.path.abspath(__file__)), os.environ.get("PYTHONPATH", "")])}
        adopted = adopt_orphans(True)
        try:
            owner = subprocess.Popen([sys.executable, "-c", script], stdout=subprocess.PIPE,
                                     text=True, env=env)
            try:
                helper = int(owner.stdout.readline())
                assert alive(helper)
                time.sleep(0.2)  # mid-training
            finally:
                owner.send_signal(signal.SIGKILL)
                owner.wait()
                owner.stdout.close()
            deadline = time.monotonic() + 5.0
            while (not reaped(helper) if adopted else alive(helper)) \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not alive(helper)
        finally:
            adopt_orphans(False)


class TestHelperErrors:
    @pytest.mark.parametrize("cpus", [2, 1])
    def test_nan_second_critic_stops_training_naming_its_loss(self, cpus, monkeypatch):
        set_cpus(monkeypatch, cpus)
        agent = trained_learner()
        agent.critic_2.weights[0][0, 0] = np.nan
        with pytest.raises(FloatingPointError, match=r"^pat update 2: critic_loss_2 is nan$"):
            agent.train_step()
        assert agent.updates == 2
        agent.close()

    def test_a_helper_error_is_raised_with_its_type_naming_the_update(self, monkeypatch):
        """The helper's error keeps its builtin type and names the update; the
        helper is stopped, and the next update forks a new one."""
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        agent = trained_learner()

        def broken(self):
            raise ValueError("no second critic today")

        monkeypatch.setattr(pat.PatAgent, "_fit_critic_2", broken)
        agent.close()  # the next helper is forked with the broken phase
        with pytest.raises(ValueError, match=r"^pat update 2: no second critic today$"):
            agent.train_step()
        assert agent._helper is None and reaped(forks[-1])

    def test_a_helper_that_died_is_reported_naming_the_update(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        agent = trained_learner()
        os.kill(agent._helper.pid, signal.SIGKILL)
        with pytest.raises(RuntimeError, match=r"^pat update 2: the helper process \d+ exited$"):
            agent.train_step()
        assert agent._helper is None

    def test_a_helper_gone_before_the_update_is_reported_naming_the_update(self, monkeypatch):
        """The helper's pipe ends are closed before the update writes to it:
        the lost commands are not raised, the exit is."""
        set_cpus(monkeypatch, 2)
        agent = trained_learner()
        pid = agent._helper.pid
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while alive(pid) and time.monotonic() < deadline:  # a zombie holds no pipe end
            time.sleep(0.01)
        with pytest.raises(RuntimeError, match=rf"^pat update 2: the helper process {pid} exited$"):
            agent.train_step()
        assert agent._helper is None and reaped(pid)

    def test_an_interrupted_wait_stops_the_helper(self, monkeypatch):
        """Ctrl-C while the learner waits for a reply: the helper is stopped,
        so its unread reply cannot answer a later update's phase."""
        set_cpus(monkeypatch, 2)
        forks = count_forks(monkeypatch)
        agent = trained_learner()

        def interrupted(self):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(pat.Helper, "wait", interrupted)
            with pytest.raises(KeyboardInterrupt):
                agent.train_step()
        assert agent._helper is None and reaped(forks[0])
        assert agent.train_step()["trained"] and len(forks) == 2
        agent.close()


class TestFailedFork:
    def test_a_failed_fork_runs_the_phases_inline_and_closes_its_pipes(
            self, tmp_path, monkeypatch):
        """A fork that raises (EAGAIN, as at a process limit) leaves no pipe
        end open and the run goes on inline: a desk train on two CPUs writes
        the bytes of the run on one CPU."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**DESK, "agent": {**DESK["agent"], "warmup_size": 64},
                                    "run": {"seed": 3, "total_epochs": 40, "eval_epochs": 2}}))
        set_cpus(monkeypatch, 1)
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "cpus1"),
                         "--quiet"]) == 0
        tries = []

        def failing():
            tries.append(1)
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

        set_cpus(monkeypatch, 2)
        monkeypatch.setattr(os, "fork", failing)
        fds = len(os.listdir("/proc/self/fd"))
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "failed"),
                         "--quiet"]) == 0
        assert tries and len(os.listdir("/proc/self/fd")) == fds
        for name in ("metrics.csv", "summary.json", "checkpoint.npz"):
            assert (tmp_path / "failed" / name).read_bytes() == \
                (tmp_path / "cpus1" / name).read_bytes(), name


class TestPolling:
    def test_a_polling_lane_yields_its_cpu(self, monkeypatch):
        """A lane that polls its empty pipe lets waiting processes run, so two
        trainings on two CPUs do not spin four processes on them."""
        yields = []
        monkeypatch.setattr(os, "sched_yield", lambda: yields.append(1))
        r, w = os.pipe()
        os.set_blocking(r, False)
        writer = threading.Timer(0.05, os.write, (w, b"x"))
        writer.start()
        try:
            assert pat._receive(r, 1) == b"x"
        finally:
            writer.join(5.0)
            os.close(r)
            os.close(w)
        assert not writer.is_alive() and yields


class TestTwoLanes:
    def test_one_cpu_or_no_fork_runs_the_phases_inline(self, monkeypatch):
        set_cpus(monkeypatch, 2)
        assert pat.two_lanes()
        set_cpus(monkeypatch, 1)
        assert not pat.two_lanes()
        set_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        assert not pat.two_lanes()
        agent = trained_learner()
        assert agent._helper is None


class TestSharedBuffers:
    def test_nets_and_optimizers_live_in_the_given_buffer(self):
        sizes = (5, 4, 2)
        buf = pat.shared_buffers([4096])[0]
        net = nn.Mlp(sizes, dtype=DTYPE, buffer=buf)
        assert not net.params.any() and np.shares_memory(net.params, np.frombuffer(buf, DTYPE))
        net.weights[0][1, 2] = 3.0
        assert np.frombuffer(buf, DTYPE)[1 * 5 + 2] == 3.0
        plain = nn.Mlp(sizes, dtype=DTYPE)
        abuf = pat.shared_buffers([nn.AdamState.nbytes(plain)])[0]
        adam = nn.AdamState(plain, buffer=abuf)
        adam.step(plain, np.ones_like(plain.params))
        assert adam.t == 1 and np.frombuffer(abuf, np.int64)[-1] == 1
        assert np.shares_memory(adam.m, np.frombuffer(abuf, DTYPE))

    def test_a_forked_process_writes_what_the_owner_reads(self):
        a, b = pat.shared_buffers([24, 100])
        assert len(a) == 24 and len(b) == 100
        x = np.frombuffer(b, np.float64, 12)
        pid = os.fork()
        if pid == 0:
            try:
                x[:] = 7.0
            finally:
                os._exit(0)
        os.waitpid(pid, 0)
        assert (x == 7.0).all()


def mapping(arr):
    """The mmap under an array cut from shared_buffers."""
    while isinstance(arr, np.ndarray):
        arr = arr.base
    return arr.obj


def moving_parts(agent) -> tuple:
    """The bytes of every net's params and every optimizer's step count."""
    return ({name: getattr(agent, name).params.tobytes() for name in agent._NETS},
            {name: getattr(agent, name).t for name in agent._ADAMS})


class TestLane:
    """PAT's lanes exchange four arrays of cfg.batch_size rows, cut at build
    from the mapping that holds the nets."""

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_lane_arrays_are_made_at_build_and_no_helper_before_the_first_update(
            self, cpus, monkeypatch):
        set_cpus(monkeypatch, cpus)
        forks = count_forks(monkeypatch)
        cuts = []
        monkeypatch.setattr(pat, "shared_buffers",
                            lambda sizes, cut=pat.shared_buffers: cuts.append(sizes) or cut(sizes))
        agent = make_agent(seed=50, batch_size=5)
        width = STATE_DIM + N_TARGETS + 2
        lane = dict(agent._lane)
        assert {name: (arr.shape, arr.dtype) for name, arr in lane.items()} == {
            "xc": ((5, width), DTYPE), "q2": ((5,), DTYPE), "y": ((5,), DTYPE),
            "loss_2": ((1,), DTYPE)}
        assert all(mapping(arr) is mapping(agent.critic_1.params) for arr in lane.values())
        rng = np.random.default_rng(51)
        fill_buffer(agent, rng, 7)
        assert not agent.train_step()["trained"] and forks == []
        fill_buffer(agent, rng, 1)
        assert agent.train_step()["trained"] and len(forks) == (cpus == 2)
        assert all(agent._lane[name] is arr for name, arr in lane.items())
        assert len(cuts) == 1
        agent.close()

    @pytest.mark.parametrize("cpus", [2, 1])
    def test_actors_alone_step_as_after_the_targets(self, cpus, monkeypatch):
        """update_actors writes its own critic input, so the softmax ascent
        never reads the next-state input that compute_targets left in xc."""
        set_cpus(monkeypatch, cpus)
        batch = random_batch(np.random.default_rng(52))
        after_targets, alone = make_learner("pat", 53), make_learner("pat", 53)
        after_targets.compute_targets(batch)
        for agent in (after_targets, alone):
            agent.update_actors(batch)
            agent.close()
        got = [{name: getattr(agent, name).params.tobytes()
                for name in ("actor_action", "actor_param")} for agent in (after_targets, alone)]
        assert got[0] == got[1]
        assert got[1]["actor_action"] != make_learner("pat", 53).actor_action.params.tobytes()

    @pytest.mark.parametrize("cpus", [2, 1])
    @pytest.mark.parametrize("rows", [7, 9])
    def test_a_batch_of_other_rows_moves_nothing(self, cpus, rows, monkeypatch):
        set_cpus(monkeypatch, cpus)
        agent = trained_learner()
        before = moving_parts(agent)
        batch = random_batch(np.random.default_rng(54), rows)
        for update in (lambda: agent.compute_targets(batch),
                       lambda: agent.update_critics(batch, np.zeros(rows, DTYPE)),
                       lambda: agent.update_actors(batch)):
            with pytest.raises(ValueError):
                update()
            assert moving_parts(agent) == before
        assert agent.train_step()["trained"]
        agent.close()
