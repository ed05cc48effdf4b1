"""Speed calibration: scales measured times to a reference machine speed.

The benchmark's host is a shared 2-CPU VM whose speed drifts by up to 2x:
the same loop runs fast for a second and slow the next, and whole minutes
can run slow. Steal time does not show it and CPU time moves with wall
time, so no process clock removes it. Unscaled, the epoch median of
identical code moved by 20-50 % between runs minutes apart.

So each round runs a fixed kernel, independent of the program, between
epochs every INTERVAL_S seconds. It has two timed parts: interpreter work
(calls, dict reads, float arithmetic, like the simulator's Python) and one
dense-layer pass on batch-sized arrays (like the learner's numpy). Time in
train_step is scaled by the whole kernel's speed, all other time by the
interpreter part's: each stretch of wall time is multiplied by
REFERENCE_S / (median of the four kernel samples nearest to it). A figure
then reads as the time on a machine where the kernel takes REFERENCE_S.
Kernel time itself is never counted, and the raw figures are kept in the
run's detail file.

Changing the kernel or REFERENCE_S changes every scaled figure: do it only
in a change of its own, never in one that claims a speed-up.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# seconds of (interpreter part, whole kernel) at the reference speed
REFERENCE_S = (0.0003, 0.001)
INTERVAL_S = 0.1       # wall time between kernel runs
_X = np.linspace(-1.0, 1.0, 96 * 354).reshape(96, 354)
_W = np.linspace(1.0, -1.0, 128 * 354).reshape(128, 354) / 354.0
_BAND = {"c0": 1.0, "cr": 4.0, "dc": 2.0, "m0": 2.0, "mr": 3.0, "dm": 2.0,
         "lo": 27.0, "hi": 63.0}


def _blend(band: dict, u: int, c: float, m: float) -> float:
    c_low = band["c0"] + (band["cr"] - band["dc"]) * u
    c_up = band["c0"] + (band["cr"] + band["dc"]) * u
    m_low = band["m0"] + (band["mr"] - band["dm"]) * u
    m_up = band["m0"] + (band["mr"] + band["dm"]) * u
    if c > c_up and m > m_up:
        return band["hi"]
    if c < c_low or m < m_low:
        return 0.0
    t = (min(c, c_up) + min(m, m_up) - c_low - m_low) / (c_up + m_up - c_low - m_low)
    return band["lo"] + (band["hi"] - band["lo"]) * t


def _interpreter_part() -> float:
    total = 0.0
    for i in range(400):
        total += _blend(_BAND, 1 + i % 5, 3.0 + i % 7, 4.0 + i % 3)
    return total


def _numpy_part() -> float:
    h = _X @ _W.T
    h = np.where(h >= 0, h, 0.01 * h)
    return float((h @ _W)[0, 0])


class SpeedProbe:
    """Kernel samples of one process and the scaling they imply."""

    def __init__(self):
        # (start, end, interpreter-part seconds, whole-kernel seconds)
        self.samples = []

    def sample(self, repeats: int = 1):
        """Run the kernel; several repeats count as one sample, their median."""
        start = time.perf_counter()
        parts = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            _interpreter_part()
            t1 = time.perf_counter()
            _numpy_part()
            parts.append((t1 - t0, time.perf_counter() - t0))
        self.samples.append((start, time.perf_counter(),
                             statistics.median(p[0] for p in parts),
                             statistics.median(p[1] for p in parts)))

    def due(self, now: float) -> bool:
        return not self.samples or now - self.samples[-1][1] >= INTERVAL_S

    def _factors(self, i: int) -> tuple:
        """(interpreter, learner) scale after sample i, from samples i-1..i+2."""
        near = self.samples[max(i - 1, 0):i + 3]
        return (REFERENCE_S[0] / statistics.median(s[2] for s in near),
                REFERENCE_S[1] / statistics.median(s[3] for s in near))

    def _piece(self, t: float) -> int:
        """Stretch between kernel runs holding time t: k follows sample k-1."""
        return bisect.bisect_right([s[1] for s in self.samples], t)

    def scale_epochs(self, epochs: list):
        """Set each timed epoch's "scaled" duration: its train_step time at
        the learner scale, the rest at the interpreter scale."""
        for e in epochs:
            if e["dur"] is not None:
                f_py, f_learn = self._factors(max(self._piece(e["start"]) - 1, 0))
                e["scaled"] = (e["dur"] - e["train_s"]) * f_py + e["train_s"] * f_learn

    def scaled_span(self, t0: float, t1: float, epochs: list) -> float:
        """Wall time t0..t1 at the reference speed, kernel runs left out.

        In each stretch between kernel runs, the train_step time of the
        epochs that started there is scaled as learner time and the rest as
        interpreter time."""
        n = len(self.samples)
        learner = [0.0] * (n + 1)
        for e in epochs:
            learner[self._piece(e["start"])] += e["train_s"]
        total = 0.0
        for k in range(n + 1):
            a = t0 if k == 0 else max(t0, self.samples[k - 1][1])
            b = t1 if k == n else min(t1, self.samples[k][0])
            if b > a:
                f_py, f_learn = self._factors(max(k - 1, 0))
                busy = min(learner[k], b - a)
                total += (b - a - busy) * f_py + busy * f_learn
        return total

    def setup_factor(self) -> float:
        """Scale for the set-up: the first sample, taken as set-up ended."""
        return REFERENCE_S[0] / self.samples[0][2]

    def round_factors(self) -> tuple:
        """(interpreter, learner) scale from the round's median samples."""
        return (REFERENCE_S[0] / statistics.median(s[2] for s in self.samples),
                REFERENCE_S[1] / statistics.median(s[3] for s in self.samples))
