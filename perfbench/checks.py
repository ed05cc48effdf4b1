"""Property checks on a workload's outputs. Each check returns a list of
failure messages; an empty list means it passed.

The checks compare outputs with figures recomputed apart from the program
(see oracle.py) and with properties the model must have, never with a
stored copy of an earlier run's output.
"""

from __future__ import annotations

import csv
import io
import math

# the metrics.csv columns, in order, as the harness documents them
CSV_COLUMNS = ("epoch", "network_cost", "latency_per_user", "financial_per_user",
               "sla_per_user", "cpu_util", "mem_util", "cloud_fraction",
               "active_users", "mean_reward", "eps", "clip_c")
UNIT_RANGE = ("cpu_util", "mem_util", "cloud_fraction")
# relative tolerances: oracle figures come from float64 arithmetic in
# another order; CSV values carry nine significant digits
ORACLE_RTOL = 1e-9
CSV_RTOL = 2e-8


def _close(a: float, b: float, rtol: float, scale: float = 0.0) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), scale)


def parse_metrics_csv(text: str, epochs: int, where: str):
    """Rows of a metrics.csv as dicts of floats, and the failures found:
    header, one row per epoch numbered 0..epochs-1, finite values."""
    failures = []
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        return [], [f"{where}: header is {lines[0] if lines else ''!r}"]
    rows = []
    for n, line in enumerate(lines[1:]):
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            failures.append(f"{where}: row {n} has {len(cells)} cells")
            continue
        try:
            row = {key: float(cell) for key, cell in zip(CSV_COLUMNS, cells)}
        except ValueError:
            failures.append(f"{where}: row {n} is not numeric")
            continue
        if not all(math.isfinite(v) for v in row.values()):
            failures.append(f"{where}: row {n} is not finite")
        if row["epoch"] != n:
            failures.append(f"{where}: row {n} is numbered {row['epoch']:g}")
        rows.append(row)
    if len(lines) - 1 != epochs:
        failures.append(f"{where}: {len(lines) - 1} rows for {epochs} epochs")
    return rows, failures


def check_ranges(rows: list, where: str) -> list:
    """Utilisation and the cloud share lie in [0, 1], rewards in [-1, 1]."""
    failures = []
    for n, row in enumerate(rows):
        for key in UNIT_RANGE:
            if key in row and not 0.0 <= row[key] <= 1.0:
                failures.append(f"{where}: row {n} {key}={row[key]!r} outside [0, 1]")
        if "mean_reward" in row and not -1.0 <= row["mean_reward"] <= 1.0:
            failures.append(f"{where}: row {n} mean_reward={row['mean_reward']!r}"
                            " outside [-1, 1]")
    return failures


def check_requests(served: list, expected: list, where: str) -> list:
    """Each epoch served sum_j max(arrivals_j, 1) requests of its trace."""
    if served == expected:
        return []
    if len(served) != len(expected):
        return [f"{where}: {len(served)} epochs served, {len(expected)} expected"]
    n = next(i for i, (a, b) in enumerate(zip(served, expected)) if a != b)
    return [f"{where}: epoch {n} served {served[n]} requests, trace has {expected[n]}"]


def check_schedule(rows: list, trained: list, plan: list, where: str) -> list:
    """The eps/clip_c columns and the epochs whose train_step updated equal
    the schedule recomputed from request counts and warmup_size: one update
    per epoch from the first epoch the buffer holds the warm-up fill."""
    failures = []
    if trained != [t for t, _, _ in plan]:
        failures.append(f"{where}: {sum(trained)} updating epochs, schedule has "
                        f"{sum(t for t, _, _ in plan)}")
    for n, (row, (_, eps, clip_c)) in enumerate(zip(rows, plan)):
        if not (_close(row["eps"], eps, CSV_RTOL) and _close(row["clip_c"], clip_c, CSV_RTOL)):
            failures.append(f"{where}: epoch {n} eps/clip_c {row['eps']}/{row['clip_c']}"
                            f" but schedule gives {eps:.9g}/{clip_c:.9g}")
            break
    return failures


def check_no_updates(trained: list, where: str) -> list:
    """Training shorter than the warm-up never updates a learner."""
    n = sum(trained)
    return [f"{where}: {n} train_step calls updated before the warm-up fill"] if n else []


def check_oracle(metrics: dict, expected: dict, where: str) -> list:
    """One epoch's reported figures against the oracle's: costs to ORACLE_RTOL
    of their summed magnitude, utilisation and user counts likewise."""
    failures = []
    for key, val in expected.items():
        got = metrics[key]
        ref, scale = val if isinstance(val, tuple) else (val, 0.0)
        if not _close(got, ref, ORACLE_RTOL, scale):
            failures.append(f"{where}: {key}={got!r}, oracle {ref!r}")
    return failures


def check_same_requests(per_agent: dict, where: str) -> list:
    """Every agent of a comparison saw the same per-epoch request counts."""
    first = next(iter(per_agent.values()))
    return [f"{where}: agent {name} saw other request counts than the rest"
            for name, counts in per_agent.items() if counts != first]


def parse_long_csv(text: str) -> dict:
    """compare_long.csv as {(agent, seed): {metric: [values by epoch]}}."""
    out = {}
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != ["agent", "seed", "epoch", "metric", "value"]:
        raise ValueError("compare_long.csv: unexpected header")
    for agent, seed, _, metric, value in reader:
        out.setdefault((agent, int(seed)), {}).setdefault(metric, []).append(float(value))
    return out


def check_cloud_agent(long_rows: dict, users: list, where: str) -> list:
    """The cloud-only agent offloads every user: no server utilisation and a
    cloud share of one whenever users are present."""
    failures = []
    for (agent, _), series in long_rows.items():
        if agent != "cloud":
            continue
        for n, (cpu, mem, share) in enumerate(zip(series["cpu_util"], series["mem_util"],
                                                  series["cloud_fraction"])):
            if cpu != 0.0 or mem != 0.0 or (users[n] > 0 and share != 1.0):
                failures.append(f"{where}: cloud agent epoch {n} cpu={cpu} mem={mem} "
                                f"cloud_fraction={share}")
                break
    return failures


def check_compare_kpis(kpis_text: str, long_rows: dict, where: str) -> list:
    """compare_kpis.csv means equal the epoch means of compare_long.csv
    (one seed per command, so every std is zero)."""
    failures = []
    reader = csv.reader(io.StringIO(kpis_text))
    if next(reader, None) != ["agent", "kpi", "mean", "std"]:
        return [f"{where}: compare_kpis.csv header"]
    seen = set()
    for agent, kpi, mean, std in reader:
        series = [s for (a, _), s in long_rows.items() if a == agent]
        if len(series) != 1:
            failures.append(f"{where}: agent {agent} has {len(series)} seeds in compare_long")
            continue
        if kpi not in series[0]:
            continue  # active_users is not in the long table
        seen.add((agent, kpi))
        vals = series[0][kpi]
        ref = math.fsum(vals) / len(vals)
        scale = math.fsum(abs(v) for v in vals) / len(vals)
        if not _close(float(mean), ref, CSV_RTOL, scale) or float(std) != 0.0:
            failures.append(f"{where}: {agent} {kpi} mean {mean} std {std}, "
                            f"long table gives {ref:.9g}")
    missing = {(a, k) for (a, _), s in long_rows.items() for k in s} - seen
    if missing:
        failures.append(f"{where}: no compare_kpis row for {sorted(missing)[0]}")
    return failures


def check_digests(digests: list, where: str) -> list:
    """Runs of one seed produce byte-identical output files."""
    return [] if len(set(digests)) <= 1 else [f"{where}: outputs differ between rounds"]


def check_samples(n: int, where: str) -> list:
    """A 90th percentile needs at least ten samples beyond it."""
    return [] if n >= 100 else [f"{where}: {n} timed epochs, 100 needed for p90"]
