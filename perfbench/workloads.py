"""Workload definitions shared by the benchmark (``run.py``) and its session child.

A workload is one user session: a list of ``ssbelab`` CLI invocations run
in one process that starts from a freshly imported package.  Every path is relative to the checkout root,
which is the working directory of both processes.  This module imports
nothing outside the standard library, so ``run.py`` stays light.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 42  # the golden configs' run.master_seed

BENCH_DIR = "perfbench"
OUT_ROOT = os.path.join(BENCH_DIR, "out")
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")

# Sizes: a repetition takes a third to half a second on an idle host, as
# long as the reference loop, so a run holds dozens of both.
CUBIC_STEPS = ("run.steps=2000",)
LINEAR_STEPS = ("run.steps=3000",)
SIMULATE_STEPS = ("run.steps=5000",)
TABLE_ROWS = 5_000
CLASSIFY_TRUNCATION = (f"classify.truncation={TABLE_ROWS}",)
SMOKE_TABLE_ROWS = 2_001

# Tiny sizes for the smoke mode: every route still runs, in seconds.
SMOKE_SET = {
    "experiment": ["run.paths=4", "run.steps=2000"],
    "simulate": ["run.steps=2000"],
    "classify": ["classify.truncation=2000"],
}


@dataclass(frozen=True)
class Step:
    """One CLI command of a session and what its outputs must show."""

    name: str  # output subdirectory, unique within the session
    command: str  # experiment | simulate | classify
    config: str
    expect: dict  # regime (and method) the gate requires
    extra_set: tuple = ()

    def overrides(self, smoke):
        return list(self.extra_set) + (SMOKE_SET[self.command] if smoke else [])

    def argv(self, out_dir, seed, smoke):
        argv = [self.command, self.config, "--out", os.path.join(out_dir, self.name),
                "--seed", str(seed)]
        for pair in self.overrides(smoke):
            argv += ["--set", pair]
        return argv


def table_path(workload):
    return os.path.join(OUT_ROOT, workload, "inputs", "table.csv")


def steps(workload):
    if workload == "ensemble_cubic_a":
        return [Step("experiment", "experiment", "configs/regime_a.cfg", {"regime": "A"},
                     CUBIC_STEPS)]
    if workload == "ensemble_linear_b":
        return [Step("experiment", "experiment", "configs/regime_b.cfg", {"regime": "B"},
                     LINEAR_STEPS)]
    if workload == "ensemble_radial_d3":
        return [Step("experiment", "experiment", f"{BENCH_DIR}/configs/radial_d3.cfg",
                     {"regime": "A"})]
    if workload == "desk_session":
        return [
            Step("simulate", "simulate", "configs/regime_a.cfg", {}, SIMULATE_STEPS),
            Step("classify_analytic", "classify", "configs/regime_b.cfg",
                 {"regime": "B", "method": "analytic_L"}),
            Step("classify_tabulated", "classify", f"{BENCH_DIR}/configs/tabulated.cfg",
                 {"regime": "C", "method": "empirical_trend"},
                 (f"schedule.path={table_path(workload)}",) + CLASSIFY_TRUNCATION),
            Step("classify_quadrature", "classify", f"{BENCH_DIR}/configs/cell_rms_invlog.cfg",
                 {"regime": "B", "method": "analytic_L"}, CLASSIFY_TRUNCATION),
        ]
    raise KeyError(workload)


WORKLOADS = ("ensemble_cubic_a", "ensemble_linear_b", "ensemble_radial_d3", "desk_session")


def needs_table(workload):
    return any("schedule.path=" in s for step in steps(workload) for s in step.extra_set)


def write_table(path, seed, rows):
    """Tabulated noise level: 1 plus a seeded jitter of at most 0.5%.

    The level does not vanish, so the classifier's structural check must
    answer C on every seed; the jitter keeps the values seed-dependent.
    """
    rng = random.Random(seed)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write("# n,value\n")
        for n in range(rows):
            fh.write(f"{n},{1.0 + 0.01 * (rng.random() - 0.5)!r}\n")
