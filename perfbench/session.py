"""One session interpreter of one workload, started by ``run.py``.

The interpreter imports the package from ``src`` and builds each command's
drift, schedule and run settings (set-up).  It then makes repetitions of
the workload until ``--until``: each is a child forked from the set-up
process, which calls ``ssbelab.cli.main`` once per command of the session,
exactly as the user's shell would, writes its JSON result and exits.  A
forked child starts from the same imported, never-run package every time,
so no repetition sees state left by another, and none pays for the import.
The session and its children stay on one CPU.  The session's own JSON
result holds the set-up end time on the shared monotonic clock and, per
repetition, its index, exit status and peak RSS.  A repetition's result
holds the session's wall time, per-command latencies, the time of the
reference loop it ran first and, when traced, the per-layer self times
and counters.  Run from the checkout root:

    python3 perfbench/session.py --workload desk_session --seed 42 \
        --run-dir perfbench/out/desk_session/run --first-rep 0 --result s.json \
        --until 0 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

import workloads
from tracer import Tracer, totals_by

# About as long as one repetition, so that both see the same share of the
# host's contention: ~0.3 s on an idle 2-vCPU Xeon.
REFERENCE_ROUNDS = 60_000


def _count(key):
    def observe(counters, args, kwargs, result):
        counters[key] = counters.get(key, 0) + 1

    return observe


def _stage(counters, iterations, residual):
    counters["implicit.stage_calls"] = counters.get("implicit.stage_calls", 0) + 1
    counters["implicit.iterations"] = counters.get("implicit.iterations", 0) + iterations
    counters["implicit.iterations_max"] = max(counters.get("implicit.iterations_max", 0), iterations)
    counters["implicit.max_residual"] = max(counters.get("implicit.max_residual", 0.0), residual)


def _observe_componentwise(counters, args, kwargs, result):
    _, iterations, residual = result
    _stage(counters, iterations, residual)


def _observe_solution(counters, args, kwargs, result):
    _stage(counters, result.iterations, result.residual)


def _observe_lockstep(counters, args, kwargs, result):
    steps = kwargs["steps"] if "steps" in kwargs else args[3]
    counters["integrator.path_steps"] = counters.get("integrator.path_steps", 0) + steps * len(result)


def _observe_integrate(counters, args, kwargs, result):
    counters["integrator.path_steps"] = counters.get("integrator.path_steps", 0) + result.N


def _observe_draw(counters, args, kwargs, result):
    counters["gaussian.deviates"] = counters.get("gaussian.deviates", 0) + result.size


def _observe_classify(counters, args, kwargs, result):
    # Computed, not counted: each evidence row sums truncation + 1 terms.
    terms = sum(ev.partial.truncation + 1 for ev in result.evidence)
    counters["classifier.terms_evaluated"] = counters.get("classifier.terms_evaluated", 0) + terms


def install_probes(tracer: Tracer) -> dict[str, str]:
    """Wrap the package at the attributes its callers look up.

    Returns the span-name -> time-bucket map.  Every span maps to exactly
    one bucket, so the buckets' self times add up to the root span, the
    traced wall time.  The shock assembly is inline in the engine loops, so
    it stays in ``integrator.self_s``.  Quadrature counts in the schedules
    layer: the ensembles never reach it, and a layer time that is zero on
    every run would read as a constant rather than a measurement.
    """
    from ssbelab import cli, config, harness, integrator, schedules
    from ssbelab.diagnostics import BatchDiagnostics, DiagnosticState
    from ssbelab.gaussian import GaussianStream
    from ssbelab.schedules import NoiseSchedule

    plan = [
        (cli, "main", "cli.main", "cli.self_s", None),
        (config, "load_config", "config.load_config", "config.build_s", None),
        (config, "apply_overrides", "config.apply_overrides", "config.build_s", None),
        (config, "build_drift", "config.build_drift", "config.build_s", None),
        (config, "build_schedule", "config.build_schedule", "config.build_s", None),
        (config, "build_run", "config.build_run", "config.build_s", None),
        (cli, "run_ensemble", "harness.run_ensemble", "harness.reduce_s", None),
        (harness, "compute_fractions", "harness.compute_fractions", "harness.reduce_s", None),
        (integrator, "summarize", "diagnostics.summarize", "harness.reduce_s", None),
        (BatchDiagnostics, "summaries", "diagnostics.BatchDiagnostics.summaries",
         "harness.reduce_s", None),
        (cli, "write_ensemble_outputs", "harness.write_ensemble_outputs", "harness.write_s", None),
        (cli, "write_kv", "harness.write_kv", "harness.write_s", None),
        (cli, "dump_path_csv", "integrator.dump_path_csv", "harness.write_s", None),
        (harness, "integrate_paths_lockstep", "integrator.integrate_paths_lockstep",
         "integrator.self_s", _observe_lockstep),
        (cli, "integrate", "integrator.integrate", "integrator.self_s", _observe_integrate),
        (integrator, "solve_componentwise", "implicit.solve_componentwise", "implicit.stage_s",
         _observe_componentwise),
        (integrator, "solve_scalar", "implicit.solve_scalar", "implicit.stage_s", _observe_solution),
        (integrator, "solve_vector", "implicit.solve_vector", "implicit.stage_s", _observe_solution),
        (integrator, "derive_substream", "gaussian.derive_substream", "gaussian.draw_s", None),
        (cli, "derive_substream", "gaussian.derive_substream", "gaussian.draw_s", None),
        (GaussianStream, "draw_block", "gaussian.draw_block", "gaussian.draw_s", _observe_draw),
        (BatchDiagnostics, "update", "diagnostics.BatchDiagnostics.update", "diagnostics.update_s",
         _count("diagnostics.updates")),
        (DiagnosticState, "update", "diagnostics.DiagnosticState.update", "diagnostics.update_s",
         _count("diagnostics.updates")),
        (NoiseSchedule, "frobenius_grid", "schedules.frobenius_grid", "schedules.envelope_s",
         _count("schedules.envelope_calls")),
        (NoiseSchedule, "sigma", "schedules.sigma", "schedules.envelope_s",
         _count("schedules.envelope_calls")),
        (schedules, "adaptive_simpson", "quadrature.adaptive_simpson", "schedules.envelope_s",
         _count("quadrature.cells")),
        (harness, "classify", "classifier.classify", "classifier.classify_s", _observe_classify),
        (cli, "classify", "classifier.classify", "classifier.classify_s", _observe_classify),
    ]
    bucket_of = {"session": "cli.self_s"}
    for owner, attr, span, bucket, observe in plan:
        tracer.install(owner, attr, span, observe)
        bucket_of[span] = bucket
    return bucket_of


def install_phase_timers(tracer: Tracer) -> None:
    """The two calls inside ``experiment`` that the ensemble phases time."""
    from ssbelab import harness

    tracer.install(harness, "integrate_paths_lockstep", "simulate")
    tracer.install(harness, "classify", "classify")


def _setup(steps, out_dir, seed, smoke):
    """Build each command's drift, schedule and run settings; return the
    path-steps the session will simulate."""
    from ssbelab import cli  # noqa: F401  (the entry point is part of set-up)
    from ssbelab import config as cfg_mod

    path_steps = 0
    for step in steps:
        cfg = cfg_mod.apply_overrides(cfg_mod.load_config(step.config), step.overrides(smoke))
        cfg["run.master_seed"] = str(seed)
        cfg_mod.build_schedule(cfg)
        if "drift.name" in cfg:
            drift = cfg_mod.build_drift(cfg)
            run = cfg_mod.build_run(cfg, drift.d, os.path.join(out_dir, step.name))
            if step.command == "experiment":
                path_steps += run.paths * run.steps
            elif step.command == "simulate":
                path_steps += run.steps
    return path_steps


def run_repetition(workload, seed, out_dir, spans_dir, trace, smoke) -> dict:
    """The workload's commands, in this process; returns the repetition's timings."""
    from ssbelab import cli

    steps = workloads.steps(workload)
    tracer = Tracer(run_id=f"{workload}/seed{seed}/pid{os.getpid()}")
    bucket_of = install_probes(tracer) if trace else None
    if not trace and steps[0].command == "experiment":
        install_phase_timers(tracer)
    commands = []
    with tracer.root("session"):
        for step in steps:
            c0 = time.perf_counter()
            rc = cli.main(step.argv(out_dir, seed, smoke))
            commands.append({"name": step.name, "command": step.command, "rc": rc,
                             "seconds": time.perf_counter() - c0})
    tracer.uninstall()
    result = {"wall_s": tracer.end[0] - tracer.start[0], "commands": commands}
    if trace:
        result["layers"] = totals_by(tracer, bucket_of)
        result["counters"] = dict(tracer.counters)
        tracer.dump(spans_dir)
    elif steps[0].command == "experiment":
        phase = {"simulate": 0.0, "classify": 0.0}
        for nid, s, e in zip(tracer.name, tracer.start, tracer.end):
            if tracer.names[nid] in phase:
                phase[tracer.names[nid]] += e - s
        result["simulate_s"] = phase["simulate"]
        result["classify_s"] = phase["classify"]
    else:
        result["simulate_s"] = sum(c["seconds"] for c in commands if c["command"] == "simulate")
        result["classify_s"] = sum(c["seconds"] for c in commands if c["command"] == "classify")
    return result


def reference_loop(rounds=REFERENCE_ROUNDS):
    """Seconds for a fixed loop of small numpy steps, like the engines' inner loop.

    Timed in every repetition's process just before the workload: the
    workload's times are reported in multiples of this loop's, which the
    host's load slows down alike.
    """
    import numpy as np

    x = np.linspace(0.1, 1.0, 200)
    t0 = time.perf_counter()
    for _ in range(rounds):
        y = x - 0.01 * x * x * x
        x = np.where(np.abs(y) > 0.0, y, x)
    return time.perf_counter() - t0


def _current_cpu():
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    try:
        with open("/proc/self/stat") as fh:
            stat = fh.read()
        return int(stat.rsplit(")", 1)[1].split()[36])
    except (OSError, ValueError, IndexError):
        return min(os.sched_getaffinity(0))


def rep_dir(run_dir, index):
    return os.path.join(run_dir, f"rep{index:04d}")


def _fork_repetition(args, index, traced):
    """Run one repetition in a forked child; returns (exit status, peak RSS in MB)."""
    directory = rep_dir(args.run_dir, index)
    os.makedirs(directory)
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            try:
                ref_s = reference_loop()
                result = run_repetition(args.workload, args.seed,
                                        os.path.join(directory, "outputs"),
                                        os.path.join(directory, "spans"), traced, args.smoke)
                result["ref_s"] = ref_s
            except Exception:  # reported to run.py, which counts the repetition as failed
                result = {"error": traceback.format_exc()}
            with open(os.path.join(directory, "result.json"), "w") as fh:
                json.dump(result, fh)
            code = 0 if "error" not in result else 1
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status, usage = os.wait4(pid, 0)
    return os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


def run_session(args) -> dict:
    steps = workloads.steps(args.workload)
    path_steps = _setup(steps, os.path.join(args.run_dir, "setup"), args.seed, args.smoke)
    result = {"setup_done": time.perf_counter(), "path_steps": path_steps}
    if args.setup_only:
        return result

    import numpy
    import scipy

    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    # One CPU for the session and its children, so that the reference loop
    # and the repetition meet the same neighbours on the host.
    os.sched_setaffinity(0, {_current_cpu()})
    # Repetitions alternate untraced and traced when tracing; at least one of
    # each kind, then more while the last one's duration still fits.
    reps, index, took = [], args.first_rep, 0.0
    min_reps = 2 if args.trace else 1
    while len(reps) < min_reps or time.perf_counter() + took <= args.until:
        traced = args.trace and index % 2 == 1
        t0 = time.perf_counter()
        rc, peak_rss_mb = _fork_repetition(args, index, traced)
        took = time.perf_counter() - t0
        reps.append({"index": index, "traced": traced, "rc": rc, "peak_rss_mb": peak_rss_mb})
        index += 1
    result["reps"] = reps
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--run-dir", required=True, help="directory for the repetitions")
    p.add_argument("--first-rep", type=int, default=0, help="index of the first repetition")
    p.add_argument("--until", type=float, default=0.0,
                   help="time.perf_counter() value by which repetitions must end")
    p.add_argument("--result", required=True, help="where to write the JSON result")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    try:
        result = run_session(args)
    except Exception:  # reported to run.py, which counts the session as failed
        result = {"error": traceback.format_exc()}
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0 if "error" not in result else 1


if __name__ == "__main__":
    sys.exit(main())
