"""Benchmark of the simulate -> classify -> verdict loop of ssbelab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ensemble_cubic_a --seed 42 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --smoke       # every workload, tiny sizes

A run of a workload is a sequence of session interpreters (``session.py``),
each good for a few seconds.  A session imports the package once, then
forks one child per repetition, which calls the CLI in-process and exits;
repetitions run one at a time, with BLAS and OpenMP pinned to one thread,
until the next one would end past ``--seconds``.  Every repetition's
outputs are checked (``gate.py``) and compared byte for byte with the first
one's; a repetition failing any check counts in ``failed``.  Set-up is
timed in every session and in set-up-only interpreters.  With ``--trace 1``
repetitions alternate untraced and traced, and the per-layer metrics come
from the fastest traced one.  Human-readable lines go first; the last line of standard
output is the JSON result.  Every result is also appended, with the
machine and library versions, to ``perfbench/out/results.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import gate
import workloads
from session import rep_dir

END_TO_END = {
    "wall_ref": "ref",
    "path_steps_per_ref": "path-steps/ref",
    "simulate_ref": "ref",
    "classify_ref": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "implicit.stage_s": "s",
    "implicit.stage_calls": "count",
    "implicit.iterations_mean": "count",
    "implicit.iterations_max": "count",
    "implicit.max_residual": "1",
    "diagnostics.update_s": "s",
    "diagnostics.updates": "count",
    "gaussian.draw_s": "s",
    "gaussian.deviates": "count",
    "integrator.self_s": "s",
    "integrator.path_steps": "count",
    "schedules.envelope_s": "s",
    "schedules.envelope_calls": "count",
    "quadrature.cells": "count",
    "classifier.classify_s": "s",
    "classifier.terms_evaluated": "count",
    "harness.reduce_s": "s",
    "harness.write_s": "s",
    "harness.bytes_written": "bytes",
    "config.build_s": "s",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "ref.loop_s": "s",
}
TIME_BUCKETS = [k for k, unit in PER_LAYER.items()
                if unit == "s" and not k.startswith(("trace.", "ref."))]

SETUP_SAMPLES = 2  # set-up-only interpreters; every session's own set-up is sampled too
SESSION_SLICE_S = 6.0  # a session interpreter makes repetitions for this long at most
CHILD_TIMEOUT_S = 150
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BrokenCheckout(RuntimeError):
    """The package cannot be set up here, so nothing can be measured."""


def _child_env():
    env = dict(os.environ, PYTHONPATH="src")
    env.update({var: "1" for var in PINNED_THREADS})
    return env


def _stop_group(proc):
    """Kill the session and the repetition it forked, and wait until both are gone."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    for _ in range(500):  # an orphaned repetition is reaped by init
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def _spawn(workload, seed, run_dir, tag, *, first_rep=0, until=0.0, trace=False,
           setup_only=False, smoke=False):
    """One session interpreter; returns (session result or None, setup_s, failure or None)."""
    result_path = os.path.join(run_dir, f"{tag}.json")
    cmd = [sys.executable, os.path.join(workloads.BENCH_DIR, "session.py"),
           "--workload", workload, "--seed", str(seed), "--run-dir", run_dir,
           "--first-rep", str(first_rep), "--until", repr(until), "--result", result_path]
    cmd += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--smoke"] * smoke
    with open(os.path.join(run_dir, f"{tag}.stderr.txt"), "w") as err:
        t_spawn = time.perf_counter()
        # Its own process group, so that a stop takes the forked repetition too.
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=_child_env(),
                                start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None, None, f"killed after {CHILD_TIMEOUT_S} s"
        finally:  # timed out, or this process is being stopped
            _stop_group(proc)
    try:
        with open(result_path) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        return None, None, f"exit code {proc.returncode} and no result"
    if "error" in result:
        return None, None, result["error"].strip().splitlines()[-1]
    # perf_counter is CLOCK_MONOTONIC, shared by parent and child on Linux.
    return result, result["setup_done"] - t_spawn, None


def _environment(versions):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    llc, level = "unknown", 0
    cache_root = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(cache_root)) if os.path.isdir(cache_root) else ():
        try:
            with open(os.path.join(cache_root, idx, "level")) as fh:
                lv = int(fh.read())
            with open(os.path.join(cache_root, idx, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        if lv > level:
            llc, level = f"L{lv} {size}", lv
    env = {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "llc": llc}
    env.update(versions)
    return env


def _check_rep(steps, directory, ref_root, traced, first_digest):
    """(result or None, failures, digest) of one repetition's directory."""
    try:
        with open(os.path.join(directory, "result.json")) as fh:
            result = json.load(fh)
    except (OSError, ValueError):
        return None, ["no result"], None
    if "error" in result:
        return None, [result["error"].strip().splitlines()[-1]], None
    out_dir = os.path.join(directory, "outputs")
    fails = [f"{c['name']}: exit code {c['rc']}" for c in result["commands"] if c["rc"] != 0]
    fails += gate.check_outputs(steps, out_dir, ref_root)
    current = gate.digest(out_dir)
    if first_digest is not None:
        fails += gate.digest_mismatch(first_digest, current)
    result["bytes_written"] = sum(
        os.path.getsize(os.path.join(r, f)) for r, _, fs in os.walk(out_dir) for f in fs
    )
    if traced:
        layer_sum = sum(result["layers"][b] for b in TIME_BUCKETS)
        wall = result["wall_s"]
        if abs(layer_sum - wall) > 1e-9 * max(1.0, wall):
            fails.append(f"layer self times sum to {layer_sum!r}, traced wall {wall!r}")
    return result, fails, current


def measure(workload, seed, seconds, trace, smoke):
    """Run one workload; returns the record printed and appended to results.jsonl."""
    steps = workloads.steps(workload)
    run_dir = os.path.join(workloads.OUT_ROOT, workload, "run")
    if os.path.exists(run_dir):
        shutil.rmtree(run_dir)
    os.makedirs(run_dir)
    if workloads.needs_table(workload):
        rows = workloads.SMOKE_TABLE_ROWS if smoke else workloads.TABLE_ROWS
        workloads.write_table(workloads.table_path(workload), seed, rows)
    ref_root = None
    if seed == workloads.DEFAULT_SEED and not smoke:
        ref_root = os.path.join(workloads.REFERENCE_DIR, f"seed{seed}", workload)

    # Set-up: one untimed interpreter compiles the bytecode, then the samples.
    setup = []
    for i in range(1 + SETUP_SAMPLES):
        _, setup_s, failure = _spawn(workload, seed, run_dir, f"setup{i}",
                                     setup_only=True, smoke=smoke)
        if failure is not None:
            raise BrokenCheckout(f"{workload} set-up failed: {failure}")
        if i > 0:
            setup.append(setup_s)

    # Session interpreters, each making repetitions for at most SESSION_SLICE_S,
    # until the next session would not fit in the measuring time.
    runs, failures, first_digest, versions = [], [], None, {}
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        until = min(deadline, t0 + SESSION_SLICE_S)
        session, setup_s, failure = _spawn(workload, seed, run_dir, f"session{len(runs)}",
                                           first_rep=len(runs), until=until, trace=trace,
                                           smoke=smoke)
        took = time.perf_counter() - t0
        if session is None:
            runs.append({"traced": False, "result": None, "failures": [failure]})
            failures.append(f"run {len(runs)}: {failure}")
            break
        setup.append(setup_s)
        versions = session["versions"]
        for rep in session["reps"]:
            directory = rep_dir(run_dir, rep["index"])
            result, fails, current = _check_rep(steps, directory, ref_root, rep["traced"],
                                                first_digest)
            if rep["rc"] != 0 and not fails:
                fails.append(f"exit code {rep['rc']}")
            if first_digest is None:
                first_digest = current
            if result is not None:
                result["peak_rss_mb"] = rep["peak_rss_mb"]
                result["path_steps"] = session["path_steps"]
            runs.append({"traced": rep["traced"], "result": result, "failures": fails})
            failures += [f"run {len(runs)}: {f}" for f in fails]
            if rep["index"] > 0:  # the first repetition's outputs stay for inspection
                shutil.rmtree(os.path.join(directory, "outputs"), ignore_errors=True)
        per_rep = (took - setup_s) / len(session["reps"])
        if time.perf_counter() + setup_s + per_rep * (1 + trace) > deadline:
            break

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "environment": _environment(versions),
        "attempted": len(runs),
        "failed": sum(1 for r in runs if r["failures"]),
        "failures": failures,
        "setup_samples": setup,
        "runs": [{"traced": r["traced"], "failures": r["failures"], **(r["result"] or {})}
                 for r in runs],
        "metrics": _metrics(runs, setup, trace),
    }


def _metrics(runs, setup, trace):
    """Metric values with their sample lists.

    The session timings are in ``ref``: each repetition's time over the
    time of the reference loop that ran in its process just before it,
    and the figure is the median over the run's repetitions.  Other
    tenants of a shared host slow both down alike, at a rate that changes
    within seconds and across minutes; the ratio stays put where the
    seconds do not.  Set-up time and memory are medians; per-layer times
    are seconds.
    """
    ok = [r["result"] for r in runs if r["result"] is not None and not r["failures"]]
    if not ok:
        ok = [r["result"] for r in runs if r["result"] is not None]
    plain = [r for r in ok if "layers" not in r]
    traced = [r for r in ok if "layers" in r]
    if not plain or (trace and not traced):
        return {}
    walls = [r["wall_s"] for r in plain]
    ref = min(r["ref_s"] for r in ok)
    if not trace:
        def in_ref(key):
            return statistics.median(r[key] / r["ref_s"] for r in plain), [r[key] for r in plain]

        wall_ref = in_ref("wall_s")
        samples = {
            "wall_ref": wall_ref,
            "path_steps_per_ref": (plain[0]["path_steps"] / wall_ref[0], walls),
            "simulate_ref": in_ref("simulate_s"),
            "classify_ref": in_ref("classify_s"),
            "setup_s": (statistics.median(setup), setup),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain),
                            [r["peak_rss_mb"] for r in plain]),
        }
        return {k: {"value": v, "unit": END_TO_END[k], "samples": xs}
                for k, (v, xs) in samples.items()}
    # Layers of the fastest traced run, so that they add up to trace.wall_s.
    fastest = min(traced, key=lambda r: r["wall_s"])
    counters = fastest["counters"]
    values = {b: fastest["layers"][b] for b in TIME_BUCKETS}
    calls = counters.get("implicit.stage_calls", 0)
    values.update({
        "implicit.stage_calls": calls,
        "implicit.iterations_mean": counters.get("implicit.iterations", 0) / calls if calls else 0.0,
        "implicit.iterations_max": counters.get("implicit.iterations_max", 0),
        "implicit.max_residual": counters.get("implicit.max_residual", 0.0),
        "diagnostics.updates": counters.get("diagnostics.updates", 0),
        "gaussian.deviates": counters.get("gaussian.deviates", 0),
        "integrator.path_steps": counters.get("integrator.path_steps", 0),
        "schedules.envelope_calls": counters.get("schedules.envelope_calls", 0),
        "quadrature.cells": counters.get("quadrature.cells", 0),
        "classifier.terms_evaluated": counters.get("classifier.terms_evaluated", 0),
        "harness.bytes_written": fastest["bytes_written"],
        "trace.wall_s": fastest["wall_s"],
        "ref.loop_s": ref,
    })
    values["trace.overhead_s"] = values["trace.wall_s"] - min(walls)
    xs = [r["wall_s"] for r in traced]
    return {k: {"value": values[k], "unit": u, "samples": xs} for k, u in PER_LAYER.items()}


def _report(record):
    """Human-readable lines for one workload's record; raw seconds go with the ``ref`` figures."""
    env = record["environment"]
    print(f"environment: nproc={env['nproc']} cpu={env['cpu']!r} llc={env['llc']} "
          f"python={env.get('python')} numpy={env.get('numpy')} scipy={env.get('scipy')}")
    print(f"workload {record['workload']} seed {record['seed']} trace {record['trace']}: "
          f"{record['attempted']} runs, fail_ratio {record['failed']}/{record['attempted']}")
    refs = [r["ref_s"] for r in record["runs"] if "ref_s" in r]
    if refs:
        print(f"  reference loop: fastest {min(refs):.6g} s of {len(refs)}")
    for name, m in record["metrics"].items():
        xs = m["samples"]
        raw = " s" if "ref" in m["unit"] else ""
        spread = ""
        if len(xs) >= 2:
            q = statistics.quantiles(xs, n=4)
            spread = f", quartiles {q[0]:.6g} .. {q[2]:.6g}{raw}"
        print(f"  {name} = {m['value']!r} {m['unit']}  "
              f"({len(xs)} samples, fastest {min(xs):.6g}{raw}{spread})")
    for f in record["failures"]:
        print(f"  FAIL {f}")


def _preflight():
    needed = ["src/ssbelab/cli.py", "configs/regime_a.cfg", "configs/regime_b.cfg"]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        raise BrokenCheckout(f"run from a checkout root; missing {', '.join(missing)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=28.0,
                   help="measurement time per workload; at least one run is made")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes, no reference values: checks the plumbing in seconds")
    args = p.parse_args(argv)
    # SIGTERM unwinds like an exception, so a running session child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        _preflight()
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        records = [measure(w, args.seed, args.seconds, bool(args.trace), args.smoke) for w in names]
    except BrokenCheckout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(os.path.join(workloads.OUT_ROOT, "results.jsonl"), "a") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")
    metrics = {}
    for record in records:
        _report(record)
        prefix = "" if len(records) == 1 else f"{record['workload']}."
        for name, m in record["metrics"].items():
            metrics[prefix + name] = {"value": m["value"], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    expected = len(END_TO_END if not args.trace else PER_LAYER) * len(records)
    correct = failed == 0 and len(metrics) == expected
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
