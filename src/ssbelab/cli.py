"""Command-line entry point.

Subcommands: simulate, classify, affine, experiment, consistency, selftest.
Each takes a config file plus ``--set key=value`` overrides; ``selftest``
needs no config.
"""

from __future__ import annotations

import argparse
import os
import sys

from ssbelab import affine as affine_mod
from ssbelab import config as cfg_mod
from ssbelab.classifier import classify, format_regime_report, regime_report_records
from ssbelab.config import ConfigError
from ssbelab.gaussian import derive_substream
from ssbelab.harness import (
    config_records,
    consistency_report_records,
    run_consistency_suite,
    run_ensemble,
    write_ensemble_outputs,
    write_kv,
)
from ssbelab.integrator import PathError, dump_path_csv, integrate
from ssbelab.quadrature import QuadratureError


def _add_common(p):
    p.add_argument("config", help="path to a key-value config file")
    p.add_argument("--set", dest="overrides", action="append", metavar="KEY=VALUE",
                   help="override any config key (repeatable)")
    p.add_argument("--out", help="output directory (overrides output.dir)")
    p.add_argument("--seed", type=int, help="override run.master_seed")


def _load(args):
    cfg = cfg_mod.load_config(args.config)
    cfg = cfg_mod.apply_overrides(cfg, args.overrides)
    if args.seed is not None:
        cfg["run.master_seed"] = str(args.seed)
    cfg_mod.check_keys(cfg)
    return cfg


def cmd_simulate(args) -> int:
    cfg = _load(args)
    drift = cfg_mod.build_drift(cfg)
    schedule = cfg_mod.build_schedule(cfg)
    run = cfg_mod.build_run(cfg, drift.d, args.out)
    mode = run.record_mode if run.record_mode != "summary" else "full"
    stream = derive_substream(run.master_seed, cfg_mod.get(cfg, "run.path_index"), run.r)
    record = integrate(drift, schedule, run.zeta, run.steps, stream, mode, run.tol, run.window)
    os.makedirs(run.out_dir, exist_ok=True)
    out_path = os.path.join(run.out_dir, "path.csv")
    dump_path_csv(record, out_path)
    s = record.summary
    print(f"wrote {out_path}")
    print(f"final ||X|| = {s.final_norm!r}  sup ||X|| = {s.sup_norm!r}  "
          f"window [{s.window_min!r}, {s.window_max!r}]")
    return 0


def cmd_classify(args) -> int:
    cfg = _load(args)
    schedule = cfg_mod.build_schedule(cfg)
    grid = cfg_mod.build_epsilon_grid(cfg)
    report = classify(schedule, epsilon_grid=grid, n_trunc=cfg_mod.get(cfg, "classify.truncation"))
    text = format_regime_report(report, schedule)
    print(text, end="")
    out_dir = cfg_mod.output_dir(cfg, args.out)
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "regime_report.txt"), "w") as fh:
        fh.write(text)
    records = regime_report_records(report) | config_records(cfg)
    write_kv(records, os.path.join(out_dir, "regime_report.kv"))
    return 0


def cmd_affine(args) -> int:
    cfg = _load(args)
    A = cfg_mod.get(cfg, "affine.A")
    if A is None:
        A = cfg_mod.get(cfg, "affine.matrix_csv")
    elif "affine.matrix_csv" in cfg:
        raise ConfigError("affine.matrix_csv must be unset when affine.A is set")
    if A is None:
        raise ConfigError("affine command needs affine.A or affine.matrix_csv")
    h = cfg_mod.get(cfg, "run.h", required=True)
    system = affine_mod.build_affine_system(A, h)
    emap = affine_mod.eigen_map_check(A, h)
    records = config_records(cfg) | {
        "h": repr(h),
        "spectral_radius_C": repr(system.spectral_radius_C),
        "eigen_map_max_mismatch": repr(emap.max_mismatch),
        "eigen_map_ok": str(emap.ok).lower(),
        "lyapunov_residual": repr(system.lyapunov_residual),
    }
    for label, mat in (("C", system.C), ("M", system.M)):
        for i, row in enumerate(mat):
            records[f"{label}.{i}"] = ",".join(repr(float(v)) for v in row)
    out_dir = cfg_mod.output_dir(cfg, args.out)
    os.makedirs(out_dir, exist_ok=True)
    print(write_kv(records, os.path.join(out_dir, "affine_report.txt")), end="")
    return 0


def cmd_experiment(args) -> int:
    cfg = _load(args)
    drift = cfg_mod.build_drift(cfg)
    schedule = cfg_mod.build_schedule(cfg)
    run = cfg_mod.build_run(cfg, drift.d, args.out)
    report = run_ensemble(drift, schedule, run, epsilon_grid=cfg_mod.build_epsilon_grid(cfg))
    csv_path, kv_path = write_ensemble_outputs(report, run.out_dir)
    fr = report.fractions
    print(f"wrote {csv_path} and {kv_path}")
    print(f"predicted regime: {report.predicted}")
    print(f"fractions: converged={fr.converged:.3f} bounded={fr.bounded_oscillatory:.3f} "
          f"escaped={fr.escaped:.3f}")
    verdict = "n/a" if report.consistent is None else str(report.consistent).lower()
    print(f"classifier/ensemble consistent: {verdict}")
    return 0 if report.consistent is not False else 1


def cmd_consistency(args) -> int:
    cfg = _load(args)
    drift = cfg_mod.build_drift(cfg)
    run = cfg_mod.build_run(cfg, drift.d, args.out)
    sigma = cfg_mod.build_consistency_sigma(cfg, drift.d, run.r)
    h_grid = cfg_mod.get(cfg, "consistency.h_grid", required=True)
    grid = cfg_mod.build_epsilon_grid(cfg)
    report = run_consistency_suite(sigma, drift, list(h_grid), run, epsilon_grid=grid)
    os.makedirs(run.out_dir, exist_ok=True)
    kv_path = os.path.join(run.out_dir, "consistency_report.kv")
    print(write_kv(consistency_report_records(report), kv_path), end="")
    ok = report.labels_agree_across_h and report.labels_agree_across_choices
    return 0 if ok else 1


def cmd_selftest(args) -> int:
    from ssbelab.selftest import run_selftest

    return run_selftest(verbose=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ssbelab",
        description="simulate and classify split-step paths of dissipative systems "
        "driven by scheduled Gaussian noise",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, helptext in (
        ("simulate", cmd_simulate, "integrate one path and dump it as CSV"),
        ("classify", cmd_classify, "classify a noise schedule into regime A/B/C"),
        ("affine", cmd_affine, "spectral and Lyapunov analysis of an affine system"),
        ("experiment", cmd_experiment, "run a Monte Carlo ensemble and verdict"),
        ("consistency", cmd_consistency, "compare schedule derivations across step sizes"),
    ):
        p = sub.add_parser(name, help=helptext)
        _add_common(p)
        p.set_defaults(fn=fn)
    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.set_defaults(fn=cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, QuadratureError, PathError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
