"""Command line: ssbelab <command> <config> [--set KEY=VALUE]... [--out DIR] [--seed N], or ssbelab selftest.
Flags read --flag=value too, unabbreviated; --help prints usage; exit 1 if verdicts disagree, 2 on an error."""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

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


COMMANDS = {"simulate": cmd_simulate, "classify": cmd_classify, "affine": cmd_affine,
            "experiment": cmd_experiment, "consistency": cmd_consistency, "selftest": cmd_selftest}
USAGE = ("usage: ssbelab {simulate,classify,affine,experiment,consistency} <config>"
         " [--set KEY=VALUE]... [--out DIR] [--seed N]\n       ssbelab selftest\n")


def _read_line(words):
    """The handler and options of a command line, read in one pass; a malformed line raises ValueError."""
    if not words or words[0] not in COMMANDS:
        raise ValueError(f"unknown command {words[0]!r}" if words else "missing command")
    if words[0] == "selftest" and words[1:]:
        raise ValueError("selftest takes no arguments")
    args = SimpleNamespace(config=None, overrides=[], out=None, seed=None)
    rest = iter(words[1:])
    for word in rest:
        flag, eq, value = word.partition("=")
        if not word.startswith("-"):
            if args.config is not None:
                raise ValueError(f"unexpected second config {word!r}")
            args.config = word
        elif flag not in ("--set", "--out", "--seed"):
            raise ValueError(f"unknown flag {flag!r}")
        elif not eq and (value := next(rest, "-")).startswith("-"):
            raise ValueError(f"{flag} needs a value")
        elif flag == "--seed" and not value.strip().lstrip("+-").isdigit():
            raise ValueError(f"--seed needs an integer, got {value!r}")
        elif flag == "--set":
            args.overrides.append(value)
        else:
            setattr(args, flag[2:], int(value) if flag == "--seed" else value)
    if args.config is None and words[0] != "selftest":
        raise ValueError(f"{words[0]} needs a config file")
    return COMMANDS[words[0]], args


def main(argv=None) -> int:
    words = sys.argv[1:] if argv is None else list(argv)
    if "-h" in words or "--help" in words:
        print(USAGE, end="")
        return 0
    try:
        fn, args = _read_line(words)
    except ValueError as exc:
        print(f"{USAGE}error: {exc}", file=sys.stderr)
        return 2
    try:
        return fn(args)
    except (ConfigError, QuadratureError, PathError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
