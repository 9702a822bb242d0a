"""Correctness gate for one run's outputs.  Standard library only.

Verdict checks read what the CLI wrote and apply on every seed:

- ``experiment``: the predicted regime, ``consistent = true``, and the
  observed fractions, which are recomputed from ``ensemble.csv`` with the
  thresholds in ``ensemble_report.kv`` and must equal the reported ones and
  meet the predicted regime's rule;
- ``classify``: the regime label and the decision method.

Reference checks apply at the default seed only: every ``ensemble.csv``
cell, and the final row of the simulated ``path.csv``, must match the
values committed under ``reference/`` to 1e-9 relative.
"""

from __future__ import annotations

import hashlib
import math
import os

REL_TOL = 1e-9
CHECKPOINT_COLUMNS = ("tavg_c1e3", "tavg_c1e4", "tavg_c1e5")


def read_kv(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition(" = ")
            if sep:
                out[key] = value
    return out


def read_csv(path):
    """(header, rows) of a CSV whose comment lines start with '#'."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def close(a: str, b: str) -> bool:
    x, y = float(a), float(b)
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y or abs(x - y) <= REL_TOL * max(abs(x), abs(y))


def compare_tables(header, rows, ref_header, ref_rows, label):
    if header != ref_header:
        return [f"{label}: columns {header} differ from the reference {ref_header}"]
    if len(rows) != len(ref_rows):
        return [f"{label}: {len(rows)} rows, reference has {len(ref_rows)}"]
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, a, b in zip(header, row, ref):
            if not close(a, b):
                return [f"{label}: row {i} column {col} is {a}, reference {b}"]
    return []


def recompute_fractions(header, rows, kv):
    """The harness's path verdicts, from the CSV rows and the kv thresholds."""
    th = {k: float(kv[f"threshold.{k}"]) for k in ("converge", "escape", "bounded_cap", "osc_min")}
    col = {name: i for i, name in enumerate(header)}
    n = len(rows)
    conv = esc = bounded = osc = dec = 0
    for row in rows:
        wmin = float(row[col["window_min"]])
        wmax = float(row[col["window_max"]])
        sup = float(row[col["sup_norm"]])
        conv += wmax < th["converge"]
        esc += wmax >= th["converge"] and sup > th["escape"]
        bounded += (
            wmax >= th["converge"]
            and sup <= min(th["escape"], th["bounded_cap"])
            and wmin <= th["osc_min"]
        )
        osc += wmin <= th["osc_min"]
        cps = [float(row[col[c]]) for c in CHECKPOINT_COLUMNS]
        cps = [v for v in cps if not math.isnan(v)] + [float(row[col["time_avg_sq"]])]
        dec += all(b <= a for a, b in zip(cps, cps[1:]))
    return {
        "converged": conv / n,
        "bounded_oscillatory": bounded / n,
        "escaped": esc / n,
        "window_min_le_osc": osc / n,
        "tavg_decreasing": dec / n,
    }


def _regime_rule_holds(regime, fr, kv):
    frac = float(kv["threshold.fraction"])
    osc_frac = float(kv["threshold.osc_fraction"])
    if regime == "A":
        return fr["converged"] >= frac
    if regime == "B":
        return (
            fr["bounded_oscillatory"] >= frac
            and fr["window_min_le_osc"] >= osc_frac
            and fr["tavg_decreasing"] >= osc_frac
        )
    if regime == "C":
        return fr["escaped"] >= frac
    return False


def check_experiment(out_dir, expect, ref_dir=None):
    kv = read_kv(os.path.join(out_dir, "ensemble_report.kv"))
    header, rows = read_csv(os.path.join(out_dir, "ensemble.csv"))
    fails = []
    if kv.get("predicted_regime") != expect["regime"]:
        fails.append(f"predicted regime {kv.get('predicted_regime')}, expected {expect['regime']}")
    if kv.get("consistent") != "true":
        fails.append(f"consistent = {kv.get('consistent')}")
    if len(rows) != int(kv["config.run.paths"]):
        fails.append(f"ensemble.csv has {len(rows)} rows for {kv['config.run.paths']} paths")
        return fails
    fr = recompute_fractions(header, rows, kv)
    for key, value in fr.items():
        if float(kv[f"fraction.{key}"]) != value:
            fails.append(f"fraction.{key} = {kv[f'fraction.{key}']} but ensemble.csv gives {value!r}")
    if not _regime_rule_holds(expect["regime"], fr, kv):
        fails.append(f"observed fractions {fr} break the regime {expect['regime']} rule")
    if ref_dir is not None:
        ref_header, ref_rows = read_csv(os.path.join(ref_dir, "ensemble.csv"))
        fails += compare_tables(header, rows, ref_header, ref_rows, "ensemble.csv")
    return fails


def check_classify(out_dir, expect, ref_dir=None):
    kv = read_kv(os.path.join(out_dir, "regime_report.kv"))
    fails = []
    for key in ("regime", "method"):
        if kv.get(key) != expect[key]:
            fails.append(f"classify {key} {kv.get(key)}, expected {expect[key]}")
    return fails


def check_simulate(out_dir, expect, ref_dir=None):
    with open(os.path.join(out_dir, "path.csv")) as fh:
        text = fh.read()
    steps = int(text.split("# N:", 1)[1].split("\n", 1)[0])
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    header, last = lines[0].split(","), lines[-1].split(",")
    fails = []
    if len(lines) - 1 != steps + 1 or last[0] != str(steps):
        fails.append(f"path.csv has {len(lines) - 1} rows ending at n={last[0]} for N={steps}")
    d = (len(header) - 1) // 3
    if not all(math.isfinite(float(v)) for v in last[1 : 1 + d]):
        fails.append(f"path.csv final state is not finite: {last}")
    if ref_dir is not None:
        ref_header, ref_rows = read_csv(os.path.join(ref_dir, "path_final.csv"))
        fails += compare_tables(header, [last], ref_header, ref_rows, "path.csv final row")
    return fails


CHECKS = {"experiment": check_experiment, "classify": check_classify, "simulate": check_simulate}


def check_outputs(steps, out_dir, ref_root=None):
    """Failures of every step of a session; ``ref_root`` enables reference checks."""
    fails = []
    for step in steps:
        sub = os.path.join(out_dir, step.name)
        ref = os.path.join(ref_root, step.name) if ref_root is not None else None
        try:
            fails += [f"{step.name}: {f}" for f in CHECKS[step.command](sub, step.expect, ref)]
        except (OSError, KeyError, ValueError, IndexError) as exc:
            fails.append(f"{step.name}: unreadable output ({type(exc).__name__}: {exc})")
    return fails


def digest(out_dir):
    """sha256 of every file under ``out_dir``, keyed by relative path."""
    out = {}
    for root, _, files in os.walk(out_dir):
        for name in sorted(files):
            path = os.path.join(root, name)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            out[os.path.relpath(path, out_dir)] = h.hexdigest()
    return out


def digest_mismatch(first, current):
    if first.keys() != current.keys():
        return [f"output files differ from the first run: {sorted(first.keys() ^ current.keys())}"]
    return [f"{k} is not byte-identical to the first run" for k in sorted(first) if first[k] != current[k]]
