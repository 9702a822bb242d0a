"""Flat key-value configuration files and the objects they describe.

Schema (dotted keys, one ``key = value`` per line, ``#`` comments); any
other key is rejected:

    drift.name       linear | cubic | saturating | arctan
    drift.d          state dimension (default 1)
    drift.lam/.c/.A  family parameters (A as rows "a,b;c,d")

    schedule.kind    zero | constant | power | geometric | inverse_log |
                     tabulated | sigma_sampled | sigma_cell_rms
    schedule.c/.p/.rho/.a/.b   family parameters
    schedule.path    CSV path for tabulated schedules
    schedule.sigma   continuous family for derived kinds
                     (exp_decay | constant | power_decay | inverse_log_t)
    schedule.sigma_* parameters of the continuous family

    run.h            step size
    run.r            noise dimension (default 1)
    run.steps        steps per path
    run.paths        number of paths
    run.zeta         initial state, comma-separated
    run.master_seed  unsigned 64-bit seed
    run.path_index   substream of the simulated path (default 0)
    run.record_mode  full | summary | thin:k
    run.window_fraction   trailing window as a fraction of steps
    run.tol          implicit-solve residual tolerance

    thresholds.converge / .escape / .bounded_cap / .osc_min / .fraction
                     verdict thresholds (pilot-calibrated defaults)

    classify.eps_min / .eps_max / .eps_points / .truncation

    consistency.h_grid   comma-separated step sizes

    affine.A / .matrix_csv   matrix for the affine command, inline or as CSV

    output.dir       output directory (flag > config > SSBELAB_OUT > cwd)

CLI flags override any key via ``--set key=value``.
"""

from __future__ import annotations

import difflib
import os
from dataclasses import dataclass, field, fields

import numpy as np

from ssbelab.drifts import DriftSpec, builtin_drift
from ssbelab.integrator import default_window
from ssbelab.schedules import (
    NoiseSchedule,
    from_sigma_cell_rms,
    from_sigma_sampled,
    schedule_family,
    sigma_family,
    tabulated_schedule,
)

OUTPUT_ENV_VAR = "SSBELAB_OUT"

# Every key a command reads; the docstring above describes each.
KEYS = frozenset(
    """
    drift.name drift.d drift.lam drift.c drift.A
    schedule.kind schedule.c schedule.p schedule.rho schedule.a schedule.b
    schedule.path schedule.sigma schedule.sigma_c schedule.sigma_a
    schedule.sigma_b schedule.sigma_p
    run.h run.r run.steps run.paths run.zeta run.master_seed run.path_index
    run.record_mode run.window_fraction run.tol
    thresholds.converge thresholds.escape thresholds.bounded_cap
    thresholds.osc_min thresholds.fraction thresholds.osc_fraction
    classify.eps_min classify.eps_max classify.eps_points classify.truncation
    consistency.h_grid affine.A affine.matrix_csv output.dir
    """.split()
)


class ConfigError(ValueError):
    pass


def check_keys(cfg: dict[str, str]) -> None:
    """Reject a key outside ``KEYS``, naming the nearest known key."""
    for key in cfg:
        if key not in KEYS:
            near = difflib.get_close_matches(key, KEYS, n=1)
            hint = f" (did you mean {near[0]!r}?)" if near else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")


def output_dir(cfg: dict[str, str], flag: str | None = None) -> str:
    """Where outputs go: the --out flag, then output.dir, then $SSBELAB_OUT, then the cwd."""
    return flag or cfg.get("output.dir") or os.environ.get(OUTPUT_ENV_VAR) or "."


def parse_config_text(text: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def load_config(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        return parse_config_text(fh.read())


def apply_overrides(cfg: dict[str, str], pairs) -> dict[str, str]:
    out = dict(cfg)
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"override must be key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _get(cfg, key, default=None, required=False):
    if key in cfg:
        return cfg[key]
    if required:
        raise ConfigError(f"missing required config key: {key}")
    return default


def _as(convert, what, cfg, key, default, required):
    v = _get(cfg, key, default, required)
    if v is None:
        return None
    try:
        return convert(v)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be {what}, got {v!r}") from None


def as_float(cfg, key, default=None, required=False):
    return _as(float, "a number", cfg, key, default, required)


def as_int(cfg, key, default=None, required=False):
    return _as(int, "an integer", cfg, key, default, required)


def as_floats(cfg, key, default=None, required=False):
    v = _get(cfg, key, default, required)
    if v is None:
        return None
    if isinstance(v, (list, tuple, np.ndarray)):
        return np.asarray(v, dtype=np.float64)
    try:
        return np.array([float(tok) for tok in str(v).split(",")], dtype=np.float64)
    except ValueError:
        raise ConfigError(f"{key} must be comma-separated numbers, got {v!r}") from None


def parse_matrix(text: str) -> np.ndarray:
    """Inline matrix: rows separated by ';', entries by ','."""
    rows = [[float(tok) for tok in row.split(",")] for row in text.split(";")]
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise ConfigError("matrix rows have inconsistent lengths")
    return np.asarray(rows, dtype=np.float64)


def build_drift(cfg: dict[str, str]) -> DriftSpec:
    name = _get(cfg, "drift.name", required=True)
    d = as_int(cfg, "drift.d", 1)
    try:
        if name == "linear":
            if "drift.A" in cfg:
                return builtin_drift("linear", A=parse_matrix(cfg["drift.A"]))
            return builtin_drift("linear", lam=as_float(cfg, "drift.lam", 1.0), d=d)
        if name == "cubic":
            return builtin_drift("cubic", d=d)
        if name == "arctan":
            return builtin_drift("arctan", d=d)
        if name == "saturating":
            return builtin_drift("saturating", c=as_float(cfg, "drift.c", 1.0), d=d)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown drift.name: {name!r}")


def build_continuous_sigma(cfg: dict[str, str], d: int, r: int):
    name = _get(cfg, "schedule.sigma", required=True)
    kwargs = {"d": d, "r": r}
    for pkey, ckey in (
        ("c", "schedule.sigma_c"),
        ("a", "schedule.sigma_a"),
        ("b", "schedule.sigma_b"),
        ("p", "schedule.sigma_p"),
    ):
        if ckey in cfg:
            kwargs[pkey] = as_float(cfg, ckey)
    try:
        return sigma_family(name, **kwargs)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad continuous sigma family: {exc}") from exc


def build_schedule(cfg: dict[str, str]) -> NoiseSchedule:
    kind = _get(cfg, "schedule.kind", required=True)
    h = as_float(cfg, "run.h", required=True)
    d = as_int(cfg, "drift.d", 1)
    if "drift.A" in cfg:
        d = parse_matrix(cfg["drift.A"]).shape[0]
    r = as_int(cfg, "run.r", 1)
    try:
        if kind in ("zero", "constant", "power", "geometric", "inverse_log"):
            params = {}
            for p in ("c", "p", "rho", "a", "b"):
                key = f"schedule.{p}"
                if key in cfg:
                    params[p] = as_float(cfg, key)
            return schedule_family(kind, h=h, d=d, r=r, **params)
        if kind == "tabulated":
            path = _get(cfg, "schedule.path", required=True)
            return tabulated_schedule(path, h=h, d=d, r=r)
        if kind == "sigma_sampled":
            return from_sigma_sampled(build_continuous_sigma(cfg, d, r), h)
        if kind == "sigma_cell_rms":
            return from_sigma_cell_rms(build_continuous_sigma(cfg, d, r), h)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc
    raise ConfigError(f"unknown schedule.kind: {kind!r}")


@dataclass(frozen=True)
class Thresholds:
    converge: float = 0.05
    escape: float = 3.0
    bounded_cap: float = 12.0
    osc_min: float = 0.1
    fraction: float = 0.95
    osc_fraction: float = 0.90


@dataclass(frozen=True)
class RunSettings:
    r: int
    steps: int
    paths: int
    zeta: np.ndarray
    master_seed: int
    record_mode: str
    window: int
    tol: float
    thresholds: Thresholds
    out_dir: str
    echo: dict[str, str] = field(default_factory=dict)


def build_run(cfg: dict[str, str], d: int, out_flag: str | None = None) -> RunSettings:
    steps = as_int(cfg, "run.steps", required=True)
    if steps < 1:
        raise ConfigError("run.steps must be >= 1")
    paths = as_int(cfg, "run.paths", 1)
    if paths < 1:
        raise ConfigError("run.paths must be >= 1")
    zeta = as_floats(cfg, "run.zeta", required=True)
    if zeta.shape != (d,):
        raise ConfigError(f"run.zeta must have shape ({d},), got {zeta.size} components")
    window = default_window(steps, as_float(cfg, "run.window_fraction", 0.01))
    thresholds = Thresholds(
        **{f.name: as_float(cfg, f"thresholds.{f.name}", f.default) for f in fields(Thresholds)}
    )
    seed = as_int(cfg, "run.master_seed", required=True)
    if not 0 <= seed < 2**64:
        raise ConfigError("run.master_seed must be an unsigned 64-bit integer")
    return RunSettings(
        r=as_int(cfg, "run.r", 1),
        steps=steps,
        paths=paths,
        zeta=zeta,
        master_seed=seed,
        record_mode=_get(cfg, "run.record_mode", "summary"),
        window=window,
        tol=as_float(cfg, "run.tol", 1e-12),
        thresholds=thresholds,
        out_dir=output_dir(cfg, out_flag),
        echo=dict(cfg),
    )
