"""Flat key-value configuration files and the objects they describe.

A config file holds one ``key = value`` per line (``#`` starts a comment);
``--set key=value`` overrides any key. ``SCHEMA`` lists every key with its
reader and default, and README.md's "Config schema" shows it to users. A
reader parses a value's text and holds its domain, so ``get`` returns a
checked value or raises ``ConfigError`` naming the key; ``check_keys``
reads every key present, whichever command runs. Family parameters are
read as plain numbers and family names as text: their builders know
each family's range and catalogue.
"""

from __future__ import annotations

import difflib
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from ssbelab.classifier import classify, default_epsilon_grid
from ssbelab.drifts import DriftSpec, builtin_drift
from ssbelab.integrator import _parse_record_mode, default_window
from ssbelab.schedules import (
    NoiseSchedule,
    from_sigma_cell_rms,
    from_sigma_sampled,
    schedule_family,
    sigma_family,
    tabulated_schedule,
)

OUTPUT_ENV_VAR = "SSBELAB_OUT"


class ConfigError(ValueError):
    pass


class _Outside(Exception):
    """A value outside a reader's domain, as ``(domain, shown)``; ``get`` adds the key."""


def _reader(convert, what, *checks):
    """Parse the text by ``convert``, else it must ``what``; then hold the value to each
    ``(ok, domain)``. A number outside a domain is shown parsed, any other value as text.
    """
    def read(text):
        try:
            value = convert(text)
        except (OSError, ValueError):
            raise _Outside(what, text) from None
        for ok, domain in checks:
            if not ok(value):
                raise _Outside(domain, value if isinstance(value, (int, float)) else text)
        return value
    return read


def parse_matrix(text: str) -> np.ndarray:
    """Inline matrix: rows separated by ';', entries by ','."""
    rows = [[float(tok) for tok in row.split(",")] for row in text.split(";")]
    width = {len(r) for r in rows}
    if len(width) != 1:
        raise ConfigError("matrix rows have inconsistent lengths")
    return np.asarray(rows, dtype=np.float64)


def _record_mode(text):
    _parse_record_mode(text)  # its ValueError states the domain
    return text


_NUMBER, _INT, _NUMBERS = "be a number", "be an integer", "be comma-separated numbers"
_MATRIX_CHECKS = (
    (lambda A: np.isfinite(A).all(), "have finite entries"),
    (lambda A: A.shape[0] == A.shape[1], "be square"),
)

TEXT = str
NUMBER = _reader(float, _NUMBER)
POSITIVE = _reader(float, _NUMBER, (lambda v: 0.0 < v < math.inf, "be a finite number > 0"))
FRACTION = _reader(float, _NUMBER, (lambda v: 0.0 <= v <= 1.0, "be a number in [0, 1]"))
NON_NEGATIVE = _reader(float, _NUMBER, (lambda v: 0.0 <= v < math.inf, "be a finite number >= 0"))
COUNT = _reader(int, _INT, (lambda v: v >= 1, "be >= 1"))
INDEX = _reader(int, _INT, (lambda v: v >= 0, "be >= 0"))
SEED = _reader(int, _INT, (lambda v: 0 <= v < 2**64, "be an unsigned 64-bit integer"))
_floats = lambda text: np.array([float(tok) for tok in text.split(",")])
FINITES = _reader(_floats, _NUMBERS, (lambda v: np.isfinite(v).all(), "be finite"))
POSITIVES = _reader(_floats, _NUMBERS, (lambda v: (np.isfinite(v) & (v > 0)).all(),
                                        "hold finite numbers > 0"))
MATRIX = _reader(parse_matrix, "be rows 'a,b;c,d' of numbers", *_MATRIX_CHECKS)
MATRIX_CSV = _reader(lambda path: np.loadtxt(path, delimiter=",", ndmin=2),
                     "name a CSV file of numbers", *_MATRIX_CHECKS)


@dataclass(frozen=True)
class Thresholds:
    converge: float = 0.05
    escape: float = 3.0
    bounded_cap: float = 12.0
    osc_min: float = 0.1
    fraction: float = 0.95
    osc_fraction: float = 0.90


# Unset classify.* keys take the classifier's own defaults.
_EPS_MIN, _EPS_MAX, _EPS_POINTS = default_epsilon_grid.__defaults__

# The parameter keys of the discrete schedule families and of the continuous ones.
_FAMILY_KEYS = ("c", "p", "rho", "a", "b")
_SIGMA_KEYS = ("sigma", "sigma_c", "sigma_a", "sigma_b", "sigma_p")

# Every key a command reads: (reader, default).
SCHEMA = {
    "drift.name": (TEXT, None),
    "drift.d": (COUNT, 1),
    "drift.lam": (NUMBER, None),
    "drift.c": (NUMBER, None),
    "drift.A": (MATRIX, None),
    "schedule.kind": (TEXT, None),
    "schedule.path": (TEXT, None),
    "schedule.sigma": (TEXT, None),
    **{f"schedule.{p}": (NUMBER, None) for p in _FAMILY_KEYS + _SIGMA_KEYS[1:]},
    "run.h": (POSITIVE, None),
    "run.r": (COUNT, 1),
    "run.steps": (COUNT, None),
    "run.paths": (COUNT, 1),
    "run.zeta": (FINITES, None),
    "run.master_seed": (SEED, None),
    "run.path_index": (INDEX, 0),
    "run.record_mode": (_record_mode, "summary"),
    "run.window_fraction": (FRACTION, 0.01),
    "run.tol": (NON_NEGATIVE, 1e-12),
    **{f"thresholds.{f.name}": (FRACTION if f.name.endswith("fraction") else POSITIVE, f.default)
       for f in fields(Thresholds)},
    "classify.eps_min": (POSITIVE, _EPS_MIN),
    "classify.eps_max": (POSITIVE, _EPS_MAX),
    "classify.eps_points": (COUNT, _EPS_POINTS),
    "classify.truncation": (INDEX, classify.__defaults__[-1]),
    "consistency.h_grid": (POSITIVES, None),
    "affine.A": (MATRIX, None),
    "affine.matrix_csv": (MATRIX_CSV, None),
    "output.dir": (TEXT, None),
}


def get(cfg: dict[str, str], key: str, required: bool = False):
    """The value of ``key`` read and checked by its reader, or its default if unset."""
    read, default = SCHEMA[key]
    if key not in cfg:
        if required:
            raise ConfigError(f"missing required config key: {key}")
        return default
    try:
        return read(cfg[key])
    except _Outside as exc:
        raise ConfigError("{} must {}, got {!r}".format(key, *exc.args)) from None
    except ValueError as exc:  # a domain stated by another module (run.record_mode)
        raise ConfigError(f"{key}: {exc}") from None


def check_keys(cfg: dict[str, str]) -> None:
    """Read every key, rejecting one outside ``SCHEMA`` with the nearest known key."""
    for key in cfg:
        if key not in SCHEMA:
            near = difflib.get_close_matches(key, SCHEMA, n=1)
            hint = f" (did you mean {near[0]!r}?)" if near else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")
        get(cfg, key)


def output_dir(cfg: dict[str, str], flag: str | None = None) -> str:
    """Where outputs go: the --out flag, then output.dir, then $SSBELAB_OUT, then the cwd."""
    return flag or get(cfg, "output.dir") or os.environ.get(OUTPUT_ENV_VAR) or "."


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


def _drift_A(cfg: dict[str, str]):
    """drift.A, which only the linear drift reads; it sets the dimension when set."""
    A, name = get(cfg, "drift.A"), get(cfg, "drift.name")
    if A is not None and name not in (None, "linear"):
        raise ConfigError(
            f"drift.A must be unset unless drift.name = linear, got drift.name = {name!r}")
    return A


def build_drift(cfg: dict[str, str]) -> DriftSpec:
    """The ``drift.name`` family with every drift key that is set; drift.A replaces lam and d."""
    name = get(cfg, "drift.name", required=True)
    keys = ("A", "c") if _drift_A(cfg) is not None else ("lam", "c", "d")
    try:
        return builtin_drift(name, **_set_params(cfg, "drift.", keys))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _set_params(cfg: dict[str, str], prefix: str, names) -> dict:
    """``{name: value}`` for each ``prefix + name`` key that is set."""
    return {n: get(cfg, prefix + n) for n in names if prefix + n in cfg}


def build_continuous_sigma(cfg: dict[str, str], d: int, r: int):
    name = get(cfg, "schedule.sigma", required=True)
    params = _set_params(cfg, "schedule.sigma_", ("c", "a", "b", "p"))
    try:
        return sigma_family(name, d=d, r=r, **params)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad continuous sigma family: {exc}") from exc


# The schedule.* keys each schedule.kind reads; a discrete family rejects those it has no use for.
SCHEDULE_READS = {
    **dict.fromkeys(("zero", "constant", "power", "geometric", "inverse_log"), _FAMILY_KEYS),
    "tabulated": ("path",),
    "sigma_sampled": _SIGMA_KEYS,
    "sigma_cell_rms": _SIGMA_KEYS,
}


def _reject_unread_schedule_keys(cfg: dict[str, str], reads, where: str) -> None:
    unread = sorted(key for key in cfg if key.startswith("schedule.") and key[9:] not in reads)
    if unread:
        raise ConfigError(f"{', '.join(unread)} must be unset {where}")


def build_schedule(cfg: dict[str, str]) -> NoiseSchedule:
    kind = get(cfg, "schedule.kind", required=True)
    h = get(cfg, "run.h", required=True)
    A = _drift_A(cfg)
    d = get(cfg, "drift.d") if A is None else A.shape[0]
    r = get(cfg, "run.r")
    if kind not in SCHEDULE_READS:
        raise ConfigError(f"unknown schedule.kind: {kind!r}")
    reads = SCHEDULE_READS[kind]
    _reject_unread_schedule_keys(cfg, ("kind", *reads), f"for schedule.kind = {kind}")
    try:
        if kind == "tabulated":
            return tabulated_schedule(get(cfg, "schedule.path", required=True), h=h, d=d, r=r)
        if kind == "sigma_sampled":
            return from_sigma_sampled(build_continuous_sigma(cfg, d, r), h)
        if kind == "sigma_cell_rms":
            return from_sigma_cell_rms(build_continuous_sigma(cfg, d, r), h)
        return schedule_family(kind, h=h, d=d, r=r, **_set_params(cfg, "schedule.", reads))
    except ConfigError:
        raise
    except (OSError, ValueError, TypeError) as exc:
        raise ConfigError(f"bad schedule: {exc}") from exc


def build_consistency_sigma(cfg: dict[str, str], d: int, r: int):
    """``consistency``'s source: schedule.kind is read where it names a kind derived from it."""
    derived = SCHEDULE_READS.get(get(cfg, "schedule.kind")) == _SIGMA_KEYS
    _reject_unread_schedule_keys(cfg, ("kind",) * derived + _SIGMA_KEYS, "for consistency")
    return build_continuous_sigma(cfg, d, r)


def build_epsilon_grid(cfg: dict[str, str]) -> np.ndarray:
    """``default_epsilon_grid`` from the classify.eps_* keys."""
    keys = ("classify.eps_min", "classify.eps_max", "classify.eps_points")
    return default_epsilon_grid(*(get(cfg, key) for key in keys))


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
    steps = get(cfg, "run.steps", required=True)
    zeta = get(cfg, "run.zeta", required=True)
    if zeta.shape != (d,):
        raise ConfigError(f"run.zeta must have shape ({d},), got {zeta.size} components")
    return RunSettings(
        r=get(cfg, "run.r"),
        steps=steps,
        paths=get(cfg, "run.paths"),
        zeta=zeta,
        master_seed=get(cfg, "run.master_seed", required=True),
        record_mode=get(cfg, "run.record_mode"),
        window=default_window(steps, get(cfg, "run.window_fraction")),
        tol=get(cfg, "run.tol"),
        thresholds=Thresholds(**{f.name: get(cfg, f"thresholds.{f.name}") for f in fields(Thresholds)}),
        out_dir=output_dir(cfg, out_flag),
        echo=dict(cfg),
    )
