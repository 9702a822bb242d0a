"""The config schema: one table of keys, each read and checked whichever command runs."""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from ssbelab import config
from ssbelab.cli import main

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("simulate", "classify", "affine", "experiment", "consistency")
SHIPPED = sorted(p.name for p in (ROOT / "configs").glob("*.cfg"))

_POSITIVE = ("nan", "inf", "-inf", "0", "-1", "abc", "")
_FRACTION = ("nan", "inf", "-1", "1.5", "1e308", "abc")
_COUNT = ("0", "-1", "1.5", "1e308", "nan", "abc")
_INDEX = ("-1", "1.5", "nan", "abc")
_MATRIX = ("nan,0;0,-1", "-1,0", "1,2;3", "abc", "inf")
_NUMBER = ("abc", "", "1,2")

# Values outside each key's domain, written out here rather than taken
# from the table, so that a loosened reader fails the property below.
OUT_OF_DOMAIN = {
    **{key: _POSITIVE for key in (
        "run.h", "thresholds.converge", "thresholds.escape", "thresholds.bounded_cap",
        "thresholds.osc_min", "classify.eps_min", "classify.eps_max")},
    **{key: _FRACTION for key in ("run.window_fraction", "thresholds.fraction",
                                  "thresholds.osc_fraction")},
    **{key: _COUNT for key in ("drift.d", "run.r", "run.steps", "run.paths", "classify.eps_points")},
    **{key: _INDEX for key in ("run.path_index", "classify.truncation")},
    **{key: _MATRIX for key in ("drift.A", "affine.A")},
    **{key: _NUMBER for key in ("drift.lam", "drift.c", "schedule.c", "schedule.p", "schedule.rho",
                                "schedule.a", "schedule.b", "schedule.sigma_c", "schedule.sigma_a",
                                "schedule.sigma_b", "schedule.sigma_p")},
    "run.tol": ("nan", "inf", "-1", "-1e-12", "abc"),
    "run.master_seed": ("-1", str(2**64), "1e308", "abc"),
    "run.zeta": ("nan", "1,inf", "abc", "1,,2"),
    "consistency.h_grid": ("0", "-0.1,0.1", "0.1,nan", "inf", "abc"),
    "run.record_mode": ("thin:0", "thin:x", "bogus", ""),
    "affine.matrix_csv": ("no/such/matrix.csv",),
}
# Family and file names: only their builders know the catalogue.
TEXT_KEYS = {"drift.name", "schedule.kind", "schedule.sigma", "schedule.path", "output.dir"}

BAD_PAIRS = [(key, value) for key, values in sorted(OUT_OF_DOMAIN.items()) for value in values]

# Drawn for any key: in and out of every domain, with no count large
# enough to make a run slow.
VALUES = ("nan", "inf", "-inf", "-1", "0", "1", "2", "0.5", "1e308", "-1e308", "1e-320", "abc",
          "", "1,2", "-1,0;0,-2", "1;2", "thin:2", "full", "summary", "cubic", "linear",
          "power", "exp_decay", "sigma_cell_rms", "tabulated")
SMALL = ("run.steps=20", "run.paths=2", "classify.truncation=200", "consistency.h_grid=0.5,1")


def _run(command, name, pairs, out):
    """``main``'s exit code and stderr for a shipped config with ``pairs`` set."""
    argv = [command, str(ROOT / "configs" / name), "--out", out]
    for pair in pairs:
        argv += ["--set", pair]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv)
    return rc, err.getvalue()


def test_every_key_has_out_of_domain_values_or_is_text():
    assert set(OUT_OF_DOMAIN) | TEXT_KEYS == set(config.SCHEMA)
    assert not set(OUT_OF_DOMAIN) & TEXT_KEYS


@settings(max_examples=400, deadline=None, derandomize=True)
@given(command=st.sampled_from(COMMANDS), name=st.sampled_from(SHIPPED),
       pair=st.sampled_from(BAD_PAIRS))
def test_an_out_of_domain_value_exits_2_naming_its_key(command, name, pair):
    # Each command used to check only the keys it read: classify with
    # run.zeta = nan exited 0.
    key, value = pair
    with tempfile.TemporaryDirectory() as out:
        rc, err = _run(command, name, SMALL + (f"{key}={value}",), out)
        assert rc == 2
        assert key in err
        assert list(Path(out).iterdir()) == []


@settings(max_examples=500, deadline=None, derandomize=True)
@given(command=st.sampled_from(COMMANDS), name=st.sampled_from(SHIPPED),
       key=st.sampled_from(sorted(config.SCHEMA)), value=st.sampled_from(VALUES))
def test_no_value_lets_an_exception_escape(command, name, key, value):
    # A missing schedule.p, arctan's slope at 1e200 and exp(-a h) rounded to
    # 0.0 or 1.0 each raised an exception that escaped main. The suite's
    # error::RuntimeWarning filter holds here too: an overflow warning from
    # numpy escapes main as an exception.
    with tempfile.TemporaryDirectory() as out:
        rc, _ = _run(command, name, SMALL + (f"{key}={value}",), out)
    assert rc in (0, 1, 2)


def _readme_keys():
    text = (ROOT / "README.md").read_text()
    block = text.split("## Config schema", 1)[1].split("```", 2)[1]
    keys = []
    for line in block.splitlines():
        if not line or line[0].isspace():
            continue
        for token in line.split():
            if re.fullmatch(r"[a-z]+\.\w+", token):
                keys.append(token)
            elif re.fullmatch(r"\.\w+", token):  # ".p" after "schedule.c" is schedule.p
                keys.append(keys[-1].split(".")[0] + token)
            else:
                break
    return keys


def test_readme_lists_exactly_the_schema():
    keys = _readme_keys()
    assert len(keys) == len(set(keys))
    assert set(keys) == set(config.SCHEMA)
