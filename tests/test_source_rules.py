"""Rules over the package source, checked on its syntax tree."""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ssbelab"


def _special_calls_with_where(source: str) -> list[str]:
    """Calls of a scipy.special function that pass ``where=``, as "name:line".

    A ``where=`` mask on a scipy.special ufunc writes results to the wrong
    slots (and can corrupt memory), so such a call must gather and scatter
    instead.
    """
    tree = ast.parse(source)
    names, modules = set(), {"scipy.special"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "scipy.special":
            names |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy":
            modules |= {alias.asname or alias.name for alias in node.names if alias.name == "special"}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname for alias in node.names if alias.name == "scipy.special" and alias.asname}
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or not any(kw.arg == "where" for kw in node.keywords):
            continue
        func = ast.unparse(node.func)
        if func in names or func.rsplit(".", 1)[0] in modules:
            found.append(f"{func}:{node.lineno}")
    return found


def test_no_scipy_special_call_passes_where():
    imported = set()
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        assert _special_calls_with_where(source) == [], path.name
        if "scipy.special" in source:
            imported.add(path.name)
    assert {"normal.py", "gaussian.py", "schedules.py"} <= imported


def test_the_rule_sees_every_import_form():
    bad = (
        "from scipy.special import erfc as _erfc_arr, ndtri\n"
        "import scipy.special\nimport scipy.special as sc\nfrom scipy import special\n"
        "_erfc_arr(q, out=q, where=m)\nndtri(u, where=m)\nscipy.special.erfc(q, where=m)\n"
        "sc.gammaincc(a, x, where=m)\nspecial.erfc(q, where=m)\n"
        "_erfc_arr(q, out=q)\nnp.exp(t, out=t, where=m)\n"
    )
    assert _special_calls_with_where(bad) == [
        "_erfc_arr:5", "ndtri:6", "scipy.special.erfc:7", "sc.gammaincc:8", "special.erfc:9",
    ]


def _calls(source: str, names) -> dict[str, int]:
    """How many calls ``<name>(...)`` or ``<expr>.<name>(...)`` the source makes, per name."""
    counts = dict.fromkeys(names, 0)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in counts:
                counts[name] += 1
    return counts


def test_the_engines_share_one_step_loop():
    # Both engines run the one private step loop: a second loop, with its
    # own overflow context, shock assembly or diagnostics fold, fails here.
    source = (SRC / "integrator.py").read_text()
    assert _calls(source, ("errstate", "shocks", "fold")) == {
        "errstate": 1, "shocks": 1, "fold": 1,
    }


def test_the_harness_judges_an_ensemble_in_one_place():
    # The consistency suite runs run_ensemble on each derived schedule; a
    # second simulate -> classify -> verdict pipeline fails here.
    names = ("integrate_paths_lockstep", "classify", "compute_fractions", "consistency_verdict")
    assert _calls((SRC / "harness.py").read_text(), names) == dict.fromkeys(names, 1)
    assert _calls("f(1)\nf(g(2))\nobj.f(3)\nf\nf()()\n", ("f", "g")) == {"f": 4, "g": 1}


def test_the_config_reads_the_drift_catalogue_once():
    # build_drift passes every drift key that is set to the one catalogue,
    # which alone knows each family's name and parameters.
    assert _calls((SRC / "config.py").read_text(), ("builtin_drift",)) == {"builtin_drift": 1}


def _linear_drift_specs(source: str) -> int:
    """How many ``DriftSpec(...)`` calls pass ``name="linear"``."""
    return sum(
        isinstance(node, ast.Call) and ast.unparse(node.func) == "DriftSpec"
        and any(kw.arg == "name" and ast.unparse(kw.value) == "'linear'" for kw in node.keywords)
        for node in ast.walk(ast.parse(source))
    )


def test_the_linear_drift_is_built_once():
    # lam and d build A = -lam I, which takes the one affine construction: a
    # second linear DriftSpec, or a float form chosen by isinstance, fails here.
    source = (SRC / "drifts.py").read_text()
    assert _linear_drift_specs(source) == 1
    assert _calls(source, ("isinstance",)) == {"isinstance": 0}
    sample = (
        "def f(lam, A):\n    if A is None:\n"
        '        return DriftSpec(name="linear", eval=lambda x: lam * (x if isinstance(x, float) else x))\n'
        '    return DriftSpec(name="linear", affine_matrix=A)\nDriftSpec(name="cubic")\nlinear(name="linear")\n'
    )
    assert _linear_drift_specs(sample) == 2 and _calls(sample, ("isinstance",)) == {"isinstance": 1}


def _config_reads(source: str) -> list[int]:
    """Lines that read a config dict ``cfg`` by subscript or by ``cfg.get(...)``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            target = node.value
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
            target = node.func.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "cfg":
            found.append(node.lineno)
    return found


def test_config_values_are_read_through_the_schema():
    # config.get checks each value against its key's domain; a direct read skips that.
    for path in sorted(SRC.glob("*.py")):
        if path.name != "config.py":
            assert _config_reads(path.read_text()) == [], path.name
    assert _config_reads(
        'cfg["run.h"]\ncfg.get("run.h")\ncfg["run.seed"] = "1"\n"run.h" in cfg\ncfg.items()\n'
        'echo["run.h"]\ncfg_mod.get(cfg, "run.h")\n'
    ) == [1, 2]


def _unused_imports(source: str) -> list[str]:
    """Imported names the module never uses, as "name:line"; lines marked noqa are skipped."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                if "noqa" not in lines[alias.lineno - 1]:
                    imported[alias.asname or alias.name.split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name}:{line}" for name, line in imported.items() if name not in used]


def test_every_import_is_used():
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":  # its imports are the package's re-exports
            assert _unused_imports(path.read_text()) == [], path.name
    assert _unused_imports(
        "from __future__ import annotations\nimport os\nimport numpy as np\nimport scipy.special\n"
        "from math import (\n    inf,\n    nan,\n)\nimport sys  # noqa: F401\nnp.zeros(1)\nx = inf\n"
    ) == ["os:2", "scipy:4", "nan:7"]


def test_each_path_statistic_is_written_once():
    # A checkpoint and a final summary read one definition of the statistics
    # (BatchDiagnostics._stats): one quotient of the accumulators each for
    # time_avg_sq, m_over_n, m_abs_over_qv and shock_sq_avg.
    tree = ast.parse((SRC / "diagnostics.py").read_text())
    accumulators = {"sum_sq", "M", "QV", "shock_sq"}
    quotients = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)
        and any(isinstance(a, ast.Attribute) and a.attr in accumulators for a in ast.walk(node))
    ]
    assert len(quotients) == 4


def test_the_diagnostics_take_state_norms_by_one_rule():
    # start and fold measure the states through one helper, which holds the
    # module's one np.linalg.norm call: a second norm rule fails here.
    tree = ast.parse((SRC / "diagnostics.py").read_text())
    assert _calls(ast.unparse(tree), ("norm",)) == {"norm": 1}
    (helper,) = [
        node.name for node in tree.body
        if isinstance(node, ast.FunctionDef) and _calls(ast.unparse(node), ("norm",))["norm"]
    ]
    (batch,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "BatchDiagnostics"]
    methods = {node.name: ast.unparse(node) for node in batch.body if isinstance(node, ast.FunctionDef)}
    assert _calls(methods["start"], (helper,)) == _calls(methods["fold"], (helper,)) == {helper: 1}


def test_the_package_holds_no_assert():
    # python -O strips assert statements: a check the package relies on raises instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_the_noise_reads_raw_philox_bits():
    # The deviates' bits rest on Philox's raw stream and ndtri alone, not on
    # how a numpy release implements a Generator method such as integers.
    import numpy as np

    names = {name for name in dir(np.random.Generator) if not name.startswith("_")}
    names |= {"Generator", "default_rng"}
    assert not any(_calls((SRC / "gaussian.py").read_text(), names).values())
    found = _calls("g = np.random.Generator(b)\nk = g.integers(5)\nb.random_raw(3)\n", names)
    assert {name for name, n in found.items() if n} == {"Generator", "integers"}


def test_classify_builds_its_report_once():
    # Each route sets the regime, method, eps', bracket, L and notes, and one
    # call builds the report: a route that builds its own fails here.
    assert _calls((SRC / "classifier.py").read_text(), ("RegimeReport",)) == {"RegimeReport": 1}
    sample = "def f():\n    if a:\n        return RegimeReport(1)\n    return RegimeReport(2)\n"
    assert _calls(sample, ("RegimeReport",)) == {"RegimeReport": 2}


def _literals(source: str):
    """(enclosing top-level function or class, else None; text) of each string
    literal; an f-string's text holds ``{}`` in place of each replacement field."""
    tree = ast.parse(source)
    owner = {}
    for top in tree.body:
        for node in ast.walk(top):
            owner[node] = getattr(top, "name", None)
    parts = {id(v) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr) for v in node.values}
    for node in ast.walk(tree):
        if isinstance(node, ast.JoinedStr):
            text = "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in parts:
            text = node.value
        else:
            continue
        yield owner.get(node), text


def _kv_formatters(source: str) -> list[str]:
    """Functions holding a literal that formats a ``key = value`` line: a key
    (word, dotted name or field) then `` = `` then a field or nothing."""
    pattern = re.compile(r"[\w.{}]* = (\{\}|$)")
    return sorted({str(name) for name, text in _literals(source) if pattern.match(text)})


def test_one_writer_formats_every_key_value_line():
    # Every .kv report and affine_report.txt go through harness.write_kv, and
    # the commands print the text it returns.  Prose lines such as simulate's
    # "final ||X|| = ..." and the regime table's "L = lim ..." are not reports.
    found = {f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
             for name in _kv_formatters(path.read_text())}
    assert found == {"harness.py:write_kv"}
    sample = (
        'def a():\n    return f"{k} = {v}\\n"\ndef b():\n    lines.append(f"h = {h!r}")\n'
        'def c():\n    return f"{label}.{i} = " + row\ndef d():\n    return " = ".join(p)\n'
        'def e():\n    print(f"final ||X|| = {x!r}  sup = {y!r}")\n'
        'def f():\n    return f"L = lim n : {L!r}"\n'
        'def g():\n    raise E(f"grid needs {key} = {value!r}")\n'
    )
    assert _kv_formatters(sample) == ["a", "b", "c", "d"]


def test_the_config_echo_is_built_in_one_place():
    # regime_report.kv, affine_report.txt and ensemble_report.kv echo the
    # config through harness.config_records.
    found = [f"{path.name}:{name}" for path in sorted(SRC.glob("*.py"))
             for name, text in _literals(path.read_text()) if text.startswith("config.")]
    assert found == ["harness.py:config_records"]
    sample = 'x = f"config.{k}"\ndef f():\n    return "config." + k\ndef g():\n    return "config file"\n'
    assert [(name, text) for name, text in _literals(sample) if text.startswith("config.")] == [
        (None, "config.{}"), ("f", "config."),
    ]


def _imported_modules(source: str) -> set[str]:
    """The top-level names of the modules a source imports, in any import form."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module.split(".")[0])
    return found


def _command_tables(source: str):
    """The dicts whose values are all command handlers (``cmd_*`` functions), as sorted key
    lists, and the lines that read a handler outside them."""
    tree = ast.parse(source)
    handlers = {node.name for node in tree.body if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_")}
    tables, inside = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Dict) and node.values and all(
                isinstance(v, ast.Name) and v.id in handlers for v in node.values):
            tables.append(sorted(ast.literal_eval(k) for k in node.keys))
            inside |= {id(v) for v in node.values}
    stray = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id in handlers and id(node) not in inside]
    return tables, sorted(stray)


def test_the_command_line_has_one_reader():
    # cli.main reads every command's line in one pass through one table from command name to
    # handler: argparse's parser per command, or a handler wired up a second way, fails here.
    for path in sorted(SRC.glob("*.py")):
        assert "argparse" not in _imported_modules(path.read_text()), path.name
    commands = ["affine", "classify", "consistency", "experiment", "selftest", "simulate"]
    assert _command_tables((SRC / "cli.py").read_text()) == ([commands], [])
    sample = (
        "import argparse as ap\nfrom argparse import ArgumentParser\nimport os.path\n"
        "def cmd_a(args):\n    pass\ndef cmd_b(args):\n    pass\n"
        "sub.add_parser('a').set_defaults(fn=cmd_a)\nTABLE = {'a': cmd_a, 'b': cmd_b}\n"
        "ALIASES = {'bee': cmd_b}\nNAMES = {'a': 'cmd_a'}\n"
    )
    assert _imported_modules(sample) == {"argparse", "os"}
    assert _command_tables(sample) == ([["a", "b"], ["bee"]], [8])
