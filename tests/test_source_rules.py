"""Rules over the package source, checked on its syntax tree."""

import ast
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


def _attribute_calls(source: str, attrs) -> dict[str, int]:
    """How many calls of the form ``<expr>.<attr>(...)`` the source makes, per attr."""
    counts = dict.fromkeys(attrs, 0)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in counts:
                counts[node.func.attr] += 1
    return counts


def test_the_engines_share_one_step_loop():
    # Both engines run the one private step loop: a second loop, with its
    # own overflow context, shock assembly or diagnostics fold, fails here.
    source = (SRC / "integrator.py").read_text()
    assert _attribute_calls(source, ("errstate", "shocks", "fold")) == {
        "errstate": 1, "shocks": 1, "fold": 1,
    }
