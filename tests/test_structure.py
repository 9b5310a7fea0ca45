"""Package structure: modules talk to each other through public names only."""

import ast
from pathlib import Path

import fbmcqam

PACKAGE = Path(fbmcqam.__file__).resolve().parent


def _private_imports(path):
    """(line, module, name) of every underscore name that ``path`` imports
    from another module of the package; dunders such as ``__version__`` are
    public."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "fbmcqam":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__")
                                             and name.endswith("__")):
                found.append((node.lineno, module, name))
    return found


def test_modules_import_no_private_names_from_each_other():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    offenders = {p.name: hits for p in modules if (hits := _private_imports(p))}
    assert offenders == {}


def test_private_import_check_sees_relative_and_absolute_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import __version__\n"
                     "from .analytics import _circconv, leakage_sums\n"
                     "from fbmcqam.simulator import _check\n"
                     "from numpy import _globals\n")
    assert _private_imports(probe) == [(2, "analytics", "_circconv"),
                                       (3, "fbmcqam.simulator", "_check")]
