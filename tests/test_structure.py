"""Package structure: modules talk to each other through public names only,
and each layer module lists its public names in ``__all__``."""

import ast
import importlib
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


def _public_definitions(path):
    """Names of the top-level functions and classes without a leading
    underscore."""
    tree = ast.parse(path.read_text(), str(path))
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def test_layer_modules_list_every_public_definition_in_all():
    layers = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(layers) > 5
    missing = {}
    for path in layers:
        module = importlib.import_module(f"fbmcqam.{path.stem}")
        exported = getattr(module, "__all__", [])
        assert all(hasattr(module, name) for name in exported), path.name
        if unlisted := [n for n in _public_definitions(path) if n not in exported]:
            missing[path.name] = unlisted
    assert missing == {}


def _byte_constants(path):
    """Names of the module-level ``*_BYTES`` assignments in ``path``."""
    found = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        found += [t.id for t in targets
                  if isinstance(t, ast.Name) and t.id.endswith("_BYTES")]
    return found


def test_only_the_simulator_sizes_working_sets():
    # the simulator cuts trials into cache-sized blocks; a kernel that kept
    # a blocking limit of its own would be a second layer of the same rule
    sizes = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
             if (found := _byte_constants(p))}
    assert sizes == {"simulator.py": ["_WINDOW_BYTES"]}


def test_byte_constant_check_sees_plain_and_annotated_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("_BLOCK_BYTES = 1 << 18\n"
                     "ROW_BYTES: int = 64\n"
                     "def f():\n    LOCAL_BYTES = 1\n"
                     "BYTES_SEEN = 0\n")
    assert _byte_constants(probe) == ["_BLOCK_BYTES", "ROW_BYTES"]
