"""Package structure: modules talk to each other through public names only,
each layer module lists its public names in ``__all__``, no module asks
which receiver it is serving, and the benchmark's work counters accept
every call of the kernels they count."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path
import types

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
    # the simulator cuts trials into cache-sized blocks and sets the
    # allocator policy that keeps their freed buffers; a kernel that kept a
    # blocking limit or a buffer pool of its own would be a second layer of
    # the same rule
    sizes = {p.name: found for p in sorted(PACKAGE.glob("*.py"))
             if (found := _byte_constants(p))}
    assert sizes == {"simulator.py": ["_WINDOW_BYTES", "_MMAP_THRESHOLD_BYTES",
                                      "_TRIM_THRESHOLD_BYTES"]}


def test_byte_constant_check_sees_plain_and_annotated_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("_BLOCK_BYTES = 1 << 18\n"
                     "ROW_BYTES: int = 64\n"
                     "def f():\n    LOCAL_BYTES = 1\n"
                     "BYTES_SEEN = 0\n")
    assert _byte_constants(probe) == ["_BLOCK_BYTES", "ROW_BYTES"]


_RECEIVER_MODES = ("if", "nif")


def _mode_comparisons(path):
    """(line, mode) of every comparison in ``path`` with a receiver mode's
    string constant as an operand. A mode's differences live in its
    ``Receiver`` record of the link context; a tuple operand, as in an input
    check ``mode not in ("if", "nif")``, is not a comparison with a mode."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Compare):
            found += [(node.lineno, operand.value)
                      for operand in [node.left, *node.comparators]
                      if isinstance(operand, ast.Constant)
                      and operand.value in _RECEIVER_MODES]
    return sorted(found)


def test_no_module_branches_on_a_receiver_mode():
    offenders = {p.name: hits for p in sorted(PACKAGE.glob("*.py"))
                 if (hits := _mode_comparisons(p))}
    assert offenders == {}


def test_mode_comparison_check_sees_every_operand_position(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text('x = 1 if mode == "if" else 2\n'
                     'ok = "nif" != mode\n'
                     'chained = a < b == "nif"\n'
                     'checked = mode not in ("if", "nif")\n'
                     'looked_up = receivers["if"]\n'
                     'other = mode == "ofdm"\n')
    assert _mode_comparisons(probe) == [(1, "if"), (2, "nif"), (3, "nif")]


# ---------------------------------------------------------------------------
# The benchmark's tracer calls ``COUNTERS[name](counts, *args, **kwargs)``
# with each kernel's own arguments, so a counter must accept every call of
# its kernel; a new parameter on a kernel would otherwise make every traced
# run raise TypeError.
# ---------------------------------------------------------------------------

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing_counters():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COUNTERS


def _counted_kernel(name):
    """The function a counter name ``<layer>.<function>`` counts, and whether
    it is a method (whose ``self`` the tracer passes positionally)."""
    layer, attr = name.split(".")
    module = importlib.import_module(f"fbmcqam.{layer}")
    if isinstance(getattr(module, attr, None), types.FunctionType):
        return getattr(module, attr), False
    methods = [vars(cls)[attr] for cls in vars(module).values()
               if isinstance(cls, type) and cls.__module__ == module.__name__
               and attr in vars(cls)]
    assert len(methods) == 1, f"{name}: {len(methods)} candidates"
    return methods[0], True


def _binding_faults(counter, kernel, method=False):
    """How calls of ``kernel`` fail to bind to ``counter(counts, ...)``: all
    arguments passed by position, all by keyword, and the required ones
    only. Each argument's value is its name, so a positional call also
    checks that the counter names its parameters in the kernel's order."""
    params = list(inspect.signature(kernel).parameters.values())
    lead = [params.pop(0).name] if method else []
    params = [p for p in params if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
    pos_only = [p.name for p in params if p.kind == p.POSITIONAL_ONLY]
    positional = [p.name for p in params
                  if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    kw_only = [p.name for p in params if p.kind == p.KEYWORD_ONLY]
    required = {p.name for p in params if p.default is p.empty}
    calls = {
        "by position": (lead + positional, kw_only),
        "by keyword": (lead + pos_only, [n for n in positional + kw_only
                                         if n not in pos_only]),
        "required only": (lead + [n for n in positional if n in required],
                          [n for n in kw_only if n in required]),
    }
    sig = inspect.signature(counter)
    faults = []
    for form, (args, kwargs) in calls.items():
        try:
            bound = sig.bind("counts", *args, **{n: n for n in kwargs})
        except TypeError as exc:
            faults.append(f"{form}: {exc}")
            continue
        moved = [n for n in args[len(lead):] if bound.arguments.get(n) != n]
        if moved:
            faults.append(f"{form}: counter has {moved} elsewhere")
    return faults


def test_bench_counters_accept_every_call_of_their_kernels():
    counters = _tracing_counters()
    assert len(counters) >= 8
    faults = {}
    for name, counter in counters.items():
        kernel, method = _counted_kernel(name)
        if found := _binding_faults(counter, kernel, method):
            faults[name] = found
    assert faults == {}


def test_binding_check_sees_new_and_reordered_parameters():
    def counter(counts, h, x):
        pass

    def kernel(h, x):
        pass

    def with_out(h, x, out=None):
        pass

    def reordered(x, h):
        pass

    class Engine:
        def run(self, h, x):
            pass

    def engine_counter(counts, engine, h, x):
        pass

    assert _binding_faults(counter, kernel) == []
    assert _binding_faults(engine_counter, Engine.run, method=True) == []
    assert len(_binding_faults(counter, with_out)) == 2      # positional and keyword
    assert _binding_faults(counter, reordered) == [
        "by position: counter has ['x', 'h'] elsewhere",
        "required only: counter has ['x', 'h'] elsewhere"]
