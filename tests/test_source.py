"""Checks on the package source itself."""

import ast
import dataclasses
import enum
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import coupled_pendula

PACKAGE_DIR = Path(coupled_pendula.__file__).parent


def test_no_runtime_invariant_relies_on_assert():
    # python -O strips assert statements; invariants raise typed errors
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def _is_scipy(name):
    return name == "scipy" or name.startswith("scipy.")


def test_scipy_not_imported_at_module_level():
    # scipy is a test-only dependency: the package imports it nowhere,
    # neither at module level nor inside a function
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if (isinstance(node, ast.Import) and any(_is_scipy(a.name) for a in node.names))
             or (isinstance(node, ast.ImportFrom) and node.level == 0
                 and _is_scipy(node.module))]
    assert not found, f"scipy imports in the package: {found}"


def test_exports_resolve():
    # a name deleted from a module must leave its __all__ and the package's
    # export table too; the package re-exports only names a module declares
    modules = {path.stem: importlib.import_module(f"coupled_pendula.{path.stem}")
               for path in sorted(PACKAGE_DIR.glob("*.py")) if path.stem != "__init__"}
    stale = [f"{name}.{entry}" for name, module in modules.items()
             for entry in getattr(module, "__all__", ())
             if not hasattr(module, entry)]
    undeclared = [f"{module}.{name}"
                  for module, names in coupled_pendula._EXPORTS.items() for name in names
                  if name not in getattr(modules[module], "__all__", ())]
    assert not stale, f"__all__ entries with no attribute: {stale}"
    assert not undeclared, f"package exports missing from their module's __all__: {undeclared}"


LAZY_PROBE = """
import sys
import coupled_pendula
assert [m for m in sys.modules if m.startswith("coupled_pendula")] == ["coupled_pendula"]
assert not hasattr(coupled_pendula, "no_such_name")
from coupled_pendula import {names}
print(coupled_pendula.spectral.__name__)
print(" ".join(sorted(m for m in sys.modules if m.startswith("coupled_pendula."))))
"""


def test_exports_load_on_first_use():
    # importing the package runs no module; the first public name asked of
    # it loads every library module, verification included, and binds every
    # name, and the submodules are then attributes of the package
    names = [name for names in coupled_pendula._EXPORTS.values() for name in names]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", LAZY_PROBE.format(names=", ".join(names))],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    spectral, loaded = proc.stdout.splitlines()
    assert spectral == "coupled_pendula.spectral"
    library = {f"coupled_pendula.{path.stem}" for path in PACKAGE_DIR.glob("*.py")
               if path.stem not in ("__init__", "cli")}
    assert set(loaded.split()) == library


def test_one_module_holds_the_e9_cell_format():
    # every CSV cell is ".9e"; a second module with that format spec would
    # be a second cell writer
    holders = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                     if any(isinstance(node, ast.Constant) and node.value == ".9e"
                            for node in ast.walk(ast.parse(path.read_text(), str(path)))))
    assert holders == ["_csvio.py"], f"modules with the .9e format spec: {holders}"


def test_spectrum_reads_its_numbers_off_the_factors():
    # spectrum_report takes ω, ratios and zone from the factors it prints;
    # reduce_params or an ω argument in spectral would be a second route
    path = PACKAGE_DIR / "spectral.py"
    imported = [alias.name for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    ratios = coupled_pendula.spectral.ek_ratios_dimensionless
    assert "reduce_params" not in imported
    assert "omega" not in inspect.signature(ratios).parameters


def _parse(path):
    return ast.parse(path.read_text(), str(path))


def test_no_np_roots_call_in_the_package():
    # every polynomial is solved by spectral.poly_roots; an np.roots call
    # would be a second root finder with other bits
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Attribute) and node.attr == "roots"
             and getattr(node.value, "id", None) in ("np", "numpy")]
    assert not found, f"np.roots in the package: {found}"


def test_poly_roots_is_one_companion_solve():
    # one stacked eigenvalue call for every row: no per-row or per-dtype
    # loop, and no second eigvals call for a subset of the rows
    [fn] = [node for node in ast.walk(_parse(PACKAGE_DIR / "spectral.py"))
            if isinstance(node, ast.FunctionDef) and node.name == "poly_roots"]
    nodes = list(ast.walk(fn))
    assert not [n for n in nodes if isinstance(n, (ast.For, ast.comprehension))]
    assert sum(isinstance(n, ast.Attribute) and n.attr == "eigvals" for n in nodes) == 1


def test_one_eigenvalue_solve_in_the_package():
    # every spectrum number, simulate's rho(J) bound included, comes from
    # poly_roots' companion solve; an eigvals call elsewhere, or the CLI
    # taking linear_system, would be a second route with other bits
    found = [(path.name, node.lineno)
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Attribute) and node.attr == "eigvals"]
    [fn] = [node for node in ast.walk(_parse(PACKAGE_DIR / "spectral.py"))
            if isinstance(node, ast.FunctionDef) and node.name == "poly_roots"]
    assert len(found) == 1, f"eigvals in the package: {found}"
    [(name, line)] = found
    assert name == "spectral.py" and fn.lineno <= line <= fn.end_lineno, found
    cli_imports = [alias.name for node in ast.walk(_parse(PACKAGE_DIR / "cli.py"))
                   if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "linear_system" not in cli_imports


def test_zone_comes_from_the_conics_in_regions():
    # the region kernel reads the zone off its conic1/conic4 values; a
    # ratio-comparison zone helper would let the two disagree
    spectral_defs = [node.name for node in ast.walk(_parse(PACKAGE_DIR / "spectral.py"))
                     if isinstance(node, ast.FunctionDef)]
    regions_imports = [alias.name for node in ast.walk(_parse(PACKAGE_DIR / "regions.py"))
                       if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert "_zone_index" not in spectral_defs
    assert "_zone_index" not in regions_imports


def _builds_out_of_range_error(node):
    return (isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "ParamError"
            and any(isinstance(part, ast.Constant) and isinstance(part.value, str)
                    and "out of range" in part.value
                    for arg in node.args for part in ast.walk(arg)))


def test_one_module_decides_the_parameter_range():
    # PhysicalParams checks the parameter domain once, where a parameter
    # set is built; an "out of range" ParamError anywhere else would be a
    # scale guard growing back downstream
    holders = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                     if any(map(_builds_out_of_range_error,
                                ast.walk(ast.parse(path.read_text(), str(path))))))
    assert holders == ["params.py"], f"modules raising out-of-range ParamErrors: {holders}"


def test_regions_kernel_has_no_overflow_guard():
    # the quadrant box is checked where X, Y, η and μ enter, and inside it
    # the kernel cannot overflow; an np.errstate in regions would be an
    # after-the-fact guard growing back
    found = [node.lineno for node in ast.walk(ast.parse((PACKAGE_DIR / "regions.py").read_text()))
             if isinstance(node, ast.Attribute) and node.attr == "errstate"]
    assert not found, f"np.errstate in regions.py at lines {found}"


def _int_literals(path):
    return [node.value for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Constant) and type(node.value) is int]


def test_one_block_size_for_sweep_and_writer():
    # _csvio.BLOCK_ROWS sizes the blocks of the CSV writer and of the region
    # sweep: regions imports it, and its value is written nowhere else, nor
    # does either module write a second power-of-two block size
    from coupled_pendula._csvio import BLOCK_ROWS
    regions = ast.parse((PACKAGE_DIR / "regions.py").read_text())
    assert any(isinstance(node, ast.ImportFrom) and node.module == "_csvio"
               and "BLOCK_ROWS" in [alias.name for alias in node.names]
               for node in ast.walk(regions))
    spelled = sorted(path.name for path in PACKAGE_DIR.glob("*.py")
                     for v in _int_literals(path) if v == BLOCK_ROWS)
    assert spelled == ["_csvio.py"], f"modules writing the block size: {spelled}"
    sizes = [v for name in ("_csvio.py", "regions.py")
             for v in _int_literals(PACKAGE_DIR / name) if v >= 1024 and v & (v - 1) == 0]
    assert sizes == [BLOCK_ROWS], f"block-size literals in the writer and sweep: {sizes}"


def test_gravity_default_is_written_once():
    # g defaults in PhysicalParams alone; a second 9.81 would be a second default
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE_DIR.glob("*.py"))
             for node in ast.walk(_parse(path))
             if isinstance(node, ast.Constant) and type(node.value) is float
             and node.value == 9.81]
    [cls] = [node for node in ast.walk(_parse(PACKAGE_DIR / "params.py"))
             if isinstance(node, ast.ClassDef) and node.name == "PhysicalParams"]
    [g] = [node for node in cls.body
           if isinstance(node, ast.AnnAssign) and node.target.id == "g"]
    assert found == [f"params.py:{g.value.lineno}"]


def _field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def _outside(tree, skip):
    """The nodes of ``tree`` outside every def or class whose name ``skip`` accepts."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        todo.extend(child for child in ast.iter_child_nodes(node)
                    if not (isinstance(child, (ast.FunctionDef, ast.ClassDef))
                            and skip(child.name)))


def _is_command(name):
    return name.startswith("cmd_")


def _listing(nodes, names):
    return [node.lineno for node in nodes
            if isinstance(node, (ast.Tuple, ast.List, ast.Set, ast.Dict))
            and sum(isinstance(e, ast.Constant) and e.value in names
                    for e in (node.keys if isinstance(node, ast.Dict) else node.elts)) >= 2]


def test_cli_lists_no_parameter_names():
    # the CLI reads its config keys off the dataclass fields; a tuple, list,
    # set or dict of PhysicalParams, GridSpec or RunConfig field names in
    # cli.py would be a second schema.  A command's output document may
    # share keys with RunConfig ("out", "samples", "t_end"), so RunConfig
    # names are looked for outside the command functions
    from coupled_pendula.cli import RunConfig
    cli = _parse(PACKAGE_DIR / "cli.py")
    found = _listing(ast.walk(cli), _field_names(coupled_pendula.PhysicalParams)
                     | _field_names(coupled_pendula.GridSpec))
    found += _listing(_outside(cli, _is_command), _field_names(RunConfig))
    assert not found, f"config field names spelled out in cli.py at lines {found}"


def _literals(value):
    """The constants a default is written with: a dataclass's field values,
    an enum's value, a tuple's items, or the value itself."""
    if dataclasses.is_dataclass(value):
        return [c for f in dataclasses.fields(value) for c in _literals(getattr(value, f.name))]
    if isinstance(value, enum.Enum):
        return [value.value]
    if isinstance(value, tuple):
        return [c for v in value for c in _literals(v)]
    return [] if value is None else [value]


def test_cli_writes_no_config_default():
    # an omitted key takes the default of the RunConfig or GridSpec field it
    # fills; a default value written in cli.py outside RunConfig's field
    # list, and outside the commands, which run on a loaded RunConfig,
    # would be a second default
    from coupled_pendula.cli import RunConfig
    run = dataclasses.fields(RunConfig)
    assert [f.name for f in run if f.default is dataclasses.MISSING] == ["params"]
    assert all(f.default is not dataclasses.MISSING
               for f in dataclasses.fields(coupled_pendula.GridSpec))
    defaults = {(type(c), c) for f in run[1:] for c in _literals(f.default)}
    assert {(float, 0.0), (float, 60.0), (int, 2001), (int, 1), (str, "full"),
            (float, 0.01), (float, 10.0), (int, 50), (str, "log")} <= defaults
    found = [f"{node.lineno}: {node.value!r}"
             for node in _outside(_parse(PACKAGE_DIR / "cli.py"),
                                  lambda name: name == "RunConfig" or _is_command(name))
             if isinstance(node, ast.Constant) and (type(node.value), node.value) in defaults]
    assert not found, f"config defaults written in cli.py: {found}"


def test_main_compares_no_command_name():
    # main looks its command up in the command table; comparing args.command
    # with a string would be a second list of command names
    [main] = [node for node in ast.walk(_parse(PACKAGE_DIR / "cli.py"))
              if isinstance(node, ast.FunctionDef) and node.name == "main"]
    found = [node.lineno for node in ast.walk(main) if isinstance(node, ast.Compare)
             and any(isinstance(n, ast.Constant) and isinstance(n.value, str)
                     for n in (node.left, *node.comparators))]
    assert not found, f"string comparisons in cli.main at lines {found}"


PERFBENCH_DIR = Path(__file__).parents[1] / "perfbench"


def test_benchmark_hooks_resolve(monkeypatch):
    # the benchmark wraps the functions in perfbench/spans.py's TARGETS
    # and its gates import names from the package; a refactor that moves
    # one must not silently break traced runs or the gates
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    spans = importlib.import_module("spans")
    missing = []
    for module, attr, *_ in spans.TARGETS:
        owner = importlib.import_module(module)
        *cls, name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0], None)
        if owner is None or name not in vars(owner):
            missing.append(f"{module}.{attr}")
    gates = ast.parse((PERFBENCH_DIR / "gates.py").read_text())
    imported = [alias.name for node in ast.walk(gates)
                if isinstance(node, ast.ImportFrom) and node.module == "coupled_pendula"
                for alias in node.names]
    missing += [f"coupled_pendula.{name}" for name in imported
                if not hasattr(coupled_pendula, name)]
    assert imported and len(spans.TARGETS) > 10
    assert not missing, f"benchmark hooks with no target: {missing}"


def test_run_verification_reaches_each_traced_check(monkeypatch):
    # perfbench times each verify check by wrapping verification.check_* on
    # the module; run_verification must call each of them through that name
    # once, or its span would silently read 0
    from coupled_pendula import verification
    monkeypatch.syspath_prepend(str(PERFBENCH_DIR))
    traced = [attr for module, attr, *_ in importlib.import_module("spans").TARGETS
              if module == "coupled_pendula.verification" and attr.startswith("check_")]
    calls = dict.fromkeys(traced, 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in traced:
        monkeypatch.setattr(verification, name, counting(name, getattr(verification, name)))
    verification.run_verification(seed=1)
    assert len(calls) == 5 and all(n == 1 for n in calls.values()), calls
