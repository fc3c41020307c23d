"""The package runs on the standard library alone."""

import ast
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import ldptoric

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(ldptoric.__path__, "ldptoric."))

# Run with -S, so no site hook preloads anything, and report every module
# that importing the whole package added.  The submodule names come from
# here, because pkgutil's file finder imports inspect itself.
_PROBE = """
import sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import ldptoric
for name in {names!r}:
    __import__(name)
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_pyproject_declares_no_dependencies():
    project = PYPROJECT.read_text().split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r"^dependencies = \[\]$", project, re.MULTILINE)


def _fresh_import() -> list[str]:
    """The modules that a fresh `python -S` import of the package and every
    submodule loads."""
    src = str(Path(ldptoric.__file__).resolve().parent.parent)
    return subprocess.run(
        [sys.executable, "-S", "-c", _PROBE.format(src=src, names=SUBMODULES)],
        capture_output=True, text=True, check=True,
    ).stdout.split()


def test_package_imports_only_the_standard_library():
    out = _fresh_import()
    assert "ldptoric.cli" in out and "ldptoric.surface" in out
    # multiprocessing registers __main__ a second time as __mp_main__.
    allowed = sys.stdlib_module_names | {"ldptoric", "__mp_main__"}
    foreign = [m for m in out if m.split(".")[0] not in allowed]
    assert foreign == []


def test_package_import_loads_neither_dataclasses_nor_inspect_nor_random():
    # dataclasses brings inspect, ast, dis and tokenize; a one-shot CLI run
    # pays for each.  Records raise FrozenInstanceError by importing it then.
    out = _fresh_import()
    assert "ldptoric.cli" in out and "ldptoric.enumeration" in out
    assert sorted({"dataclasses", "inspect", "random"} & set(out)) == []


def test_each_submodule_imports_first_in_a_fresh_interpreter():
    # Importing any submodule first runs the package's own import order from
    # that entry point; a cycle between two modules would fail one of these.
    src = str(Path(ldptoric.__file__).resolve().parent.parent)
    assert "ldptoric.polygon" in SUBMODULES and "ldptoric.surface" in SUBMODULES
    for name in SUBMODULES:
        probe = f"import sys; sys.path.insert(0, {src!r}); import {name}; print({name}.__name__)"
        out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True)
        assert (out.returncode, out.stdout, out.stderr) == (0, name + "\n", "")


def _unused_imports(source: str) -> list[str]:
    """Names a module imports and never reads, leaving out names imported on
    a line marked `# noqa: F401` (kept there to be re-exported)."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name != "annotations" and "# noqa: F401" not in lines[alias.lineno - 1]:
                    imported[name] = alias.lineno
    # Every module has `from __future__ import annotations`, so no
    # annotation needs quotes and every read is a Name node.
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    package = Path(ldptoric.__file__).resolve().parent
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    assert len(modules) == len(SUBMODULES)
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in unused.items() if found} == {}
    # The check sees an unused import.
    assert _unused_imports("from typing import Callable, Sequence\n\nx: Sequence = ()\n") == ["line 1: Callable"]


def test_all_lists_exactly_the_public_names_the_package_binds():
    bound = [name for name, value in vars(ldptoric).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert len(set(ldptoric.__all__)) == len(ldptoric.__all__)
    assert sorted(ldptoric.__all__) == sorted(bound)
    # Names that only re-wrapped a value another name gives stay gone.
    for owner, name in [(ldptoric, "BoxSpec"), (ldptoric, "ConeRecord"),
                        (ldptoric.UnimodularMap, "inverse"), (ldptoric.UnimodularMap, "is_unimodular"),
                        (ldptoric.RayVector, "__sub__"), (ldptoric.RayVector, "__neg__"),
                        (ldptoric.SurfaceReport, "cones"), (ldptoric.CatalogEntry, "picard_number"),
                        (ldptoric.CatalogEntry, "f_values"), (ldptoric.FamilyParams, "to_dict")]:
        assert not hasattr(owner, name), (owner.__name__, name)
