"""The package runs on the standard library alone."""

import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import ldptoric

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

# Run with -S, so no site hook preloads anything, and report every module
# that importing the whole package added.
_PROBE = """
import pkgutil, sys
sys.path.insert(0, {src!r})
before = set(sys.modules)
import ldptoric
for info in pkgutil.iter_modules(ldptoric.__path__, "ldptoric."):
    __import__(info.name)
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_pyproject_declares_no_dependencies():
    project = PYPROJECT.read_text().split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r"^dependencies = \[\]$", project, re.MULTILINE)


def test_package_imports_only_the_standard_library():
    src = str(Path(ldptoric.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-S", "-c", _PROBE.format(src=src)],
        capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "ldptoric.cli" in out and "ldptoric.surface" in out
    # multiprocessing registers __main__ a second time as __mp_main__.
    allowed = sys.stdlib_module_names | {"ldptoric", "__mp_main__"}
    foreign = [m for m in out if m.split(".")[0] not in allowed]
    assert foreign == []


SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(ldptoric.__path__, "ldptoric."))


def test_each_submodule_imports_first_in_a_fresh_interpreter():
    # Importing any submodule first runs the package's own import order from
    # that entry point; a cycle between two modules would fail one of these.
    src = str(Path(ldptoric.__file__).resolve().parent.parent)
    assert "ldptoric.polygon" in SUBMODULES and "ldptoric.surface" in SUBMODULES
    for name in SUBMODULES:
        probe = f"import sys; sys.path.insert(0, {src!r}); import {name}; print({name}.__name__)"
        out = subprocess.run([sys.executable, "-S", "-c", probe], capture_output=True, text=True)
        assert (out.returncode, out.stdout, out.stderr) == (0, name + "\n", "")

