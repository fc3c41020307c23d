"""The package runs on the standard library alone."""

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
