"""The simulation layers do not depend on recovery, orchestration or the CLI,
the package re-exports exactly each module's public names, and importing it
loads no scipy."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import atomtrap

PACKAGE = Path(atomtrap.__file__).resolve().parent
SIMULATION = ("physics", "kinetics", "signals", "sequence", "streams")
ABOVE = {"analysis", "runner", "cli"}


def _imported_modules(source: str) -> set[str]:
    """Sibling atomtrap modules a module source imports, by bare name."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "atomtrap" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "atomtrap":
                continue
            if node.level == 0:
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
    return found


def test_scan_sees_every_import_form():
    source = ("from .analysis import classify_burst\nfrom . import runner\n"
              "import atomtrap.cli\nfrom atomtrap.signals import PhotonTrace\nimport numpy\n")
    assert _imported_modules(source) == {"analysis", "runner", "cli", "signals"}


@pytest.mark.parametrize("module", SIMULATION)
def test_simulation_layer_imports_nothing_above_it(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert not _imported_modules(source) & ABOVE


# the modules whose __all__ the package re-exports
PUBLIC = ("physics", "kinetics", "signals", "analysis", "sequence", "streams", "runner")


@pytest.mark.parametrize("module", PUBLIC)
def test_package_reexports_exactly_the_module_all(module):
    mod = importlib.import_module(f"atomtrap.{module}")
    names = mod.__all__
    assert len(set(names)) == len(names)
    assert all(getattr(atomtrap, name) is getattr(mod, name) for name in names)


def test_package_namespace_is_the_union_of_the_module_alls():
    exported = {name for name in dir(atomtrap) if not name.startswith("_")
                and not inspect.ismodule(getattr(atomtrap, name))}
    assert exported == {name for module in PUBLIC
                        for name in importlib.import_module(f"atomtrap.{module}").__all__}


def test_import_loads_no_scipy():
    # scipy serves only amplitude_for_factor, which imports it when called
    code = ("import atomtrap, atomtrap.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
