import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anticlone

MODULES = ["cli", "linalg", "machine", "optimize", "probclone", "qubit", "rng"]
SRC = Path(anticlone.__file__).resolve().parent

# the exported names that nothing in src/ uses, each with the reason it stays
UNUSED_EXPORTS_ALLOWED = {
    "qubit.bloch_to_state": "perfbench/test_perfbench.py builds its input states with it",
    "machine.anticlone": "the one-input form of anticlone_all; perfbench traces it and its tests call it",
}


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"anticlone.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_importing_a_submodule_loads_no_cli():
    # the package root re-exports nothing, so the library modules load
    # without the command line and its parser
    src = str(Path(anticlone.__file__).resolve().parents[1])
    code = "import sys, anticlone.machine; print(sorted({'anticlone.cli', 'argparse'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def _names_used(node, defined: str | None = None) -> set[str]:
    """Names that ``node`` reads, as bare names, attributes or imports; the
    body of the definition of ``defined`` does not count as a use of it."""
    used = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            used.add(child.id)
        elif isinstance(child, ast.Attribute):
            used.add(child.attr)
        elif isinstance(child, ast.alias):
            used.add(child.name)
    return used - {defined}


def test_every_exported_name_has_a_caller_in_src():
    used = set()
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            used |= _names_used(stmt, getattr(stmt, "name", None))
    unused = [
        f"{module}.{name}"
        for module in MODULES
        for name in importlib.import_module(f"anticlone.{module}").__all__
        if name not in used
    ]
    assert sorted(unused) == sorted(UNUSED_EXPORTS_ALLOWED)
