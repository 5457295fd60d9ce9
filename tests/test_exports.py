import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import anticlone

MODULES = ["cli", "linalg", "machine", "optimize", "probclone", "qubit", "rng"]


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
