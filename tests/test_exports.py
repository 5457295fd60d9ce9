import importlib

import pytest

MODULES = ["cli", "linalg", "machine", "optimize", "probclone", "qubit", "rng"]


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_exists(module):
    mod = importlib.import_module(f"anticlone.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
