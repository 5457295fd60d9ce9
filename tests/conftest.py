import sys
from pathlib import Path

import numpy as np
import pytest

from anticlone.cli import parse_args, run

sys.path.insert(0, str(Path(__file__).parent))  # makes oracles importable

# Traced layers that perfbench/layers.py names but src/ no longer has; any
# other layer missing from a traced run is a renamed or lost one.
DELETED_LAYERS = [
    "linalg.hermitian_eigenvalues",
    "linalg.partial_trace",
    "linalg.unitary_from_correspondence",
    "qubit.fidelity_direction",
    "qubit.state_to_bloch",
]


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def universal_optimize_run():
    """(report, exit code) of the seed-0, 20-restart universal optimization.

    It is the slowest computation in the suite; the tests that check it share
    one run.
    """
    return run(parse_args(["optimize", "--restarts", "20"]))


def random_ket(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_direction(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)
