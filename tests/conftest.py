import sys
from pathlib import Path

import numpy as np
import pytest

from anticlone.cli import parse_args, run
from anticlone.machine import COEFF_KEYS

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

# A pair whose H has a subnormal off-diagonal entry (~5e-322) at
# (L, M) = (576, 1101), as state-file rows [[re, im], [re, im]]
SUBNORMAL_H_PAIR = [
    [[0.4784811114036781, -0.42044414019009474], [-0.34503989025797877, -0.6893692951825422]],
    [[-0.33875779317041366, -0.33648043185252585], [0.6727426095379639, 0.5651915231659971]],
]
SUBNORMAL_H_COPIES = (576, 1101)


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


def coefficients(blocks) -> np.ndarray:
    """The coefficient c_k of each block x_k = c_k |anc_k> of a block table
    whose ancillas are basis kets, such as ``machine.optimal_params()``: the
    block's one non-zero entry."""
    nonzero = blocks != 0
    assert (nonzero.sum(axis=1) == 1).all(), "each block must hold one non-zero entry"
    return blocks[nonzero]


def with_coefficient(blocks, key: str, value: complex) -> np.ndarray:
    """A copy of a block table from ``coefficients`` with block ``key``'s
    coefficient set to ``value``: the block scaled by value / c_key."""
    k = COEFF_KEYS.index(key)
    out = blocks.copy()
    out[k] *= value / coefficients(blocks)[k]
    return out
