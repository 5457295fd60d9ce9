"""Single-qubit states: Bloch-vector conversions, the anti-unitary spin flip
and direction fidelity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "BlochVector",
    "QubitState",
    "check_density_matrix",
    "direction_kets",
    "bloch_to_state",
    "state_to_bloch",
    "antiunitary_flip",
    "fidelity_direction",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector inside the unit ball; |n| = 1 for pure states."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self):
        n2 = self.nx**2 + self.ny**2 + self.nz**2
        if not np.isfinite(n2) or n2 > 1.0 + 1e-12:
            raise ValueError(f"Bloch vector has norm {np.sqrt(n2):.12f} > 1")

    @classmethod
    def from_array(cls, arr) -> "BlochVector":
        x, y, z = np.asarray(arr, dtype=float)
        return cls(float(x), float(y), float(z))

    def as_array(self) -> np.ndarray:
        return np.array([self.nx, self.ny, self.nz])

    def norm(self) -> float:
        return float(np.sqrt(self.nx**2 + self.ny**2 + self.nz**2))

    def __neg__(self) -> "BlochVector":
        return BlochVector(-self.nx, -self.ny, -self.nz)


@dataclass(frozen=True)
class QubitState:
    """Pure qubit state alpha|0> + beta|1>, normalized."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        n = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"amplitudes have squared norm {n!r}, expected 1")

    @classmethod
    def normalized(cls, alpha: complex, beta: complex) -> "QubitState":
        n = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        if n < 1e-12:
            raise ValueError("cannot normalize the zero vector")
        return cls(complex(alpha) / n, complex(beta) / n)

    def ket(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    def density(self) -> np.ndarray:
        k = self.ket()
        return np.outer(k, k.conj())


def check_density_matrix(rho, tol: float = 1e-10) -> np.ndarray:
    """Validate a 2x2 density matrix: Hermitian, unit trace, PSD, and no
    NaN or infinite entries."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {rho.shape}")
    # `not (x <= tol)` rather than `x > tol`: a NaN entry must fail the test
    if not np.max(np.abs(rho - rho.conj().T)) <= tol:
        raise ValueError("density matrix is not Hermitian")
    if not (abs(np.trace(rho).real - 1.0) <= tol and abs(np.trace(rho).imag) <= tol):
        raise ValueError("density matrix does not have unit trace")
    # smaller eigenvalue of a Hermitian 2x2: (tr - sqrt((a - d)^2 + 4|b|^2)) / 2
    min_eig = 0.5 * (rho[0, 0].real + rho[1, 1].real
                     - np.hypot(rho[0, 0].real - rho[1, 1].real, 2.0 * abs(rho[0, 1])))
    if not min_eig >= -tol:
        raise ValueError("density matrix is not positive semidefinite")
    return rho


def _require_unit(n: BlochVector, tol: float = 1e-10) -> BlochVector:
    if abs(n.norm() - 1.0) > tol:
        raise ValueError(f"direction must be a unit vector, got norm {n.norm():.12f}")
    return n


def direction_kets(directions) -> np.ndarray:
    """Kets alpha = cos(theta/2), beta = e^{i phi} sin(theta/2) along unit
    Bloch directions, shape (N, 2) for an (N, 3) array. The first amplitude
    above 1e-12 is real non-negative: where alpha is smaller it is set to 0."""
    d = np.asarray(directions, dtype=float)
    nz = np.clip(d[:, 2], -1.0, 1.0)
    alpha = np.sqrt((1.0 + nz) / 2.0)
    rxy = np.hypot(d[:, 0], d[:, 1])
    real = (rxy <= 1e-15) | (alpha < 1e-12)
    phase = np.where(real, 1.0, (d[:, 0] + 1j * d[:, 1]) / np.where(real, 1.0, rxy))
    return np.column_stack([np.where(alpha < 1e-12, 0.0, alpha), phase * np.sqrt((1.0 - nz) / 2.0)])


def bloch_to_state(n: BlochVector) -> QubitState:
    """Pure state along a unit Bloch direction, phased as in ``direction_kets``."""
    _require_unit(n)
    return QubitState.normalized(*direction_kets(n.as_array()[None])[0])


def state_to_bloch(rho) -> BlochVector:
    """Bloch vector n_k = Tr(rho sigma_k) of a 2x2 density matrix."""
    rho = check_density_matrix(rho)
    return BlochVector(*(float(np.trace(rho @ s).real) for s in PAULI))


def antiunitary_flip(psi: QubitState) -> QubitState:
    """Spin flip (alpha, beta) -> (-beta*, alpha*); negates the Bloch vector.

    Anti-linear, so it is not a physical single-copy operation; it is the
    target map that anti-cloning approximates.
    """
    return QubitState(-np.conj(psi.beta), np.conj(psi.alpha))


def fidelity_direction(rho, n: BlochVector) -> float:
    """Overlap <n|rho|n> of a density matrix with the pure state along n."""
    rho = check_density_matrix(rho)
    _require_unit(n)
    k = bloch_to_state(n).ket()
    return float(np.real(k.conj() @ rho @ k))
