"""Single-qubit states: Bloch directions to kets, the anti-unitary spin flip
and the density-matrix gate."""

from __future__ import annotations

import math
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
    "antiunitary_flip",
]

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = (SIGMA_X, SIGMA_Y, SIGMA_Z)
DENSITY_TOL = 1e-10  # tolerance of each property ``check_density_matrix`` checks


@dataclass(frozen=True)
class BlochVector:
    """Real 3-vector inside the unit ball; |n| = 1 for pure states."""

    nx: float
    ny: float
    nz: float

    def __post_init__(self):
        n2 = self.nx**2 + self.ny**2 + self.nz**2
        if not n2 <= 1.0 + 1e-12:
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


def squared_norm(alpha: complex, beta: complex) -> float:
    """|alpha|^2 + |beta|^2, or inf where that overflows: Python raises
    ``OverflowError`` for 1e200 ** 2 and for abs(1e308 + 1e308j)."""
    try:
        return abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:
        return float("inf")


@dataclass(frozen=True)
class QubitState:
    """Pure qubit state alpha|0> + beta|1>, normalized."""

    alpha: complex
    beta: complex

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        n = squared_norm(self.alpha, self.beta)
        if not abs(n - 1.0) <= 1e-12:
            raise ValueError(f"amplitudes have squared norm {n!r}, expected 1")

    @classmethod
    def normalized(cls, alpha: complex, beta: complex) -> "QubitState":
        n = np.sqrt(squared_norm(alpha, beta))
        if n < 1e-12:
            raise ValueError("cannot normalize the zero vector")
        if n == np.inf:
            raise ValueError("cannot normalize amplitudes whose squared norm overflows")
        return cls(complex(alpha) / n, complex(beta) / n)

    def ket(self) -> np.ndarray:
        return np.array([self.alpha, self.beta], dtype=complex)

    def density(self) -> np.ndarray:
        k = self.ket()
        return np.outer(k, k.conj())


def check_density_matrix(rho) -> np.ndarray:
    """Validate a 2x2 density matrix: Hermitian, unit trace and PSD, each to
    ``DENSITY_TOL``, and no NaN or infinite entries. The tests run in Python
    float arithmetic, which turns inf - inf into NaN without a warning."""
    tol = DENSITY_TOL
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got {rho.shape}")
    (a, b), (c, d) = rho.tolist()
    # `not (x <= tol)` rather than `x > tol`: a NaN entry must fail the test;
    # moduli by math.hypot, which gives inf where abs() of a complex raises
    # OverflowError
    deviations = (a - a.conjugate(), b - c.conjugate(), d - d.conjugate())
    if not all(math.hypot(z.real, z.imag) <= tol for z in deviations):
        raise ValueError("density matrix is not Hermitian")
    trace = a + d
    if not (abs(trace.real - 1.0) <= tol and abs(trace.imag) <= tol):
        raise ValueError("density matrix does not have unit trace")
    # smaller eigenvalue of a Hermitian 2x2: (tr - sqrt((a - d)^2 + 4|b|^2)) / 2
    min_eig = 0.5 * (a.real + d.real
                     - math.hypot(a.real - d.real, 2.0 * math.hypot(b.real, b.imag)))
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


def antiunitary_flip(psi: QubitState) -> QubitState:
    """Spin flip (alpha, beta) -> (-beta*, alpha*); negates the Bloch vector.

    Anti-linear, so it is not a physical single-copy operation; it is the
    target map that anti-cloning approximates.
    """
    return QubitState(-np.conj(psi.beta), np.conj(psi.alpha))
