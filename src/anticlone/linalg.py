"""Basis kets and the isometry gate.

Everything here operates on plain numpy arrays: 1-D complex arrays are kets,
2-D complex arrays are isometries. All functions are pure; nothing mutates
its arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = ["basis_ket", "isometry_residual", "require_isometry"]

# Largest entry of |A^+ A - I| that still counts as an isometry.
ISOMETRY_TOL = 1e-10


def basis_ket(dim: int, k: int) -> np.ndarray:
    """Computational basis ket |k> of C^dim."""
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def isometry_residual(a: np.ndarray) -> float:
    """Largest entry of |A^+ A - I|: how far the columns of ``a`` are from
    orthonormal."""
    return float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[1]))))


def require_isometry(a: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless ``a`` is an isometry within ``ISOMETRY_TOL``.
    NaN and +-inf entries are rejected before any product is formed, so
    they raise no numpy warning on the way."""
    if not np.isfinite(a).all():
        raise ValueError(f"{what} is not an isometry (non-finite entries)")
    err = isometry_residual(a)
    if not err <= ISOMETRY_TOL:
        raise ValueError(f"{what} is not an isometry (deviation {err:.3e})")
