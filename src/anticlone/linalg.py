"""Basis kets, tensor products and the isometry gate.

Everything here operates on plain numpy arrays: 1-D complex arrays are kets,
2-D complex arrays are isometries. All functions are pure; nothing mutates
its arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = ["basis_ket", "tensor", "isometry_residual", "require_isometry"]

# Largest entry of |A^+ A - I| that still counts as an isometry.
ISOMETRY_TOL = 1e-10


def _as_complex(a) -> np.ndarray:
    out = np.asarray(a, dtype=complex)
    if not np.isfinite(out).all():
        raise ValueError("non-finite entries")
    return out


def basis_ket(dim: int, k: int) -> np.ndarray:
    """Computational basis ket |k> of C^dim."""
    v = np.zeros(dim, dtype=complex)
    v[k] = 1.0
    return v


def tensor(*kets) -> np.ndarray:
    """Kronecker product of kets, leftmost factor most significant.

    For kets a (dim m) and b (dim n) the result has entry (n*i + j) = a[i]*b[j],
    so basis labels concatenate left to right: |i> x |j> = |ij>. Every entry is
    one complex product of one entry per factor, as ``np.kron`` forms it.
    Raises ``ValueError`` on an operand that is not 1-D.
    """
    if not kets:
        raise ValueError("tensor() needs at least one ket")
    factors = [_as_complex(k) for k in kets]
    if any(k.ndim != 1 for k in factors):
        raise ValueError("tensor() takes kets only")
    out = factors[0]
    for k in factors[1:]:
        out = np.multiply.outer(out, k).reshape(-1)
    return out


def isometry_residual(a: np.ndarray) -> float:
    """Largest entry of |A^+ A - I|: how far the columns of ``a`` are from
    orthonormal."""
    return float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[1]))))


def require_isometry(a: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless ``a`` is an isometry within ``ISOMETRY_TOL``, NaN included."""
    err = isometry_residual(a)
    if not err <= ISOMETRY_TOL:
        raise ValueError(f"{what} is not an isometry (deviation {err:.3e})")
