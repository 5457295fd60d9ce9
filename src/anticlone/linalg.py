"""Basis kets, tensor products and the isometry gate.

Everything here operates on plain numpy arrays: 1-D complex arrays are kets,
2-D complex arrays are operators. All functions are pure; nothing mutates its
arguments.
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


def tensor(*operands) -> np.ndarray:
    """Kronecker product of kets or operators, leftmost factor most significant.

    For kets a (dim m) and b (dim n) the result has entry (n*i + j) = a[i]*b[j],
    so basis labels concatenate left to right: |i> x |j> = |ij>. Operators
    multiply the same way on row and column labels. Every entry is one
    complex product of one entry per factor, as ``np.kron`` forms it.
    """
    if not operands:
        raise ValueError("tensor() needs at least one operand")
    out = _as_complex(operands[0])
    for op in operands[1:]:
        op = _as_complex(op)
        if out.ndim != op.ndim or out.ndim not in (1, 2):
            raise ValueError("tensor() takes kets only or operators only")
        prod = np.multiply.outer(out, op)
        if out.ndim == 1:
            out = prod.reshape(-1)
        else:
            rows, cols = out.shape[0] * op.shape[0], out.shape[1] * op.shape[1]
            out = prod.transpose(0, 2, 1, 3).reshape(rows, cols)
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
