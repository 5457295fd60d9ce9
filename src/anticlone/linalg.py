"""Dense complex linear algebra for small dimensions (<= 16).

Everything here operates on plain numpy arrays: 1-D complex arrays are kets,
2-D complex arrays are operators. All functions are pure; nothing mutates its
arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "GramMismatchError",
    "RankError",
    "basis_ket",
    "tensor",
    "partial_trace",
    "hermitian_eigenvalues",
    "isometry_residual",
    "require_isometry",
    "orthonormal_complete",
    "unitary_from_correspondence",
]

DEFAULT_TOL = 1e-10
# Largest entry of |A^+ A - I| that still counts as an isometry.
ISOMETRY_TOL = 1e-10


class RankError(ValueError):
    """A vector list is linearly dependent where independence is required."""


class GramMismatchError(ValueError):
    """Two vector lists have incompatible Gram matrices."""


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


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace a multi-factor density matrix down to the factors in ``keep``.

    ``dims`` lists the factor dimensions in tensor order (leftmost = most
    significant); ``keep`` is a set of 0-based factor indices. Kept factors
    stay in their original order.
    """
    rho = _as_complex(rho)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if rho.shape != (total, total):
        raise ValueError(
            f"matrix is {rho.shape} but factor dimensions {dims} imply {total}x{total}"
        )
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep must name at least one factor")
    if keep[0] < 0 or keep[-1] >= len(dims):
        raise ValueError(f"keep indices {keep} out of range for {len(dims)} factors")

    n = len(dims)
    work = rho.reshape(dims + dims)
    # Trace out non-kept factors one at a time, highest axis first so the
    # remaining axis numbers stay valid.
    for ax in sorted(set(range(n)) - set(keep), reverse=True):
        work = np.trace(work, axis1=ax, axis2=ax + work.ndim // 2)
    kept_dim = int(np.prod([dims[k] for k in keep]))
    return work.reshape(kept_dim, kept_dim)


def hermitian_eigenvalues(h, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix (LAPACK ``eigvalsh``)
    after checking that ``h`` is Hermitian within ``tol``."""
    h = _as_complex(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    if np.max(np.abs(h - h.conj().T)) > tol:
        raise ValueError("matrix is not Hermitian within tolerance")
    return np.linalg.eigvalsh(0.5 * (h + h.conj().T))


def isometry_residual(a: np.ndarray) -> float:
    """Largest entry of |A^+ A - I|: how far the columns of ``a`` are from
    orthonormal."""
    return float(np.max(np.abs(a.conj().T @ a - np.eye(a.shape[1]))))


def require_isometry(a: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` unless ``a`` is an isometry within ``ISOMETRY_TOL``, NaN included."""
    err = isometry_residual(a)
    if not err <= ISOMETRY_TOL:
        raise ValueError(f"{what} is not an isometry (deviation {err:.3e})")


def _mgs_pass(vec: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    for b in basis:
        vec = vec - np.vdot(b, vec) * b
    return vec


def orthonormal_complete(vs, dim: int, tol: float = DEFAULT_TOL) -> list[np.ndarray]:
    """Orthonormalize ``vs`` in order and extend to a full basis of C^dim.

    Modified Gram-Schmidt with one re-orthogonalization pass. Completion
    vectors come from the computational basis in index order, skipping
    candidates whose residual after projection is negligible, so the output
    is deterministic. Inputs that are already orthonormal come back unchanged
    (up to re-orthogonalization noise).
    """
    basis: list[np.ndarray] = []
    for i, v in enumerate(vs):
        v = _as_complex(v)
        if v.shape != (dim,):
            raise ValueError(f"vector {i} has shape {v.shape}, expected ({dim},)")
        w = _mgs_pass(_mgs_pass(v, basis), basis)
        norm = np.linalg.norm(w)
        if norm < tol:
            raise RankError(f"input vector {i} is linearly dependent on its predecessors")
        basis.append(w / norm)
    if len(basis) > dim:
        raise ValueError(f"{len(basis)} vectors cannot be independent in dimension {dim}")

    for k in range(dim):
        if len(basis) == dim:
            break
        w = _mgs_pass(_mgs_pass(basis_ket(dim, k), basis), basis)
        norm = np.linalg.norm(w)
        if norm < tol:
            continue
        basis.append(w / norm)
    return basis


def _joint_orthonormalize(inputs, images, tol):
    """Run Gram-Schmidt on both lists with shared coefficients.

    Because the Gram matrices agree, each input and its image shrink by the
    same projections; a vector that is dependent on its predecessors must be
    dependent in both lists at once, otherwise the correspondence has no
    unitary extension.
    """
    in_basis: list[np.ndarray] = []
    out_basis: list[np.ndarray] = []
    for i, (u, w) in enumerate(zip(inputs, images)):
        ru, rw = u, w
        for b_in, b_out in zip(in_basis, out_basis):
            coef = np.vdot(b_in, ru)
            ru = ru - coef * b_in
            rw = rw - coef * b_out
        nu, nw = np.linalg.norm(ru), np.linalg.norm(rw)
        if nu < tol and nw < tol:
            continue  # consistently dependent pair: already determined
        if nu < tol or nw < tol:
            raise RankError(
                f"vector {i} is dependent in one list but independent in the other"
            )
        in_basis.append(ru / nu)
        out_basis.append(rw / nw)
    return in_basis, out_basis


def unitary_from_correspondence(inputs, images, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Unitary U with U @ inputs[i] = images[i], if one exists.

    Requires the two Gram matrices to agree within ``tol`` (the necessary and
    sufficient condition). Both lists are orthonormalized with the same
    coefficients and completed to full bases; U maps basis to basis.
    """
    ins = [_as_complex(v) for v in inputs]
    outs = [_as_complex(v) for v in images]
    if len(ins) != len(outs):
        raise ValueError("need one image per input")
    if not ins:
        raise ValueError("need at least one correspondence pair")
    dim_in = ins[0].shape[0]
    dim_out = outs[0].shape[0]
    if dim_in != dim_out:
        raise ValueError("inputs and images must live in the same dimension")
    for v in ins[1:]:
        if v.shape != (dim_in,):
            raise ValueError("inputs have inconsistent dimensions")
    for v in outs[1:]:
        if v.shape != (dim_out,):
            raise ValueError("images have inconsistent dimensions")

    g_in = np.array([[np.vdot(a, b) for b in ins] for a in ins])
    g_out = np.array([[np.vdot(a, b) for b in outs] for a in outs])
    mismatch = float(np.max(np.abs(g_in - g_out)))
    if mismatch > tol:
        raise GramMismatchError(
            f"Gram matrices differ by {mismatch:.3e}; no unitary can map the lists"
        )

    in_basis, out_basis = _joint_orthonormalize(ins, outs, tol)
    in_full = orthonormal_complete(in_basis, dim_in, tol=tol)
    out_full = orthonormal_complete(out_basis, dim_out, tol=tol)

    u = np.zeros((dim_out, dim_in), dtype=complex)
    for b_in, b_out in zip(in_full, out_full):
        u += np.outer(b_out, b_in.conj())
    return u
