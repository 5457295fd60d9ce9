"""Independent oracles for cross-checking the library.

Everything here is deliberately written the dumb way (explicit index sums,
hand-transcribed closed forms) and must not import the code paths it checks.
``fidelities_from_states`` checks ``machine.FidelityKernel``, which forms
no state, against contractions of the states ``machine.output_states``
forms, the reduced-state path that the explicit partial-trace sums here
check in turn. ``fidelities_by_bloch`` checks ``machine.anticlone``, which
reads each fidelity as Re<k|rho|k> from the state it formed, through a Bloch
round trip: the input's Bloch vector by Pauli traces
(``bloch_vector_by_trace``), then overlaps with the kets that
``qubit.bloch_to_state`` rebuilds from it (``fidelity_along``).
``two_state_unitary_by_correspondence`` is the two-state probabilistic
machine by joint Gram-Schmidt of its inputs and images and completion of
both bases (``unitary_by_correspondence``, ``orthonormal_complete``), the
construction the library used before the QR completion.
``test_linalg.py`` and ``test_qubit.py`` check these partial-trace,
Gram-Schmidt and Bloch oracles against closed forms.
``measure_prepare_baseline_serial`` is the baseline Monte Carlo as one loop
over its PCG64DXSM block streams, scored with the Born-rule comparison and the +-t
fidelity written out. ``ObjectiveByMovedAxes``
is the optimizer's search objective as it was before the fidelity kernel
was prepared once per ascent: every call folds the targets again, gathers
each qubit's rows by ``np.moveaxis`` and recomputes the forward products
for the gradient. It projects in batch form and pulls back row by row with
the optimizer's 2x2 arithmetic (``isometry_pullback_by_products``), the
norms and overlap recomputed. ``isometry_pullback_by_norm`` is the
pullback as the vector steps the optimizer took before that arithmetic,
through the raw column 1; it is the reference the 2x2 pullback is checked
against within the projection's loss of orthogonality.
``bfgs_inverse_hessian`` is the optimizer's L-BFGS model as a dense
matrix, built by the BFGS update formula in place of the two-loop
recursion.

``parameterize_isometry``, ``kernel_fidelities``, ``objective_universal``
and ``objective_spinflip`` are not oracles but thin wrappers over the
library for the tests: the optimizer's projection of one flat vector, the
fidelities of ``machine.FidelityKernel`` (the optimizer's kernel) in one
call, and the worst fidelity over a direction net from that kernel.
"""

import numpy as np

from anticlone.linalg import basis_ket
from anticlone.machine import (
    BASELINE_BLOCK,
    COEFF_KEYS,
    BaselineReport,
    FidelityKernel,
    output_states,
)
from anticlone.optimize import _isometry_batch
from anticlone.qubit import (
    PAULI,
    BlochVector,
    QubitState,
    antiunitary_flip,
    bloch_to_state,
    check_density_matrix,
    direction_kets,
)
from anticlone.rng import pcg_stream


def kron_by_index(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two kets via the defining index formula."""
    da, db = len(a), len(b)
    out = np.zeros(da * db, dtype=complex)
    for i in range(da):
        for j in range(db):
            out[i * db + j] = a[i] * b[j]
    return out


def tensor_by_kron(*operands) -> np.ndarray:
    """Tensor product of kets or operators by repeated ``np.kron``."""
    out = np.asarray(operands[0], dtype=complex)
    for op in operands[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def partial_trace_by_sum(rho: np.ndarray, dims: list[int], keep: list[int]) -> np.ndarray:
    """Partial trace by explicit summation over multi-indices."""
    keep = sorted(keep)
    n = len(dims)
    kept_dims = [dims[k] for k in keep]
    traced = [i for i in range(n) if i not in keep]
    out_dim = int(np.prod(kept_dims))
    out = np.zeros((out_dim, out_dim), dtype=complex)

    def decode(flat):
        digits = []
        for d in reversed(dims):
            digits.append(flat % d)
            flat //= d
        return list(reversed(digits))

    def encode_kept(digits):
        v = 0
        for k in keep:
            v = v * dims[k] + digits[k]
        return v

    total = int(np.prod(dims))
    for r in range(total):
        dr = decode(r)
        for c in range(total):
            dc = decode(c)
            if all(dr[t] == dc[t] for t in traced):
                out[encode_kept(dr), encode_kept(dc)] += rho[r, c]
    return out


def ket_by_angles(direction) -> np.ndarray:
    """cos(theta/2)|0> + e^{i phi} sin(theta/2)|1> along a unit Bloch direction."""
    x, y, z = direction
    theta = np.arccos(np.clip(z, -1.0, 1.0))
    phi = np.arctan2(y, x)
    return np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])


def clone_outputs_by_sum(v: np.ndarray, ket: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reduced states of the two leading qubits of ``v @ ket``, by explicit
    partial-trace sums over the joint projector."""
    joint = v @ ket
    rho = np.outer(joint, joint.conj())
    dims = [2, 2, v.shape[0] // 4]
    return partial_trace_by_sum(rho, dims, [0]), partial_trace_by_sum(rho, dims, [1])


def bloch_vector_by_trace(rho) -> np.ndarray:
    """Bloch vector n_k = Tr(rho sigma_k) of a 2x2 density matrix, which
    must pass ``qubit.check_density_matrix``."""
    rho = check_density_matrix(rho)
    return np.array([float(np.trace(rho @ s).real) for s in PAULI])


def fidelity_along(rho, n: BlochVector) -> float:
    """Overlap <n|rho|n> with the ket ``bloch_to_state`` builds along n;
    ``rho`` must pass ``qubit.check_density_matrix``."""
    rho = check_density_matrix(rho)
    k = bloch_to_state(n).ket()
    return float(np.real(k.conj() @ rho @ k))


def fidelities_by_bloch(psi: QubitState, rho1: np.ndarray, rho2: np.ndarray) -> tuple[float, float]:
    """Clone fidelities by the Bloch round trip: the input's Bloch vector n
    from its density matrix, then <n|rho1|n> and <-n|rho2|-n> through the
    kets ``bloch_to_state`` rebuilds from n and -n."""
    n = BlochVector(*bloch_vector_by_trace(psi.density()))
    return fidelity_along(rho1, n), fidelity_along(rho2, -n)


def fidelities_from_states(v: np.ndarray, kets: np.ndarray, targets) -> np.ndarray:
    """Fidelities <t_n|rho_n|t_n> contracted from the reduced states that
    ``output_states`` forms (the ρ path), one target array per leading
    output qubit, concatenated qubit-major."""
    rhos = output_states(v, kets, len(targets))
    return np.concatenate(
        [np.einsum("na,...nad,nd->...n", t.conj(), rho, t).real for t, rho in zip(targets, rhos)],
        axis=-1,
    )


def fd_gradient(search, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of ``search`` at the flat real vector ``x``.

    ``search`` maps a (B, n) batch of points to B values; it is called once,
    on the 2n probe points x + h e_i and x - h e_i.
    """
    n = len(x)
    eye = np.eye(n)
    values = search(np.vstack([x + h * eye, x - h * eye]))
    return (values[:n] - values[n:]) / (2.0 * h)


def haar_pair_dots(samples: int, rng: np.random.Generator) -> np.ndarray:
    """n.m for ``samples`` independent pairs of directions, each direction a
    normalized Gaussian triple (uniform on the sphere)."""
    n = rng.standard_normal((samples, 3))
    m = rng.standard_normal((samples, 3))
    n /= np.linalg.norm(n, axis=1)[:, None]
    m /= np.linalg.norm(m, axis=1)[:, None]
    return np.sum(n * m, axis=1)


def measure_prepare_by_directions(samples: int, seed: int) -> tuple[float, float]:
    """Measure-and-prepare Monte Carlo from explicit direction pairs: a
    uniform input n and axis m per sample, the outcome s = +-1 with Born
    probability (1 + s n.m)/2, and the copy prepared along s m, scored
    against n. Returns the mean fidelity and its standard error."""
    rng = np.random.default_rng(seed)
    nm = haar_pair_dots(samples, rng)
    s = np.where(rng.random(samples) < 0.5 * (1.0 + nm), 1.0, -1.0)
    f = 0.5 * (1.0 + s * nm)
    return float(np.mean(f)), float(np.std(f) / np.sqrt(samples))


def measure_prepare_baseline_serial(samples: int, seed: int = 0) -> BaselineReport:
    """``machine.measure_prepare_baseline`` on one thread, block after block:
    block b draws its t = n.m values and then its outcome uniforms from
    stream (seed, b), as two calls."""
    total = total_sq = 0.0
    for block, start in enumerate(range(0, samples, BASELINE_BLOCK)):
        size = min(BASELINE_BLOCK, samples - start)
        rng = pcg_stream(seed, block)
        nm = 2.0 * rng.random(size) - 1.0
        got_up = rng.random(size) < 0.5 * (1.0 + nm)
        f = 0.5 * (1.0 + np.where(got_up, nm, -nm))
        total += float(np.sum(f))
        total_sq += float(np.sum(f * f))
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    return BaselineReport(avg_fidelity_anticlone=mean, stderr=float(np.sqrt(var / samples)))


def verify_metrics_by_direction(v: np.ndarray, dirs: np.ndarray, eta: float) -> dict:
    """The verify campaign's per-direction metrics, one direction at a time:
    trig kets, explicit partial traces and hand-built target forms."""
    paulis = [np.array([[0, 1], [1, 0]], dtype=complex),
              np.array([[0, -1j], [1j, 0]], dtype=complex),
              np.array([[1, 0], [0, -1]], dtype=complex)]
    eye = np.eye(2, dtype=complex)
    dev_rho1 = dev_rho2 = dev_f = dev_bloch = 0.0
    f1s = []
    for d in dirs:
        k_in, k_opp = ket_by_angles(d), ket_by_angles(-d)
        rho1, rho2 = clone_outputs_by_sum(v, k_in)
        ndots = d[0] * paulis[0] + d[1] * paulis[1] + d[2] * paulis[2]
        dev_rho1 = max(dev_rho1, np.max(np.abs(rho1 - 0.5 * (eye + eta * ndots))))
        dev_rho2 = max(dev_rho2, np.max(np.abs(rho2 - 0.5 * (eye - eta * ndots))))
        f1 = np.vdot(k_in, rho1 @ k_in).real
        f2 = np.vdot(k_opp, rho2 @ k_opp).real
        dev_f = max(dev_f, abs(f1 - 2 / 3), abs(f2 - 2 / 3))
        bloch_sum = [np.trace((rho1 + rho2) @ s).real for s in paulis]
        dev_bloch = max(dev_bloch, max(abs(b) for b in bloch_sum))
        f1s.append(f1)
    return {
        "max_universality_deviation_rho1": dev_rho1,
        "max_universality_deviation_rho2": dev_rho2,
        "max_fidelity_deviation": dev_f,
        "max_bloch_opposition_deviation": dev_bloch,
        "fidelity_stddev_across_inputs": float(np.std(f1s)),
    }


def flip_density(rho: np.ndarray) -> np.ndarray:
    """Spin flip lifted to density matrices: negate the Bloch vector."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    n = [np.trace(rho @ s).real for s in (sx, sy, sz)]
    return 0.5 * (np.eye(2, dtype=complex) - n[0] * sx - n[1] * sy - n[2] * sz)


def reduced_outputs_from_coefficients(
    blocks: np.ndarray, alpha: complex, beta: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form reduced outputs of the general two-row transform.

    Hand-derived entry by entry from the coefficient/ancilla inner products
    conj(c_i) c_j <anc_i|anc_j>, each of which is the inner product
    <x_i|x_j> of the blocks x_k = c_k |anc_k> (rows of the (8, 4) block
    table, in ``COEFF_KEYS`` order); independent of any partial-trace code.
    Valid for normalized (alpha, beta) and block tables satisfying the
    isometry conditions.
    """
    x = dict(zip(COEFF_KEYS, np.asarray(blocks, dtype=complex)))

    def ip(i, j):
        return complex(np.vdot(x[i], x[j]))

    aa = abs(alpha) ** 2
    bb = abs(beta) ** 2
    ab = alpha * np.conj(beta)
    ba = np.conj(ab)

    rho1 = np.zeros((2, 2), dtype=complex)
    rho1[0, 0] = (
        (ip("a", "a") + ip("b", "b")) * aa
        + (ip("dt", "a") + ip("ct", "b")) * ab
        + (ip("b", "ct") + ip("a", "dt")) * ba
        + (ip("ct", "ct") + ip("dt", "dt")) * bb
    )
    rho1[0, 1] = (
        (ip("c", "a") + ip("d", "b")) * aa
        + (ip("bt", "a") + ip("at", "b")) * ab
        + (ip("d", "ct") + ip("c", "dt")) * ba
        + (ip("at", "ct") + ip("bt", "dt")) * bb
    )
    rho1[1, 0] = (
        (ip("a", "c") + ip("b", "d")) * aa
        + (ip("dt", "c") + ip("ct", "d")) * ab
        + (ip("b", "at") + ip("a", "bt")) * ba
        + (ip("ct", "at") + ip("dt", "bt")) * bb
    )
    rho1[1, 1] = (
        (ip("c", "c") + ip("d", "d")) * aa
        + (ip("bt", "c") + ip("at", "d")) * ab
        + (ip("d", "at") + ip("c", "bt")) * ba
        + (ip("at", "at") + ip("bt", "bt")) * bb
    )

    rho2 = np.zeros((2, 2), dtype=complex)
    rho2[0, 0] = (
        (ip("a", "a") + ip("c", "c")) * aa
        + (ip("dt", "a") + ip("bt", "c")) * ab
        + (ip("c", "bt") + ip("a", "dt")) * ba
        + (ip("bt", "bt") + ip("dt", "dt")) * bb
    )
    rho2[0, 1] = (
        (ip("b", "a") + ip("d", "c")) * aa
        + (ip("ct", "a") + ip("at", "c")) * ab
        + (ip("d", "bt") + ip("b", "dt")) * ba
        + (ip("at", "bt") + ip("ct", "dt")) * bb
    )
    rho2[1, 0] = (
        (ip("a", "b") + ip("c", "d")) * aa
        + (ip("dt", "b") + ip("bt", "d")) * ab
        + (ip("c", "at") + ip("a", "ct")) * ba
        + (ip("bt", "at") + ip("dt", "ct")) * bb
    )
    rho2[1, 1] = (
        (ip("b", "b") + ip("d", "d")) * aa
        + (ip("ct", "b") + ip("at", "d")) * ab
        + (ip("d", "at") + ip("b", "ct")) * ba
        + (ip("at", "at") + ip("ct", "ct")) * bb
    )
    return rho1, rho2


def max_feasible_f_by_bisection(
    gram_g: np.ndarray, gram_h: np.ndarray, psd_tol: float = 1e-12, width: float = 1e-12
) -> float:
    """Largest f in [0, 1] with G - f H positive semidefinite, by bisection.

    Tests f against the minimum eigenvalue of G - f H until the bracket is
    narrower than ``width``. Accepting eigenvalues down to ``-psd_tol`` lets
    the answer overshoot by about psd_tol / (v^† H v) for the binding
    eigenvector v, which reaches ~5e-9 when G is nearly singular.
    """

    def feasible(f: float) -> bool:
        return np.linalg.eigvalsh(gram_g - f * gram_h)[0] >= -psd_tol

    if feasible(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def output_gram_by_flipped_kets(states: list[QubitState], L: int, M: int) -> np.ndarray:
    """Gram matrix of the target outputs |i>^(x L) |flip(i)>^(x M).

    Builds each target as an explicit product ket, with the flip applied by
    ``antiunitary_flip``, and takes all pairwise inner products.
    """
    targets = []
    for s in states:
        out = np.ones(1, dtype=complex)
        for k in [s.ket()] * L + [antiunitary_flip(s).ket()] * M:
            out = kron_by_index(out, k)
        targets.append(out)
    n = len(targets)
    return np.array([[np.vdot(targets[i], targets[j]) for j in range(n)] for i in range(n)])


def two_state_images(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Images n1, n2 of |000> and |100> under the optimal two-state
    anti-cloner, transcribed from ``probclone.build_two_state_anticloner``
    operation by operation, so they match its arithmetic bit for bit."""
    ct, st = np.cos(theta), np.sin(theta)
    if ct < 1e-15:
        ct = 0.0
    t2 = np.tan(theta / 2)
    root = np.sqrt(1.0 + ct)
    n1 = np.zeros(8, dtype=complex)
    n1[0b010] = 1.0 / root
    n1[0b001] = np.sqrt(ct) / root
    n2 = np.zeros(8, dtype=complex)
    n2[0b000] = -ct / root
    n2[0b010] = -ct * t2 / root
    n2[0b100] = -st / root
    n2[0b110] = ct / root
    n2[0b001] = np.sqrt(ct) * t2 / root
    return n1, n2


GRAM_SCHMIDT_TOL = 1e-10  # residual norm at which a vector counts as dependent


def _project_out(vec: np.ndarray, basis: list[np.ndarray]) -> np.ndarray:
    for b in basis:
        vec = vec - np.vdot(b, vec) * b
    return vec


def orthonormal_complete(vs, dim: int) -> list[np.ndarray]:
    """Orthonormalize ``vs`` in order and extend to a basis of C^dim.

    Modified Gram-Schmidt with one re-orthogonalization pass; completion
    vectors come from the computational basis in index order, skipping those
    that project away. Raises ``ValueError`` on a dependent input.
    """
    basis: list[np.ndarray] = []
    for i, v in enumerate(vs):
        w = _project_out(_project_out(v, basis), basis)
        norm = np.linalg.norm(w)
        if norm < GRAM_SCHMIDT_TOL:
            raise ValueError(f"input vector {i} is linearly dependent on its predecessors")
        basis.append(w / norm)
    for k in range(dim):
        if len(basis) == dim:
            break
        w = _project_out(_project_out(basis_ket(dim, k), basis), basis)
        norm = np.linalg.norm(w)
        if norm >= GRAM_SCHMIDT_TOL:
            basis.append(w / norm)
    return basis


def unitary_by_correspondence(inputs, images) -> np.ndarray:
    """Unitary U with U @ inputs[i] = images[i], by joint Gram-Schmidt.

    The Gram matrices must agree to ``GRAM_SCHMIDT_TOL``, else ``ValueError``.
    Both lists shrink by the projection coefficients of the inputs, so a
    vector dependent on its predecessors must be dependent in both lists.
    U is linear, so it maps the input residual divided by its norm to the
    image residual divided by the same norm: an image whose norm rounds off
    the input's is kept as it is, not rescaled. The two lists are completed
    to bases, and U maps basis to basis.
    """
    g_in = np.array([[np.vdot(a, b) for b in inputs] for a in inputs])
    g_out = np.array([[np.vdot(a, b) for b in images] for a in images])
    if not np.max(np.abs(g_in - g_out)) <= GRAM_SCHMIDT_TOL:
        raise ValueError("Gram matrices differ; no unitary maps the lists")
    in_basis: list[np.ndarray] = []
    out_basis: list[np.ndarray] = []
    for i, (u, w) in enumerate(zip(inputs, images)):
        for b_in, b_out in zip(in_basis, out_basis):
            coef = np.vdot(b_in, u)
            u = u - coef * b_in
            w = w - coef * b_out
        nu, nw = np.linalg.norm(u), np.linalg.norm(w)
        if nu < GRAM_SCHMIDT_TOL and nw < GRAM_SCHMIDT_TOL:
            continue
        if nu < GRAM_SCHMIDT_TOL or nw < GRAM_SCHMIDT_TOL:
            raise ValueError(f"vector {i} is dependent in one list but not the other")
        in_basis.append(u / nu)
        out_basis.append(w / nu)
    dim = len(inputs[0])
    out = np.zeros((dim, dim), dtype=complex)
    ins = in_basis + orthonormal_complete(in_basis, dim)[len(in_basis):]
    outs = out_basis + orthonormal_complete(out_basis, dim)[len(out_basis):]
    for b_in, b_out in zip(ins, outs):
        out += np.outer(b_out, b_in.conj())
    return out


def two_state_unitary_by_correspondence(theta: float) -> np.ndarray:
    """The two-state machine by joint Gram-Schmidt of (|000>, |100>) and
    (n1, n2) and completion of both bases from the computational basis."""
    return unitary_by_correspondence(
        [basis_ket(8, 0b000), basis_ket(8, 0b100)], list(two_state_images(theta))
    )


def _fold(targets, kets):
    return (np.conj(targets)[:, :, None] * kets[:, None, :]).reshape(-1, 4).T


def fidelities_by_moved_axes(v, kets, targets):
    """``machine.FidelityKernel``'s fidelities with each qubit's (rest,
    qubit x input) rows gathered by ``np.moveaxis`` and the targets folded
    on every call."""
    lead = v.shape[:-2]
    regs = v.reshape(lead + (2,) * len(targets) + (-1, 2))
    fidelities = []
    for q, t in enumerate(targets):
        amps = np.moveaxis(regs, len(lead) + q, -2).reshape(lead + (-1, 4)) @ _fold(t, kets)
        fidelities.append((amps.real**2 + amps.imag**2).sum(axis=-2))
    return np.concatenate(fidelities, axis=-1)


def fidelities_adjoint_by_moved_axes(v, kets, targets, weights):
    """``machine.FidelityKernel.adjoint`` in the same form, recomputing
    the forward products."""
    lead = v.shape[:-2]
    regs = v.reshape(lead + (2,) * len(targets) + (-1, 2))
    w = np.asarray(weights, dtype=float).reshape(lead + (len(targets), 1, -1))
    grad = np.zeros_like(regs)
    for q, t in enumerate(targets):
        folded = _fold(t, kets)
        rows = np.moveaxis(regs, len(lead) + q, -2)
        amps = rows.reshape(lead + (-1, 4)) @ folded
        g = 2.0 * (amps * w[..., q, :, :]) @ folded.conj().T
        np.moveaxis(grad, len(lead) + q, -2)[...] += g.reshape(rows.shape)
    return grad.reshape(v.shape)


DEGENERACY_TOL = 1e-12


def isometry_batch_by_norm(x, out_dim):
    """The optimizer's Gram-Schmidt projection with ``np.linalg.norm`` and
    ``np.stack``."""
    b = x.shape[0]
    cols = x.reshape(b, 2, out_dim, 2)
    c0 = cols[:, 0, :, 0] + 1j * cols[:, 0, :, 1]
    c1 = cols[:, 1, :, 0] + 1j * cols[:, 1, :, 1]
    n0 = np.linalg.norm(c0, axis=1)
    dead = n0 < DEGENERACY_TOL
    if np.any(dead):
        c0 = c0.copy()
        c0[dead] = 0.0
        c0[dead, 0] = 1.0
        n0 = np.linalg.norm(c0, axis=1)
    c0 = c0 / n0[:, None]
    c1 = c1 - np.sum(c0.conj() * c1, axis=1)[:, None] * c0
    n1 = np.linalg.norm(c1, axis=1)
    bad = n1 < DEGENERACY_TOL
    if np.any(bad):
        c1 = c1.copy()
        for row in np.nonzero(bad)[0]:
            for k in range(out_dim):
                cand = basis_ket(out_dim, k)
                cand = cand - np.vdot(c0[row], cand) * c0[row]
                if np.linalg.norm(cand) > 0.5:
                    c1[row] = cand
                    break
        n1 = np.linalg.norm(c1, axis=1)
    c1 = c1 / n1[:, None]
    return np.stack([c0, c1], axis=2)


def isometry_pullback_by_norm(x, v, g):
    """The Gram-Schmidt pullback as vector steps, with ``np.linalg.norm``,
    ``np.sum`` and ``np.stack``: for e = u / |u| the gradient on u is
    (g - Re<e, g> e) / |u|, and column 0 also collects the gradient of
    column 1's projection off it, through the raw column 1. A column that
    fell back to a basis vector gets a zero gradient and passes nothing
    on."""
    b, out_dim = v.shape[:2]
    cols = x.reshape(b, 2, out_dim, 2)
    c0 = cols[:, 0, :, 0] + 1j * cols[:, 0, :, 1]
    c1 = cols[:, 1, :, 0] + 1j * cols[:, 1, :, 1]
    e0, e1 = v[:, :, 0], v[:, :, 1]
    g0, g1 = g[:, :, 0], g[:, :, 1]

    def inner(a, z):
        return np.sum(a.conj() * z, axis=1)[:, None]

    overlap = inner(e0, c1)
    n0 = np.linalg.norm(c0, axis=1)[:, None]
    n1 = np.linalg.norm(c1 - overlap * e0, axis=1)[:, None]
    live0, live1 = n0 >= DEGENERACY_TOL, n1 >= DEGENERACY_TOL
    h1 = np.where(live1, g1 - inner(e1, g1).real * e1, 0.0) / np.where(live1, n1, 1.0)
    grad_c1 = h1 - inner(e0, h1) * e0
    g0 = g0 - inner(h1, e0) * c1 - overlap.conj() * h1
    grad_c0 = np.where(live0, g0 - inner(e0, g0).real * e0, 0.0) / np.where(live0, n0, 1.0)
    grad = np.stack([grad_c0, grad_c1], axis=1)
    return np.stack([grad.real, grad.imag], axis=-1).reshape(b, -1)


def isometry_pullback_by_products(x, v, g):
    """The optimizer's Gram-Schmidt pullback, one row at a time: the 2x2
    product M = V^H g and the coefficients of g and V that it and the
    norms and overlap give, those recomputed with ``np.linalg.norm`` and
    ``np.sum``."""
    b, out_dim = v.shape[:2]
    cols = x.reshape(b, 2, out_dim, 2)
    c0 = cols[:, 0, :, 0] + 1j * cols[:, 0, :, 1]
    c1 = cols[:, 1, :, 0] + 1j * cols[:, 1, :, 1]
    overlap = np.sum(v[:, :, 0].conj() * c1, axis=1)
    n0 = np.linalg.norm(c0, axis=1)
    n1 = np.linalg.norm(c1 - overlap[:, None] * v[:, :, 0], axis=1)
    grad = np.empty((b, 2, out_dim), dtype=complex)
    for i in range(b):
        (m00, m01), (_, m11) = (v[i].conj().T @ g[i]).tolist()
        inv0 = 0.0 if n0[i] < DEGENERACY_TOL else 1.0 / n0[i]
        inv1, m01 = (0.0, 0.0) if n1[i] < DEGENERACY_TOL else (1.0 / n1[i], m01)
        a = overlap[i].conjugate() * inv1
        coeffs = np.array([
            [inv0, -a * inv0, (a * m01 - m00.real) * inv0, (a * m11.real - m01.conjugate()) * inv0],
            [0.0, inv1, -m01 * inv1, -m11.real * inv1],
        ])
        grad[i] = coeffs @ np.concatenate((g[i], v[i]), axis=1).T
    return grad.view(float).reshape(b, -1)


def softmin(values, temperature):
    scaled = -values / temperature
    peak = scaled.max(axis=-1, keepdims=True)
    return -temperature * (np.log(np.exp(scaled - peak).sum(axis=-1)) + peak[..., 0])


class ObjectiveByMovedAxes:
    """The optimizer's softmin search objective, with the interface of
    ``optimize._Objective``, evaluated by the functions above.
    ``evaluate_rows`` scores the rows of a (K, n) batch in one call, and
    ``evaluate`` one point, as a batch of one."""

    def __init__(self, copies, ancilla_dim, directions):
        self.out_dim = 2**copies * ancilla_dim
        self.k_in = direction_kets(directions)
        self.targets = (self.k_in, direction_kets(-directions))[2 - copies:]

    def evaluate_rows(self, x, temperature):
        """(search values, hard values, gradient) at the rows of ``x``;
        ``gradient(i)`` is the search value's gradient at row i."""
        vb = isometry_batch_by_norm(x, self.out_dim)
        values = fidelities_by_moved_axes(vb, self.k_in, self.targets)
        search = softmin(values, temperature)

        def gradient(i):
            rows = slice(i, i + 1)
            weights = np.exp((search[rows, None] - values[rows]) / temperature)
            g = fidelities_adjoint_by_moved_axes(vb[rows], self.k_in, self.targets, weights)
            return isometry_pullback_by_products(x[rows], vb[rows], g)[0]

        return search, values.min(axis=1), gradient

    def evaluate(self, x, temperature):
        search, hard, gradient = self.evaluate_rows(x[None], temperature)
        return search[0], float(hard[0]), lambda: gradient(0)


def bfgs_inverse_hessian(pairs) -> np.ndarray:
    """The dense BFGS inverse Hessian of the (s, y) ``pairs``, oldest
    first: H0 = (s.y / y.y) I from the newest pair, then one update
    H <- (I - rho s y^T) H (I - rho y s^T) + rho s s^T per pair, oldest
    first, with rho = 1 / s.y."""
    s_new, y_new = pairs[-1]
    n = len(s_new)
    h = np.eye(n) * (s_new @ y_new) / (y_new @ y_new)
    for s, y in pairs:
        rho = 1.0 / (s @ y)
        left = np.eye(n) - rho * np.outer(s, y)
        h = left @ h @ left.T + rho * np.outer(s, s)
    return h


def parameterize_isometry(x, out_dim: int) -> np.ndarray:
    """Flat reals -> isometry: the optimizer's projection, without its
    record."""
    return _isometry_batch(np.asarray(x, dtype=float), out_dim)[0]


def kernel_fidelities(v, kets: np.ndarray, targets) -> np.ndarray:
    """Fidelities <t_n|rho_n|t_n> of isometries ``v`` (..., rows, 2) from a
    ``machine.FidelityKernel`` built for this one call, shape
    (..., copies * N), qubit-major."""
    v = np.asarray(v, dtype=complex)
    kernel = FidelityKernel(kets, targets, v.shape[-2])
    return kernel.fidelities(kernel.amplitudes(v))


def objective_universal(v: np.ndarray, directions) -> float:
    """Worst-direction anti-cloning fidelity of one isometry: the minimum
    over the directions n of the two outputs' fidelities against n and -n."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    k_in = direction_kets(d)
    return float(kernel_fidelities(v, k_in, (k_in, direction_kets(-d))).min())


def objective_spinflip(v: np.ndarray, directions) -> float:
    """Worst-direction flip fidelity <-n|rho_out|-n> of a (2 x anc) isometry."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    return float(kernel_fidelities(v, direction_kets(d), (direction_kets(-d),)).min())
