"""Independent oracles for cross-checking the library.

Everything here is deliberately written the dumb way (explicit index sums,
hand-transcribed closed forms) and must not import the code paths it checks.
``fidelities_from_states`` builds on ``machine.output_states``, the reduced-
state path that the explicit partial-trace sums here check in turn.
``fidelities_by_bloch`` goes through ``qubit``'s Bloch conversions, which
the fidelity kernel in ``machine`` does not use. ``ObjectiveByMovedAxes``
is the optimizer's search objective as it was before the fidelity kernel
was prepared once per ascent: every call folds the targets again, gathers
each qubit's rows by ``np.moveaxis`` and recomputes the forward products
for the gradient, and it projects and pulls back in batch form, with the
norms and overlap recomputed in the pullback.
"""

import numpy as np

from anticlone.linalg import basis_ket
from anticlone.machine import AnticlonerParams, output_states
from anticlone.qubit import (
    QubitState,
    antiunitary_flip,
    direction_kets,
    fidelity_direction,
    state_to_bloch,
)


def kron_by_index(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tensor product of two kets via the defining index formula."""
    da, db = len(a), len(b)
    out = np.zeros(da * db, dtype=complex)
    for i in range(da):
        for j in range(db):
            out[i * db + j] = a[i] * b[j]
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


def fidelities_by_bloch(psi: QubitState, rho1: np.ndarray, rho2: np.ndarray) -> tuple[float, float]:
    """Clone fidelities by the Bloch round trip: the input's Bloch vector n
    from its density matrix, then <n|rho1|n> and <-n|rho2|-n> through the
    kets ``bloch_to_state`` rebuilds from n and -n."""
    n = state_to_bloch(psi.density())
    return fidelity_direction(rho1, n), fidelity_direction(rho2, -n)


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
    p: AnticlonerParams, alpha: complex, beta: complex
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form reduced outputs of the general two-row transform.

    Hand-derived entry by entry from the coefficient/ancilla inner products;
    independent of any partial-trace code. Valid for normalized (alpha, beta)
    and parameter sets satisfying the isometry conditions.
    """
    c = p.coeffs
    a, b, cc, d = c["a"], c["b"], c["c"], c["d"]
    at, bt, ct, dt = c["at"], c["bt"], c["ct"], c["dt"]

    def ip(x, y):
        return complex(np.vdot(p.ancillas[x], p.ancillas[y]))

    aa = abs(alpha) ** 2
    bb = abs(beta) ** 2
    ab = alpha * np.conj(beta)
    ba = np.conj(ab)

    rho1 = np.zeros((2, 2), dtype=complex)
    rho1[0, 0] = (
        (abs(a) ** 2 + abs(b) ** 2) * aa
        + (a * np.conj(dt) * ip("dt", "a") + b * np.conj(ct) * ip("ct", "b")) * ab
        + (ct * np.conj(b) * ip("b", "ct") + dt * np.conj(a) * ip("a", "dt")) * ba
        + (abs(ct) ** 2 + abs(dt) ** 2) * bb
    )
    rho1[0, 1] = (
        (a * np.conj(cc) * ip("c", "a") + b * np.conj(d) * ip("d", "b")) * aa
        + (a * np.conj(bt) * ip("bt", "a") + b * np.conj(at) * ip("at", "b")) * ab
        + (ct * np.conj(d) * ip("d", "ct") + dt * np.conj(cc) * ip("c", "dt")) * ba
        + (ct * np.conj(at) * ip("at", "ct") + dt * np.conj(bt) * ip("bt", "dt")) * bb
    )
    rho1[1, 0] = (
        (cc * np.conj(a) * ip("a", "c") + d * np.conj(b) * ip("b", "d")) * aa
        + (cc * np.conj(dt) * ip("dt", "c") + d * np.conj(ct) * ip("ct", "d")) * ab
        + (at * np.conj(b) * ip("b", "at") + bt * np.conj(a) * ip("a", "bt")) * ba
        + (at * np.conj(ct) * ip("ct", "at") + bt * np.conj(dt) * ip("dt", "bt")) * bb
    )
    rho1[1, 1] = (
        (abs(cc) ** 2 + abs(d) ** 2) * aa
        + (cc * np.conj(bt) * ip("bt", "c") + d * np.conj(at) * ip("at", "d")) * ab
        + (at * np.conj(d) * ip("d", "at") + bt * np.conj(cc) * ip("c", "bt")) * ba
        + (abs(at) ** 2 + abs(bt) ** 2) * bb
    )

    rho2 = np.zeros((2, 2), dtype=complex)
    rho2[0, 0] = (
        (abs(a) ** 2 + abs(cc) ** 2) * aa
        + (a * np.conj(dt) * ip("dt", "a") + cc * np.conj(bt) * ip("bt", "c")) * ab
        + (bt * np.conj(cc) * ip("c", "bt") + dt * np.conj(a) * ip("a", "dt")) * ba
        + (abs(bt) ** 2 + abs(dt) ** 2) * bb
    )
    rho2[0, 1] = (
        (a * np.conj(b) * ip("b", "a") + cc * np.conj(d) * ip("d", "c")) * aa
        + (a * np.conj(ct) * ip("ct", "a") + cc * np.conj(at) * ip("at", "c")) * ab
        + (bt * np.conj(d) * ip("d", "bt") + dt * np.conj(b) * ip("b", "dt")) * ba
        + (bt * np.conj(at) * ip("at", "bt") + dt * np.conj(ct) * ip("ct", "dt")) * bb
    )
    rho2[1, 0] = (
        (b * np.conj(a) * ip("a", "b") + d * np.conj(cc) * ip("c", "d")) * aa
        + (b * np.conj(dt) * ip("dt", "b") + d * np.conj(bt) * ip("bt", "d")) * ab
        + (at * np.conj(cc) * ip("c", "at") + ct * np.conj(a) * ip("a", "ct")) * ba
        + (at * np.conj(bt) * ip("bt", "at") + ct * np.conj(dt) * ip("dt", "ct")) * bb
    )
    rho2[1, 1] = (
        (abs(b) ** 2 + abs(d) ** 2) * aa
        + (b * np.conj(ct) * ip("ct", "b") + d * np.conj(at) * ip("at", "d")) * ab
        + (at * np.conj(d) * ip("d", "at") + ct * np.conj(b) * ip("b", "ct")) * ba
        + (abs(at) ** 2 + abs(ct) ** 2) * bb
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


def _fold(targets, kets):
    return (np.conj(targets)[:, :, None] * kets[:, None, :]).reshape(-1, 4).T


def fidelities_by_moved_axes(v, kets, targets):
    """``machine.output_fidelities`` with each qubit's (rest, qubit x input)
    rows gathered by ``np.moveaxis`` and the targets folded on every call."""
    lead = v.shape[:-2]
    regs = v.reshape(lead + (2,) * len(targets) + (-1, 2))
    fidelities = []
    for q, t in enumerate(targets):
        amps = np.moveaxis(regs, len(lead) + q, -2).reshape(lead + (-1, 4)) @ _fold(t, kets)
        fidelities.append((amps.real**2 + amps.imag**2).sum(axis=-2))
    return np.concatenate(fidelities, axis=-1)


def fidelities_adjoint_by_moved_axes(v, kets, targets, weights):
    """``machine.output_fidelities_adjoint`` in the same form, recomputing
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
    """The Gram-Schmidt pullback with ``np.linalg.norm``, ``np.sum`` and
    ``np.stack``."""
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


def softmin(values, temperature):
    scaled = -values / temperature
    peak = scaled.max(axis=-1, keepdims=True)
    return -temperature * (np.log(np.exp(scaled - peak).sum(axis=-1)) + peak[..., 0])


class ObjectiveByMovedAxes:
    """The optimizer's softmin search objective, with the interface of
    ``optimize._Objective``, evaluated by the functions above."""

    def __init__(self, copies, ancilla_dim, directions):
        self.out_dim = 2**copies * ancilla_dim
        self.k_in = direction_kets(directions)
        self.targets = (self.k_in, direction_kets(-directions))[2 - copies:]

    def evaluate(self, x, temperature):
        xb = x[None]
        vb = isometry_batch_by_norm(xb, self.out_dim)
        values = fidelities_by_moved_axes(vb, self.k_in, self.targets)
        search = softmin(values, temperature)

        def gradient():
            weights = np.exp((search[..., None] - values) / temperature)
            g = fidelities_adjoint_by_moved_axes(vb, self.k_in, self.targets, weights)
            return isometry_pullback_by_norm(xb, vb, g)[0]

        return float(search[0]), float(values.min(axis=1)[0]), gradient
