"""The universal anti-cloner.

A single unitary acting on (input qubit, blank qubit, 4-dim ancilla) that
emits one copy aligned with the unknown input direction and one copy
anti-aligned, both shrunk by the same factor eta. The machine is represented
as a 16x2 isometry: the images of |0> and |1> as 4-qubit states ordered
(clone 1, clone 2, ancilla qubit 1, ancilla qubit 2).

The optimal machine reaches eta = 1/3 (fidelity 2/3) for every input
direction; ``constraint_residuals`` evaluates the full constraint system that
pins that solution down, and ``measure_prepare_baseline`` estimates the
measure-and-prepare strategy it has to beat.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import basis_ket, tensor
from .rng import philox_stream
from .qubit import PAULI, BlochVector, QubitState, antiunitary_flip, check_density_matrix

__all__ = [
    "COEFF_KEYS",
    "AnticlonerParams",
    "CloneOutput",
    "ConstraintReport",
    "BaselineReport",
    "optimal_params",
    "build_isometry",
    "output_states",
    "output_fidelities",
    "output_fidelities_adjoint",
    "FidelityKernel",
    "anticlone",
    "target_forms",
    "constraint_residuals",
    "measure_prepare_baseline",
    "measure_prepare_pole_average",
    "haar_directions",
]

# Coefficient slots of the two-row transform: plain row is the image of |0>,
# "t"-suffixed (tilded) row the image of |1>.
COEFF_KEYS = ("a", "b", "c", "d", "at", "bt", "ct", "dt")

OPTIMAL_ETA = 1.0 / 3.0
OPTIMAL_FIDELITY = 2.0 / 3.0

# Samples per Philox stream in ``measure_prepare_baseline``.
BASELINE_BLOCK = 1 << 15


@dataclass(frozen=True)
class AnticlonerParams:
    """Coefficients and 4-dim ancilla kets of the general two-row transform.

    Ancillas must be normalized; the coefficient rows are *not* forced to be
    normalized here, since ``constraint_residuals`` exists precisely to report
    how far a parameter set is from satisfying the constraint system.
    """

    coeffs: dict[str, complex]
    ancillas: dict[str, np.ndarray]

    def __post_init__(self):
        if set(self.coeffs) != set(COEFF_KEYS):
            raise ValueError(f"coeffs must have exactly the keys {COEFF_KEYS}")
        if set(self.ancillas) != set(COEFF_KEYS):
            raise ValueError(f"ancillas must have exactly the keys {COEFF_KEYS}")
        object.__setattr__(
            self, "coeffs", {k: complex(self.coeffs[k]) for k in COEFF_KEYS}
        )
        ancs = {}
        for k in COEFF_KEYS:
            v = np.asarray(self.ancillas[k], dtype=complex)
            if v.shape != (4,):
                raise ValueError(f"ancilla {k!r} must be a 4-dim ket, got shape {v.shape}")
            if abs(np.linalg.norm(v) - 1.0) > 1e-10:
                raise ValueError(f"ancilla {k!r} is not normalized")
            ancs[k] = v
        object.__setattr__(self, "ancillas", ancs)

    def replace_coeff(self, key: str, value: complex) -> "AnticlonerParams":
        coeffs = dict(self.coeffs)
        coeffs[key] = complex(value)
        return AnticlonerParams(coeffs, self.ancillas)


@dataclass(frozen=True)
class CloneOutput:
    """The two reduced single-qubit outputs and their fidelities."""

    rho1: np.ndarray
    rho2: np.ndarray
    f1: float
    f2: float
    eta1: float
    eta2: float


@dataclass(frozen=True)
class ConstraintReport:
    """Residual magnitudes of the anti-cloner constraint system.

    ``eta_values`` holds the four independent expressions that must agree on
    the shrinking factor; their maximum pairwise spread is the
    ``eta_consistency`` residual.
    """

    residuals: dict[str, float]
    eta_values: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


@dataclass(frozen=True)
class BaselineReport:
    """Monte Carlo estimate of the measure-and-prepare strategy."""

    avg_fidelity_clone: float
    avg_fidelity_anticlone: float
    samples: int
    seed: int
    stderr: float


def optimal_params() -> AnticlonerParams:
    """The optimal anti-cloner solution: eta = 1/3 for every input direction.

    Moduli (1/sqrt(6) everywhere except |b| = 1/sqrt(2)), the two non-zero
    phases pi and arccos(1/sqrt(3)), and one fixed orthogonality pattern for
    the ancilla kets.
    """
    r6 = np.sqrt(1.0 / 6.0)
    b = np.sqrt(0.5) * np.exp(1j * np.arccos(1.0 / np.sqrt(3.0)))
    coeffs = {
        "a": r6, "b": b, "c": -r6, "d": r6,
        "at": r6, "bt": b, "ct": -r6, "dt": r6,
    }
    ancillas = {
        "a": basis_ket(4, 0), "at": basis_ket(4, 1),
        "b": basis_ket(4, 1), "bt": basis_ket(4, 0),
        "c": basis_ket(4, 1), "ct": basis_ket(4, 0),
        "d": basis_ket(4, 2), "dt": basis_ket(4, 3),
    }
    return AnticlonerParams(coeffs, ancillas)


def build_isometry(p: AnticlonerParams, tol: float = 1e-10) -> np.ndarray:
    """Assemble the 16x2 isometry from a parameter set.

    Image of |0>: a|00>A + b|01>B + c|10>C + d|11>D; image of |1> is the
    tilded row on the bit-flipped clone kets: at|11>At + bt|10>Bt + ct|01>Ct
    + dt|00>Dt. Raises if the result is not an isometry within ``tol``.
    """
    c, anc = p.coeffs, p.ancillas
    e0, e1 = basis_ket(2, 0), basis_ket(2, 1)
    col0 = (
        c["a"] * tensor(e0, e0, anc["a"])
        + c["b"] * tensor(e0, e1, anc["b"])
        + c["c"] * tensor(e1, e0, anc["c"])
        + c["d"] * tensor(e1, e1, anc["d"])
    )
    col1 = (
        c["at"] * tensor(e1, e1, anc["at"])
        + c["bt"] * tensor(e1, e0, anc["bt"])
        + c["ct"] * tensor(e0, e1, anc["ct"])
        + c["dt"] * tensor(e0, e0, anc["dt"])
    )
    v = np.stack([col0, col1], axis=1)
    err = np.max(np.abs(v.conj().T @ v - np.eye(2)))
    if err > tol:
        raise ValueError(f"parameters do not define an isometry (deviation {err:.3e})")
    return v


# Partial traces of the joint amplitudes j[..., n, q1, (q2,) k] onto each
# leading output qubit, by the number of leading qubits.
_KEEP_ONE_QUBIT = {
    1: ("...ak,...dk->...ad",),
    2: ("...ack,...dck->...ad", "...ack,...adk->...cd"),
}


def _isometries(v, copies: int) -> np.ndarray:
    """``v`` as complex isometries (..., rows, 2) into ``copies`` output
    qubits (1 or 2) followed by an ancilla; raises on any other shape."""
    v = np.asarray(v, dtype=complex)
    if copies not in _KEEP_ONE_QUBIT or v.ndim < 2 or v.shape[-1] != 2 or v.shape[-2] % 2**copies:
        raise ValueError(
            f"expected isometries into 1 or 2 qubits x ancilla, got copies={copies}, shape {v.shape}"
        )
    return v


def output_states(v, kets: np.ndarray, copies: int) -> tuple[np.ndarray, ...]:
    """Reduced states of the leading output qubits for every input ket.

    ``v`` holds isometries, shape (..., rows, 2), from one qubit into
    ``copies`` output qubits (1 or 2) followed by an ancilla of any
    dimension; ``kets`` holds N input kets, shape (N, 2). Returns one
    (..., N, 2, 2) array per output qubit, in register order. Callers that
    need only fidelities use ``output_fidelities``, which forms no state.
    """
    v = _isometries(v, copies)
    joint = np.einsum("...ri,ni->...nr", v, kets)
    j = joint.reshape(joint.shape[:-1] + (2,) * copies + (-1,))
    jc = j.conj()
    return tuple(np.einsum(trace, j, jc) for trace in _KEEP_ONE_QUBIT[copies])


def _fold(targets, kets: np.ndarray) -> np.ndarray:
    """conj(t_n) x k_n for every output qubit's targets and the input kets,
    as a (copies, N, 4) array."""
    return (np.conj(targets)[..., :, None] * kets[:, None, :]).reshape(len(targets), -1, 4)


@functools.lru_cache(maxsize=None)
def _row_maps(copies: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of V's entries (rows x input) that each output qubit
    q reads, stacked as (copies, rest, qubit q x input): V's registers (2,
    ..., 2, anc, 2) with qubit q moved next to the input axis. Also their
    inverse, (copies, 2 * rows): the position of each of V's entries in the
    flattened stack, per qubit. Read-only, so one copy serves every caller."""
    order = np.arange(2 * rows).reshape((2,) * copies + (-1, 2))
    maps = np.stack([np.moveaxis(order, q, -2).reshape(-1, 4) for q in range(copies)])
    inverse = np.argsort(maps.reshape(copies, -1), axis=1)
    inverse += 2 * rows * np.arange(copies)[:, None]
    for m in (maps, inverse):
        m.setflags(write=False)
    return maps, inverse


class FidelityKernel:
    """``output_fidelities`` and its adjoint for fixed input kets, targets
    and isometry row count.

    Everything that depends only on those is built once: the output
    qubits' folded vectors conj(t_n) x k_n, stacked (copies, 4, N), their
    conjugate transposes, and the stacked index map that gathers each
    qubit's (rest, qubit x input) rows from V's flat entries, with its
    inverse. ``amplitudes`` is one gather and one stacked product, which
    numpy takes as one small (rest, 4) @ (4, N) product per isometry and
    qubit; ``fidelities`` and ``adjoint`` both work from those amplitudes,
    so a gradient at a point already evaluated takes no second forward
    product.
    """

    def __init__(self, kets: np.ndarray, targets, rows: int):
        self.maps, self.inverse = _row_maps(len(targets), rows)
        # each qubit's (4, N) fold stays a transposed view of a row-major
        # (N, 4) block: BLAS rounds differently for a row-major (4, N)
        # operand, and the bitwise oracle tests pin these bits
        self.folds = _fold(targets, kets).swapaxes(-1, -2)
        self.size = 2 * rows

    @functools.cached_property
    def folds_h(self) -> np.ndarray:
        """Conjugate transposes of the folds, (copies, N, 4), for the
        adjoint only."""
        return self.folds.conj().swapaxes(-1, -2)

    def amplitudes(self, v: np.ndarray) -> np.ndarray:
        """(<t_n| x 1) V |k_n> for each output qubit, shape (..., copies,
        rest, N), for isometries ``v`` (..., rows, 2)."""
        flat = v.reshape(v.shape[:-2] + (self.size,))
        # Stacked, not merged: a single (batch x rest)-row product is large
        # enough for BLAS to thread, which stalls on a busy CPU.
        return np.take(flat, self.maps, axis=-1) @ self.folds

    @staticmethod
    def fidelities(amps: np.ndarray) -> np.ndarray:
        """Squared norms of the amplitudes, shape (..., copies * N),
        qubit-major."""
        f = (amps.real**2 + amps.imag**2).sum(axis=-2)
        return f.reshape(f.shape[:-2] + (-1,))

    def adjoint(self, amps: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Gradient G, shape (..., rows, 2), of sum_j weights_j f_j with
        respect to V, from the amplitudes at V: G_q = 2 (amps_q * w_q) @
        folded_q^H, summed over the qubits q onto V's entries through the
        inverse row maps, starting from zero."""
        lead = amps.shape[:-3]
        w = weights.reshape(lead + (amps.shape[-3], 1, -1))
        g = (2.0 * (amps * w) @ self.folds_h).reshape(lead + (-1,))
        grad = np.add.reduce(np.take(g, self.inverse, axis=-1), axis=-2, initial=0.0)
        return grad.reshape(lead + (-1, 2))


def output_fidelities(v, kets: np.ndarray, targets) -> np.ndarray:
    """Fidelities <t_n|rho_n|t_n> of the leading output qubits, without rho.

    ``v`` and ``kets`` are as for ``output_states``; ``targets`` holds one
    (N, 2) array of target kets per leading output qubit (1 or 2). Each
    fidelity is a squared norm, ||(<t_n| x 1) V |k_n>||^2, so qubit q takes
    one matrix product of V's (rest, qubit q x input) rows with the folded
    vectors conj(t_n) x k_n (``FidelityKernel``). Returns shape
    (..., copies * N), qubit-major.
    """
    v = _isometries(v, len(targets))
    kernel = FidelityKernel(kets, targets, v.shape[-2])
    return kernel.fidelities(kernel.amplitudes(v))


def output_fidelities_adjoint(v, kets: np.ndarray, targets, weights) -> np.ndarray:
    """Gradient of sum_j weights_j f_j over the fidelities f of
    ``output_fidelities(v, kets, targets)``, with respect to V.

    ``weights`` is real with the fidelities' shape (..., copies * N). Returns
    G with the shape of ``v`` such that d(w . f) = Re sum conj(G) dV. With
    amps = M_q @ folded for qubit q's rows M_q, G_q = 2 (amps * w_q) @
    folded^H, written back to V's rows.
    """
    v = _isometries(v, len(targets))
    kernel = FidelityKernel(kets, targets, v.shape[-2])
    return kernel.adjoint(kernel.amplitudes(v), np.asarray(weights, dtype=float))


def anticlone(psi: QubitState, v: np.ndarray, tol: float = 1e-10) -> CloneOutput:
    """Send one qubit through the machine and reduce to the two clones.

    ``v`` is an isometry from the input qubit into (clone 1, clone 2,
    ancilla); the ancilla may have dimension 1, 2 or 4. Fidelities are taken
    against the input ket for clone 1 and its spin flip for clone 2, by
    ``output_fidelities``, the kernel the optimizer uses.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValueError(f"expected an isometry with two columns, got {v.shape}")
    if np.max(np.abs(v.conj().T @ v - np.eye(2))) > tol:
        raise ValueError("matrix is not an isometry within tolerance")

    check_density_matrix(psi.density())
    k, k_opp = psi.ket()[None], antiunitary_flip(psi).ket()[None]
    rho1, rho2 = (check_density_matrix(rho[0]) for rho in output_states(v, k, 2))
    f1, f2 = (float(f) for f in output_fidelities(v, k, (k, k_opp)))
    return CloneOutput(
        rho1=rho1, rho2=rho2, f1=f1, f2=f2, eta1=2 * f1 - 1, eta2=2 * f2 - 1,
    )


def target_forms(n, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Ideal output pair ((1 + eta n.sigma)/2, (1 - eta n.sigma)/2) for a
    BlochVector ``n``, or a pair of (N, 2, 2) stacks for an (N, 3) array."""
    d = n.as_array() if isinstance(n, BlochVector) else np.asarray(n, dtype=float)
    if np.any(np.abs(np.linalg.norm(d, axis=-1) - 1.0) > 1e-10):
        raise ValueError("direction must be a unit vector")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"shrinking factor must lie in [0, 1], got {eta}")
    ndots = sum(d[..., k, None, None] * s for k, s in enumerate(PAULI))
    eye = np.eye(2, dtype=complex)
    return 0.5 * (eye + eta * ndots), 0.5 * (eye - eta * ndots)


def constraint_residuals(p: AnticlonerParams) -> ConstraintReport:
    """Evaluate every constraint of the anti-cloner system as a residual.

    Normalization of both coefficient rows, orthogonality of the two images,
    the modulus ties, the z cross-term cancellation, consistency of the four
    expressions for eta, the eight cross-term zero conditions, and the
    0 <-> 1 relabeling symmetry. Nothing raises; residuals just get reported.
    """
    c = p.coeffs
    ip = {k1 + k2: complex(np.vdot(p.ancillas[k1], p.ancillas[k2]))
          for k1 in COEFF_KEYS for k2 in COEFF_KEYS}

    a, b, cc, d = c["a"], c["b"], c["c"], c["d"]
    at, bt, ct, dt = c["at"], c["bt"], c["ct"], c["dt"]

    eta_moduli = abs(b) ** 2 - abs(cc) ** 2
    eta_moduli_alt = 2 * abs(b) ** 2 + 2 * abs(a) ** 2 - 1
    cross_aligned = np.conj(a) * bt * ip["abt"] + np.conj(b) * at * ip["bat"]
    cross_flipped = ct * np.conj(a) * ip["act"] + at * np.conj(cc) * ip["cat"]
    # The flipped copy's transverse terms enter with opposite sign, so this
    # expression equals -eta when the system is satisfied.
    eta_values = {
        "moduli": float(eta_moduli),
        "moduli_alt": float(eta_moduli_alt),
        "aligned_cross": float(np.real(cross_aligned)),
        "flipped_cross": float(-np.real(cross_flipped)),
    }
    etas = list(eta_values.values())
    eta_spread = max(abs(x - y) for x in etas for y in etas)

    residuals = {
        "norm_input0": abs(abs(a) ** 2 + abs(b) ** 2 + abs(cc) ** 2 + abs(d) ** 2 - 1),
        "norm_input1": abs(abs(at) ** 2 + abs(bt) ** 2 + abs(ct) ** 2 + abs(dt) ** 2 - 1),
        "orthogonality": abs(
            np.conj(a) * dt * ip["adt"] + np.conj(cc) * bt * ip["cbt"]
            + np.conj(b) * ct * ip["bct"] + np.conj(d) * at * ip["dat"]
        ),
        "mod_a_d": abs(abs(a) - abs(d)),
        "mod_at_dt": abs(abs(at) - abs(dt)),
        "z_cross": abs(
            a * np.conj(dt) * ip["dta"] + b * np.conj(ct) * ip["ctb"]
            - cc * np.conj(bt) * ip["btc"] - d * np.conj(at) * ip["atd"]
        ),
        "eta_consistency": float(eta_spread),
        "im_aligned_cross": abs(np.imag(cross_aligned)),
        "im_flipped_cross": abs(np.imag(cross_flipped)),
        "cross_b_dt": abs(b * np.conj(dt) * ip["dtb"] + d * np.conj(bt) * ip["btd"]),
        "cross_c_a": abs(cc * np.conj(a) * ip["ac"] + d * np.conj(b) * ip["bd"]),
        "cross_at_ct": abs(at * np.conj(ct) * ip["ctat"] + bt * np.conj(dt) * ip["dtbt"]),
        "cross_c_dt": abs(cc * np.conj(dt) * ip["dtc"] + d * np.conj(ct) * ip["ctd"]),
        "cross_a_b": abs(np.conj(a) * b * ip["ab"] + np.conj(cc) * d * ip["cd"]),
        "cross_bt_at": abs(np.conj(bt) * at * ip["btat"] + np.conj(dt) * ct * ip["dtct"]),
        "sym_a": abs(abs(a) - abs(at)),
        "sym_b": abs(abs(b) - abs(bt)),
        "sym_c": abs(abs(cc) - abs(ct)),
    }
    residuals = {k: float(v) for k, v in residuals.items()}
    return ConstraintReport(residuals=residuals, eta_values=eta_values)


def haar_directions(count: int, seed: int = 0) -> np.ndarray:
    """``count`` directions uniform on the sphere, as an (N, 3) array."""
    if count < 1:
        raise ValueError("need at least one direction")
    v = philox_stream(seed, 0).standard_normal((count, 3))
    norms = np.linalg.norm(v, axis=1)
    # a Gaussian triple is never numerically zero in practice; guard anyway
    bad = norms < 1e-12
    if np.any(bad):
        v[bad] = np.array([0.0, 0.0, 1.0])
        norms[bad] = 1.0
    return v / norms[:, None]


def measure_prepare_baseline(samples: int, seed: int = 0) -> BaselineReport:
    """Monte Carlo fidelity of "measure, then prepare an opposite pair".

    Each sample takes a uniform input direction n and a uniform measurement
    axis m, projects onto {|m>, |-m>}, and prepares (|m>, |-m>) or
    (|-m>, |m>) according to the outcome. Reports the average fidelity of
    each output against its target (n for the copy, -n for the anti-copy)
    and the standard error of the anti-copy average.

    The score depends on n and m only through t = n.m, and by Archimedes'
    hat-box theorem t is exactly uniform on [-1, 1] for independent uniform
    n and m. So each sample draws t = 2u - 1 directly, then the outcome by
    the Born rule, P(+m) = (1 + t)/2. Block b of ``BASELINE_BLOCK`` samples
    draws its t values and then its outcome uniforms from Philox stream
    (seed, b), so the result depends only on (samples, seed).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    total = total_sq = 0.0
    for block, start in enumerate(range(0, samples, BASELINE_BLOCK)):
        size = min(BASELINE_BLOCK, samples - start)
        rng = philox_stream(seed, block)
        nm = 2.0 * rng.random(size) - 1.0
        got_up = rng.random(size) < 0.5 * (1.0 + nm)
        # The outcome s = +-1 prepares the copy along s*m, scored against n,
        # and the anti-copy along -s*m, scored against -n: both fidelities
        # are (1 + s n.m)/2, bit for bit.
        f = 0.5 * (1.0 + np.where(got_up, nm, -nm))
        total += float(np.sum(f))
        total_sq += float(np.sum(f * f))

    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    stderr = float(np.sqrt(var / samples))
    return BaselineReport(
        avg_fidelity_clone=mean,
        avg_fidelity_anticlone=mean,
        samples=samples,
        seed=seed,
        stderr=stderr,
    )


def measure_prepare_pole_average(axis: np.ndarray) -> float:
    """Exact average fidelity of measuring along the unit axis m, then
    preparing the opposite pair, over the six poles +-e_i as inputs n.

    Outcome +m has probability p = (1 + n.m)/2 and then scores p; outcome -m
    scores 1 - p. The expected fidelity p^2 + (1 - p)^2 = (1 + (n.m)^2)/2 has
    degree 2 in n, and the six poles integrate degree-2 polynomials over the
    sphere exactly, so the result is the sphere average, 2/3 for every m.
    """
    m = np.asarray(axis, dtype=float)
    if m.shape != (3,) or not abs(float(m @ m) - 1.0) <= 1e-12:
        raise ValueError("axis must be a unit 3-vector")
    poles = np.vstack([np.eye(3), -np.eye(3)])
    p = 0.5 * (1.0 + poles @ m)
    return float(np.mean(p * p + (1.0 - p) * (1.0 - p)))
