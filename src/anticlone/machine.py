"""The universal anti-cloner.

A single unitary acting on (input qubit, blank qubit, 4-dim ancilla) that
emits one copy aligned with the unknown input direction and one copy
anti-aligned, both shrunk by the same factor eta. The machine is represented
as a 16x2 isometry: the images of |0> and |1> as 4-qubit states ordered
(clone 1, clone 2, ancilla qubit 1, ancilla qubit 2).

The paper writes the machine as two coefficient rows (a, b, c, d and their
tilded twins) times eight ancilla kets. Here it is the (8, 4) block table
of the products x_k = c_k |anc_k>, one row per ``COEFF_KEYS`` entry: the
isometry's 4-vector blocks. The optimal machine reaches eta = 1/3
(fidelity 2/3) for every input direction; ``constraint_residuals``
evaluates the full constraint system that pins that solution down from
the blocks' inner products, and ``measure_prepare_baseline`` estimates the
measure-and-prepare strategy it has to beat.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .linalg import require_isometry
from .rng import pcg_stream, philox_stream
from .qubit import PAULI, QubitState, antiunitary_flip, check_density_matrix

__all__ = [
    "COEFF_KEYS",
    "CloneOutput",
    "ConstraintReport",
    "BaselineReport",
    "optimal_params",
    "build_isometry",
    "output_states",
    "FidelityKernel",
    "anticlone",
    "anticlone_all",
    "target_forms",
    "constraint_residuals",
    "measure_prepare_baseline",
    "measure_prepare_pole_average",
    "haar_directions",
]

# Rows of the block table, one per coefficient of the two-row transform:
# plain row is the image of |0>, "t"-suffixed (tilded) row the image of |1>.
COEFF_KEYS = ("a", "b", "c", "d", "at", "bt", "ct", "dt")

OPTIMAL_ETA = 1.0 / 3.0
OPTIMAL_FIDELITY = 2.0 / 3.0

# Samples per PCG64DXSM block stream in ``measure_prepare_baseline``.
BASELINE_BLOCK = 1 << 15


@dataclass(frozen=True)
class CloneOutput:
    """The two reduced single-qubit outputs and their fidelities; each
    output's shrinking factor is 2f - 1."""

    rho1: np.ndarray
    rho2: np.ndarray
    f1: float
    f2: float


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
        """Largest residual; NaN if any residual is NaN (``max`` would skip it)."""
        return float(np.max(list(self.residuals.values())))


@dataclass(frozen=True)
class BaselineReport:
    """Monte Carlo estimate of the measure-and-prepare strategy.

    The copy and the anti-copy score the same fidelity sample for sample,
    so one average serves both."""

    avg_fidelity_anticlone: float
    stderr: float


def optimal_params() -> np.ndarray:
    """The optimal anti-cloner's (8, 4) block table: eta = 1/3 for every
    input direction.

    Moduli 1/sqrt(6) everywhere except |b| = |bt| = 1/sqrt(2), the two
    non-zero phases pi (c, ct) and arccos(1/sqrt(3)) (b, bt), and one fixed
    orthogonality pattern: each block is its coefficient times a basis ket.
    """
    r6 = np.sqrt(1.0 / 6.0)
    b = np.sqrt(0.5) * np.exp(1j * np.arccos(1.0 / np.sqrt(3.0)))
    blocks = np.zeros((8, 4), dtype=complex)
    # rows a, b, c, d, at, bt, ct, dt; columns the ancilla basis kets
    blocks[range(8), [0, 1, 1, 2, 1, 0, 0, 3]] = [r6, b, -r6, r6, r6, b, -r6, r6]
    return blocks


def _block_table(blocks) -> np.ndarray:
    x = np.asarray(blocks, dtype=complex)
    if x.shape != (8, 4):
        raise ValueError(f"expected an (8, 4) block table, got shape {x.shape}")
    return x


def build_isometry(blocks) -> np.ndarray:
    """Assemble the 16x2 isometry from an (8, 4) block table.

    Image of |0>: a|00>A + b|01>B + c|10>C + d|11>D, the blocks a, b, c, d
    in clone-bit order; image of |1> is the tilded row on the bit-flipped
    clone kets: at|11>At + bt|10>Bt + ct|01>Ct + dt|00>Dt, the blocks dt,
    ct, bt, at in clone-bit order. Raises if the result is not an isometry
    within ``linalg.ISOMETRY_TOL``.
    """
    x = _block_table(blocks)
    v = np.stack([x[:4].reshape(-1), x[:3:-1].reshape(-1)], axis=1)
    require_isometry(v, "the blocks' transform")
    return v


# Partial traces of the joint amplitudes j[..., n, q1, (q2,) k] onto each
# leading output qubit, by the number of leading qubits.
_KEEP_ONE_QUBIT = {
    1: ("...ak,...dk->...ad",),
    2: ("...ack,...dck->...ad", "...ack,...adk->...cd"),
}


def output_states(v, kets: np.ndarray, copies: int) -> tuple[np.ndarray, ...]:
    """Reduced states of the leading output qubits for every input ket.

    ``v`` holds isometries, shape (..., rows, 2), from one qubit into
    ``copies`` output qubits (1 or 2) followed by an ancilla of any
    dimension; ``kets`` holds N input kets, shape (N, 2). Returns one
    (..., N, 2, 2) array per output qubit, in register order; raises on
    any other shape.
    """
    v = np.asarray(v, dtype=complex)
    if copies not in _KEEP_ONE_QUBIT or v.ndim < 2 or v.shape[-1] != 2 or v.shape[-2] % 2**copies:
        raise ValueError(
            f"expected isometries into 1 or 2 qubits x ancilla, got copies={copies}, shape {v.shape}"
        )
    joint = np.einsum("...ri,ni->...nr", v, kets)
    j = joint.reshape(joint.shape[:-1] + (2,) * copies + (-1,))
    jc = j.conj()
    return tuple(np.einsum(trace, j, jc) for trace in _KEEP_ONE_QUBIT[copies])


def _fold(targets, kets: np.ndarray) -> np.ndarray:
    """conj(t_n) x k_n for every output qubit's targets and the input kets,
    as a (copies, N, 4) array."""
    return (np.conj(targets)[..., :, None] * kets[:, None, :]).reshape(len(targets), -1, 4)


def _row_maps(copies: int, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat indices of V's entries (rows x input) that each output qubit
    q reads, stacked as (copies, rest, qubit q x input): V's registers (2,
    ..., 2, anc, 2) with qubit q moved next to the input axis. Also their
    inverse, (copies, 2 * rows): the position of each of V's entries in the
    flattened stack, per qubit."""
    order = np.arange(2 * rows).reshape((2,) * copies + (-1, 2))
    maps = np.stack([np.moveaxis(order, q, -2).reshape(-1, 4) for q in range(copies)])
    inverse = np.argsort(maps.reshape(copies, -1), axis=1)
    inverse += 2 * rows * np.arange(copies)[:, None]
    return maps, inverse


class FidelityKernel:
    """The optimizer's fidelities <t_n|rho_n|t_n> of the leading output
    qubits, without rho, and their adjoint, for fixed input kets (N, 2),
    one (N, 2) target array per leading output qubit (1 or 2), and
    isometries of ``rows`` rows.

    Each fidelity is a squared norm, ||(<t_n| x 1) V |k_n>||^2. Everything
    that depends only on the kets, targets and row count is built once: the
    output qubits' folded vectors conj(t_n) x k_n, stacked (copies, 4, N),
    their conjugate transposes, and the stacked index map that gathers each
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
        self.folds_h = self.folds.conj().swapaxes(-1, -2)
        self.size = 2 * rows

    def amplitudes(self, v: np.ndarray) -> np.ndarray:
        """(<t_n| x 1) V |k_n> for each output qubit, shape (..., copies,
        rest, N), for isometries ``v`` (..., rows, 2)."""
        flat = v.reshape(v.shape[:-2] + (self.size,))
        # Stacked, not merged: a single (batch x rest)-row product is large
        # enough for BLAS to thread, which stalls on a busy CPU.
        return flat.take(self.maps, axis=-1) @ self.folds

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
        grad = np.add.reduce(g.take(self.inverse, axis=-1), axis=-2, initial=0.0)
        return grad.reshape(lead + (-1, 2))


def anticlone_all(states: Iterable[QubitState], v: np.ndarray) -> list[CloneOutput]:
    """Send each qubit in ``states`` through the machine and reduce to the
    two clones, one ``CloneOutput`` per state, in order.

    ``v`` is an isometry from the input qubit into (clone 1, clone 2,
    ancilla); the ancilla may have dimension 1, 2 or 4. It is checked once,
    before any state, so an empty ``states`` still raises for a machine
    that is not an isometry. The fidelities are read from the two reduced
    states: Re<k|rho1|k> against the input ket k for clone 1, and
    Re<k'|rho2|k'> against its spin flip k' for clone 2.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValueError(f"expected an isometry with two columns, got {v.shape}")
    require_isometry(v, "the machine")

    outs = []
    for psi in states:
        check_density_matrix(psi.density())
        k, k_opp = psi.ket(), antiunitary_flip(psi).ket()
        rho1, rho2 = (check_density_matrix(rho[0]) for rho in output_states(v, k[None], 2))
        f1, f2 = (float(np.real(t.conj() @ rho @ t)) for t, rho in ((k, rho1), (k_opp, rho2)))
        outs.append(CloneOutput(rho1=rho1, rho2=rho2, f1=f1, f2=f2))
    return outs


def anticlone(psi: QubitState, v: np.ndarray) -> CloneOutput:
    """``anticlone_all`` for the one input ``psi``."""
    return anticlone_all([psi], v)[0]


def target_forms(n, eta: float) -> tuple[np.ndarray, np.ndarray]:
    """Ideal output pair ((1 + eta n.sigma)/2, (1 - eta n.sigma)/2) for a
    unit direction ``n``: a pair of 2x2 matrices for a (3,) array, or of
    (N, 2, 2) stacks for an (N, 3) array."""
    d = np.asarray(n, dtype=float)
    if not np.all(np.abs(np.linalg.norm(d, axis=-1) - 1.0) <= 1e-10):
        raise ValueError("direction must be a unit vector")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"shrinking factor must lie in [0, 1], got {eta}")
    ndots = sum(d[..., k, None, None] * s for k, s in enumerate(PAULI))
    eye = np.eye(2, dtype=complex)
    return 0.5 * (eye + eta * ndots), 0.5 * (eye - eta * ndots)


def constraint_residuals(blocks) -> ConstraintReport:
    """Evaluate every constraint of the anti-cloner system as a residual.

    Normalization of both coefficient rows, orthogonality of the two images,
    the modulus ties, the z cross-term cancellation, consistency of the four
    expressions for eta, the eight cross-term zero conditions, and the
    0 <-> 1 relabeling symmetry. Each reads the blocks x_k = c_k |anc_k>
    only through |c_k|^2 = ||x_k||^2 and c_i* c_j <anc_i|anc_j> =
    <x_i|x_j>. Nothing raises on the values; residuals just get reported,
    inf or NaN where a block overflows or holds a NaN.
    """
    x = _block_table(blocks)
    a, b, c, d, at, bt, ct, dt = range(len(COEFF_KEYS))
    with np.errstate(over="ignore", invalid="ignore"):
        g = x.conj() @ x.T  # g[i, j] = <x_i|x_j>
        sq = (x.real**2 + x.imag**2).sum(axis=1)
        mod = np.sqrt(sq)

        eta_moduli = sq[b] - sq[c]
        eta_moduli_alt = 2 * sq[b] + 2 * sq[a] - 1
        cross_aligned = g[a, bt] + g[b, at]
        cross_flipped = g[a, ct] + g[c, at]
        # The flipped copy's transverse terms enter with opposite sign, so this
        # expression equals -eta when the system is satisfied.
        eta_values = {
            "moduli": float(eta_moduli),
            "moduli_alt": float(eta_moduli_alt),
            "aligned_cross": float(np.real(cross_aligned)),
            "flipped_cross": float(-np.real(cross_flipped)),
        }
        etas = list(eta_values.values())
        eta_spread = max(abs(p - q) for p in etas for q in etas)

        residuals = {
            "norm_input0": abs(sq[a] + sq[b] + sq[c] + sq[d] - 1),
            "norm_input1": abs(sq[at] + sq[bt] + sq[ct] + sq[dt] - 1),
            "orthogonality": abs(g[a, dt] + g[c, bt] + g[b, ct] + g[d, at]),
            "mod_a_d": abs(mod[a] - mod[d]),
            "mod_at_dt": abs(mod[at] - mod[dt]),
            "z_cross": abs(g[dt, a] + g[ct, b] - g[bt, c] - g[at, d]),
            "eta_consistency": float(eta_spread),
            "im_aligned_cross": abs(np.imag(cross_aligned)),
            "im_flipped_cross": abs(np.imag(cross_flipped)),
            "cross_b_dt": abs(g[dt, b] + g[bt, d]),
            "cross_c_a": abs(g[a, c] + g[b, d]),
            "cross_at_ct": abs(g[ct, at] + g[dt, bt]),
            "cross_c_dt": abs(g[dt, c] + g[ct, d]),
            "cross_a_b": abs(g[a, b] + g[c, d]),
            "cross_bt_at": abs(g[bt, at] + g[dt, ct]),
            "sym_a": abs(mod[a] - mod[at]),
            "sym_b": abs(mod[b] - mod[bt]),
            "sym_c": abs(mod[c] - mod[ct]),
        }
    residuals = {k: float(v) for k, v in residuals.items()}
    return ConstraintReport(residuals=residuals, eta_values=eta_values)


def haar_directions(count: int, seed: int = 0) -> np.ndarray:
    """``count`` directions uniform on the sphere, as an (N, 3) array."""
    if count < 1:
        raise ValueError("need at least one direction")
    v = philox_stream(seed, 0).standard_normal((count, 3))
    return v / np.linalg.norm(v, axis=1)[:, None]


def measure_prepare_baseline(samples: int, seed: int = 0) -> BaselineReport:
    """Monte Carlo fidelity of "measure, then prepare an opposite pair".

    Each sample takes a uniform input direction n and a uniform measurement
    axis m, projects onto {|m>, |-m>}, and prepares (|m>, |-m>) or
    (|-m>, |m>) according to the outcome. Reports the average fidelity of
    the outputs against their targets (n for the copy, -n for the
    anti-copy), one average for both, and its standard error.

    The score depends on n and m only through t = n.m, and by Archimedes'
    hat-box theorem t is exactly uniform on [-1, 1] for independent uniform
    n and m. So each sample draws t = 2u - 1 directly, then the outcome by
    the Born rule, P(+m) = (1 + t)/2. Block b of ``BASELINE_BLOCK`` samples
    draws its t values and then its outcome uniforms from the PCG64DXSM
    stream ``pcg_stream(seed, b)``, so the result depends only on
    (samples, seed). The draws are most of a call's time, and PCG64DXSM
    draws a double in about half the time of the counter-based Philox that
    the other campaigns use; the baseline never needs Philox's random
    access, only independent streams keyed by block.

    There are no rounds: one thread per usable CPU, each pinned to its own
    CPU, claims the next unscored block until none is left, builds that
    block's stream itself and writes the block's two sums into the block's
    row of one array. The rows are added in block order, so the report does
    not depend on the thread count or on which thread scored which block,
    and memory grows by one 16-byte row per block of 32768 samples.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    blocks = -(-samples // BASELINE_BLOCK)
    cpus = _usable_cpus()[:blocks]
    # the calling thread allocates every draw buffer, so the scoring threads'
    # heap arenas hold only their block streams (peak RSS stays flat)
    draws = [np.empty(2 * min(BASELINE_BLOCK, samples)) for _ in cpus]
    sums = np.empty((blocks, 2))
    _score_baseline_in_parallel(seed, cpus, samples, sums, draws)
    # cumsum adds the rows one after another, in block order
    total, total_sq = np.cumsum(sums, axis=0)[-1].tolist()
    mean = total / samples
    var = max(0.0, total_sq / samples - mean * mean)
    return BaselineReport(avg_fidelity_anticlone=mean, stderr=float(np.sqrt(var / samples)))


def _usable_cpus() -> list[int]:
    """The CPUs the calling thread may run on: its affinity mask where the
    platform has one, else every CPU of the machine."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:
        return list(range(os.cpu_count() or 1))


def _score_baseline_in_parallel(seed: int, cpus: list[int], samples: int, sums: np.ndarray,
                                draws: list[np.ndarray]) -> None:
    """Score every block, one per row of ``sums``, on one thread per CPU in
    ``cpus``, each with its own draw buffer; the calling thread waits and
    raises the first error a thread met.

    Each thread pins itself to its CPU: a kernel may otherwise keep a new
    thread on its parent's CPU for the whole call. The threads claim blocks
    one at a time, so a thread on a busy CPU scores fewer of them, and no
    block is claimed once a thread has failed.
    """
    pending = iter(range(len(sums)))
    claim = threading.Lock()
    errors: list[BaseException] = []

    def next_block():
        with claim:
            return None if errors else next(pending, None)

    def score(cpu: int, buf: np.ndarray) -> None:
        try:
            os.sched_setaffinity(0, {cpu})
        except (AttributeError, OSError):
            pass  # no pinning here: the kernel places the thread
        try:
            _score_baseline_blocks(seed, iter(next_block, None), samples, sums, buf)
        except BaseException as exc:  # raised again on the calling thread
            with claim:
                errors.append(exc)

    threads = [threading.Thread(target=score, args=pair) for pair in zip(cpus, draws)]
    try:
        for thread in threads:
            thread.start()
    finally:
        for thread in threads:
            if thread.ident is not None:
                thread.join()
    if errors:
        raise errors[0]


def _score_baseline_blocks(seed: int, blocks, samples: int, sums: np.ndarray, draws: np.ndarray) -> None:
    """Score each block in ``blocks`` of ``measure_prepare_baseline`` into
    ``sums[block]`` as (sum of fidelities, sum of their squares).

    ``draws`` takes a block's t-uniforms u and then its outcome uniforms r,
    drawn by one call from the block's stream ``pcg_stream(seed, block)``.
    The outcome s = +-1 prepares the copy along s*m, scored against n, and
    the anti-copy along -s*m, scored against -n: both fidelities are
    (1 + s t)/2. As u = k 2^-53, the values t = 2u - 1, 1 + t and 1 - t are
    exact, so P(+m) = (1 + t)/2 is u itself and the fidelity is u when
    r < u and 1 - u otherwise. With g = 1.0 when r >= u and 0.0 otherwise,
    that is |g - u|, bit for bit, and its square is (g - u)^2.
    """
    for block in blocks:
        size = min(BASELINE_BLOCK, samples - block * BASELINE_BLOCK)
        buf = draws[: 2 * size]
        pcg_stream(seed, block).random(2 * size, out=buf)
        u, r = buf[:size], buf[size:]
        np.greater_equal(r, u, out=r)
        np.subtract(r, u, out=r)
        np.abs(r, out=u)
        np.multiply(r, r, out=r)
        sums[block] = np.sum(u), np.sum(r)


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
