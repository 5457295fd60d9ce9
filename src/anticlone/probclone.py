"""Probabilistic exact anti-cloning.

For a known finite set of linearly independent states, an ordinary unitary
plus a probe measurement can anti-clone *exactly*, some of the time. The
achievable success probability f is governed by positive semidefiniteness of
G - f H, where G is the Gram matrix of the inputs and H the Gram matrix of
the target output products. ``max_feasible_f`` solves for the supremum
directly as a generalized eigenvalue of the pair (H, G) (Duan and Guo,
PRL 80, 4999, 1998); for two states the answer has the closed form
(1 - c) / (1 - c^(L+M)).

``build_two_state_anticloner`` realizes the optimal two-state machine as an
explicit 8x8 unitary on (copy 1, copy 2, probe).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import basis_ket, require_isometry
from .qubit import QubitState, antiunitary_flip
from .rng import philox_stream

__all__ = [
    "CopySpec",
    "FeasibilityResult",
    "ProbCloner",
    "ShotStats",
    "two_state_efficiency",
    "max_feasible_f",
    "build_two_state_anticloner",
    "run_prob_anticlone",
]

RANK_TOL = 1e-10  # Gram eigenvalues at or below this count as zero
# Largest |H - D G D^†| entry for which the targets count as a phase-twisted
# unitary image of the inputs: far above the rounding of G and H, and 70
# times below the smallest residual, 7e-11, over 1945 random near-degenerate
# sets of three distinct states at L + M >= 2.
PHASE_EQUIVALENCE_TOL = 1e-12
COUNT_MAX = 2**63 - 1  # largest copy or shot count: numpy draws int64 counts
PROBE_SUCCESS = basis_ket(2, 0)  # probe state that flags exact copies


@dataclass(frozen=True)
class CopySpec:
    """Output layout: L aligned copies and M anti-aligned copies, each at
    most ``COUNT_MAX``."""

    L: int
    M: int

    def __post_init__(self):
        if self.L < 0 or self.M < 0 or self.L + self.M < 1:
            raise ValueError("need non-negative copy counts with L + M >= 1")
        if max(self.L, self.M) > COUNT_MAX:
            raise ValueError(f"copy counts must be at most {COUNT_MAX}")


@dataclass(frozen=True)
class FeasibilityResult:
    """Maximum exact-cloning probability with its eigenvalue certificate.

    ``rank`` is the rank of ``gram_G`` at ``RANK_TOL``; the set is linearly
    dependent when it is below the number of states. ``distinct`` counts the
    states that repeat no earlier state up to a phase. ``phase_equivalent``
    is whether H = D G D^† for a diagonal phase matrix D: the map from each
    input to its target, up to a phase, then keeps every overlap, a unitary
    performs it, and exact anti-cloning succeeds with certainty.
    """

    f_max: float
    min_eigenvalue_at_f: float
    gram_G: np.ndarray
    gram_H: np.ndarray
    rank: int
    distinct: int
    phase_equivalent: bool


@dataclass(frozen=True)
class ProbCloner:
    """Explicit two-state probabilistic anti-cloner.

    ``u`` acts on (copy 1, copy 2, probe); projecting the probe onto
    ``PROBE_SUCCESS`` leaves exact copies.
    """

    u: np.ndarray
    theta: float
    f: float

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        object.__setattr__(self, "u", u)
        if u.shape != (8, 8):
            raise ValueError(f"expected an 8x8 unitary, got {u.shape}")
        require_isometry(u, "u")
        if not 0.0 < self.theta <= np.pi / 2:
            raise ValueError(f"theta must lie in (0, pi/2], got {self.theta}")
        expected = two_state_efficiency(np.cos(self.theta))
        if not abs(self.f - expected) <= 1e-12:
            raise ValueError(f"f={self.f!r} does not match the efficiency bound {expected!r}")

    def input_state(self, which: int) -> QubitState:
        """The two cloneable inputs: 1 -> |0>, 2 -> cos(theta)|0> + sin(theta)|1>."""
        if which == 1:
            return QubitState(1.0, 0.0)
        if which == 2:
            return QubitState.normalized(np.cos(self.theta), np.sin(self.theta))
        raise ValueError(f"input index must be 1 or 2, got {which!r}")


@dataclass(frozen=True)
class ShotStats:
    """Outcome counts of a probe-measurement experiment.

    ``shots == 0`` marks exact-amplitude mode: no sampling, only the exact
    ``success_probability`` and the post-selected fidelity.
    """

    shots: int
    successes: int
    success_probability: float
    post_selected_fidelity: float

    def __post_init__(self):
        if self.successes > max(self.shots, 0):
            raise ValueError("successes cannot exceed shots")


def two_state_efficiency(overlap: float, L: int = 1, M: int = 1) -> float:
    """Closed-form maximum success probability for two states.

    ``overlap`` is |<m1|m2>|. Equals (1 - c) / (1 - c^k) with k = L + M,
    evaluated as expm1(log c) / expm1(k log c), which does not cancel as
    c -> 1 and takes the same time at every k; c = 0 gives 1 and c = 1 the
    limit 1 / k. The many-copy limit is the unambiguous-discrimination
    probability 1 - c. Raises ``ValueError`` for an overlap outside [0, 1]
    and for copy counts that ``CopySpec`` rejects.
    """
    c = float(overlap)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {c}")
    mu = CopySpec(L, M)
    if c == 0.0:
        return 1.0
    if c == 1.0:
        return 1.0 / (mu.L + mu.M)
    log_c = math.log(c)
    return math.expm1(log_c) / math.expm1((mu.L + mu.M) * log_c)


def _aligned_kets(states: list[QubitState]) -> list[np.ndarray]:
    """Phase-redefine so every overlap against state 1 is real non-negative."""
    kets = [s.ket() for s in states]
    out = [kets[0]]
    for k in kets[1:]:
        ov = np.vdot(kets[0], k)
        if abs(ov) > 1e-14:
            k = k * (np.conj(ov) / abs(ov))
        out.append(k)
    return out


def _phase_equivalent(g: np.ndarray, h: np.ndarray) -> bool:
    """Whether h = D g D^† for a diagonal phase matrix D, within
    ``PHASE_EQUIVALENCE_TOL``.

    h_ij = d_i g_ij conj(d_j) fixes d_j from d_i wherever g_ij is non-zero,
    so D is built along a maximum-overlap spanning tree from d_0 = 1 (states
    orthogonal to all others keep d = 1) and then checked on every entry.
    """
    n = len(g)
    d = np.ones(n, dtype=complex)
    linked = np.zeros(n, dtype=bool)
    linked[0] = True
    for _ in range(n - 1):
        reach = np.where(linked[:, None] & ~linked[None, :], np.abs(g), -1.0)
        i, j = np.unravel_index(np.argmax(reach), reach.shape)
        twist = h[i, j] * np.conj(g[i, j])  # d_i conj(d_j) |g_ij|^2
        if twist != 0:
            d[j] = d[i] * cmath.rect(1.0, -cmath.phase(twist))  # no division by a subnormal modulus
        linked[j] = True
    return bool(np.max(np.abs(h - d[:, None] * g * d.conj())) <= PHASE_EQUIVALENCE_TOL)


def max_feasible_f(states: list[QubitState], mu: CopySpec = CopySpec(1, 1)) -> FeasibilityResult:
    """Largest f in [0, 1] with G - f H positive semidefinite, solved directly,
    for a non-empty list of known candidate input states.

    G collects the input overlaps; H the overlaps of the target outputs,
    i.e. elementwise G^L times the anti-aligned overlaps^M. The spin flip is
    anti-unitary, so <flip(i)|flip(j)> = conj(<i|j>) and H = G^L conj(G)^M.
    With G = Q Λ Q^† split at ``RANK_TOL`` into range and null space: if H
    does not vanish on null(G), every f > 0 is infeasible and f_max = 0
    exactly (no machine can clone more distinct states than the dimension
    supports). Otherwise f_max = min(1, 1 / λ_max(W^† H W)) with
    W = Q_r Λ_r^(-1/2) on range(G).

    State j repeats an earlier state i up to a phase when |<flip(i)|j>|,
    which is sqrt(1 - |<i|j>|^2) without the cancellation, is at most
    ``RANK_TOL``. It then takes the first occurrence's row and column of G,
    so repeats keep the f of the distinct states at every L and M. Qubit
    states span at most two dimensions, so G's rank must be
    min(distinct, 2). Raises ``ValueError`` when it is not: the rank cut
    then merged two distinct states too close for it to tell apart.
    """
    if not states:
        raise ValueError("state set must be non-empty")
    kets = _aligned_kets(states)
    n = len(kets)
    # <flip(i)|j> = a_i b_j - b_i a_j for kets (a, b)
    a, b = np.array(kets).T
    upper = np.triu(np.abs(np.outer(a, b) - np.outer(b, a)) <= RANK_TOL, 1)
    repeats = upper.any(axis=0)
    distinct = n - int(repeats.sum())
    first = np.where(repeats, upper.argmax(axis=0), np.arange(n))
    for j in range(n):
        first[j] = first[first[j]]

    g = np.array([[np.vdot(kets[i], kets[j]) for j in range(n)] for i in range(n)])
    # The inputs are unit rays, and a repeat is the ray of its first
    # occurrence: a diagonal or repeat entry rounded off 1 would grow as its
    # L-th power in H
    np.fill_diagonal(g, 1.0)
    g = g[np.ix_(first, first)]
    h = g**mu.L * g.conj() ** mu.M

    lam, q = np.linalg.eigh(g)
    in_range = lam > RANK_TOL
    rank = int(in_range.sum())
    if rank != min(distinct, 2):
        raise ValueError(
            f"Gram rank {rank} at RANK_TOL = {RANK_TOL} differs from min(distinct, 2) = "
            f"{min(distinct, 2)}: two states are too close to tell apart from a repeat"
        )
    null = q[:, ~in_range]
    if np.max(np.abs(null.conj().T @ h @ null), initial=0.0) > RANK_TOL:
        f_max = 0.0
    else:
        w = q[:, in_range] / np.sqrt(lam[in_range])
        f_max = min(1.0, 1.0 / float(np.linalg.eigvalsh(w.conj().T @ h @ w)[-1]))
    min_eig = float(np.linalg.eigvalsh(g - f_max * h)[0])
    return FeasibilityResult(
        f_max=f_max,
        min_eigenvalue_at_f=min_eig,
        gram_G=g,
        gram_H=h,
        rank=rank,
        distinct=distinct,
        phase_equivalent=_phase_equivalent(g, h),
    )


def build_two_state_anticloner(theta: float) -> ProbCloner:
    """Optimal anti-cloner for {|0>, cos(theta)|0> + sin(theta)|1>}.

    The unitary sends |000> and |100> to the two explicit image states whose
    probe-success components are exactly the anti-cloned pairs; columns 0
    and 4 hold those images bit for bit as computed. The images are
    orthonormal, so the other six columns are Q's columns 2 to 7 from one QR
    factorization of [n1, n2, I], an orthonormal basis of their complement.
    Every input |m>|0>|probe> lies in span{|000>, |100>}, so the completion
    never reaches an output amplitude; ``ProbCloner`` checks that the whole
    matrix is unitary. The factors (1 - cos)/sin are evaluated as
    tan(theta/2) so nothing blows up near the ends of the allowed range.
    """
    theta = float(theta)
    if not 0.0 < theta <= np.pi / 2:
        raise ValueError(f"theta must lie in (0, pi/2], got {theta}")
    ct, st = np.cos(theta), np.sin(theta)
    if ct < 1e-15:
        ct = 0.0  # exact zero at theta = pi/2, where cos() leaves ~6e-17 dust
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

    rest = np.linalg.qr(np.column_stack([n1, n2, np.eye(8)]))[0][:, 2:]
    u = np.column_stack([n1, rest[:, :3], n2, rest[:, 3:]])  # |000> -> n1, |100> -> n2
    return ProbCloner(u=u, theta=theta, f=two_state_efficiency(ct))


def run_prob_anticlone(pc: ProbCloner, which: int, shots: int, seed: int = 0) -> ShotStats:
    """Feed one of the two known inputs through the machine and measure.

    Prepares |m>|0> |success-probe>, applies the unitary, and projects the
    probe. The exact success probability and the post-selected fidelity
    against (|m>, |-m>) come from the amplitudes; ``shots`` > 0 additionally
    samples the success count as one binomial draw from Philox stream
    (seed, which) (``shots == 0`` skips sampling entirely). ``shots`` may be
    at most ``COUNT_MAX``.
    """
    m = pc.input_state(which)
    if not 0 <= shots <= COUNT_MAX:
        raise ValueError(f"shots must lie in [0, {COUNT_MAX}], got {shots}")
    start = np.outer(np.outer(m.ket(), basis_ket(2, 0)), PROBE_SUCCESS).ravel()
    out = pc.u @ start
    # probe is the last register: amplitudes reshape to (copies, probe)
    amps = out.reshape(4, 2)
    success_branch = amps @ PROBE_SUCCESS.conj()
    p_success = float(np.vdot(success_branch, success_branch).real)

    target = np.outer(m.ket(), antiunitary_flip(m).ket()).ravel()
    if p_success > 1e-15:
        post = success_branch / np.sqrt(p_success)
        fidelity = float(abs(np.vdot(target, post)) ** 2)
    else:
        fidelity = 0.0

    successes = int(philox_stream(seed, which).binomial(shots, p_success)) if shots else 0
    return ShotStats(
        shots=shots,
        successes=successes,
        success_probability=p_success,
        post_selected_fidelity=fidelity,
    )
