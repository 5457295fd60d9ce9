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

from dataclasses import dataclass

import numpy as np

from .linalg import basis_ket, tensor, unitary_from_correspondence
from .qubit import QubitState, antiunitary_flip
from .rng import philox_stream

__all__ = [
    "StateSet",
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
SHOT_BLOCK = 1 << 16  # shots per Philox stream in ``run_prob_anticlone``


@dataclass(frozen=True)
class StateSet:
    """Known candidate input states."""

    states: list[QubitState]

    def __post_init__(self):
        if not self.states:
            raise ValueError("state set must be non-empty")

    def __len__(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class CopySpec:
    """Output layout: L aligned copies and M anti-aligned copies."""

    L: int
    M: int

    def __post_init__(self):
        if self.L < 0 or self.M < 0 or self.L + self.M < 1:
            raise ValueError("need non-negative copy counts with L + M >= 1")


@dataclass(frozen=True)
class FeasibilityResult:
    """Maximum exact-cloning probability with its eigenvalue certificate.

    ``rank`` is the rank of ``gram_G`` at ``RANK_TOL``; the set is linearly
    dependent when it is below the number of states.
    """

    f_max: float
    min_eigenvalue_at_f: float
    gram_G: np.ndarray
    gram_H: np.ndarray
    rank: int


@dataclass(frozen=True)
class ProbCloner:
    """Explicit two-state probabilistic anti-cloner.

    ``u`` acts on (copy 1, copy 2, probe); measuring the probe in
    {success, fail} reveals whether the copies are exact.
    """

    u: np.ndarray
    theta: float
    f: float
    probe_success_ket: np.ndarray
    probe_fail_ket: np.ndarray
    garbage: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=complex)
        object.__setattr__(self, "u", u)
        if u.shape != (8, 8):
            raise ValueError(f"expected an 8x8 unitary, got {u.shape}")
        if np.max(np.abs(u.conj().T @ u - np.eye(8))) > 1e-10:
            raise ValueError("matrix is not unitary within tolerance")
        expected = two_state_efficiency(np.cos(self.theta))
        if abs(self.f - expected) > 1e-12:
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
    seed: int

    def __post_init__(self):
        if self.successes > max(self.shots, 0):
            raise ValueError("successes cannot exceed shots")


def two_state_efficiency(overlap: float, L: int = 1, M: int = 1) -> float:
    """Closed-form maximum success probability for two states.

    ``overlap`` is |<m1|m2>|. Equals (1 - c) / (1 - c^(L+M)), evaluated as
    1 / sum_{j<L+M} c^j, which does not cancel as c -> 1; the many-copy
    limit is the unambiguous-discrimination probability 1 - c.
    """
    c = float(overlap)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {c}")
    k = L + M
    if k < 1:
        raise ValueError("need at least one copy")
    return 1.0 / sum(c**j for j in range(k))


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


def _flip_ket(k: np.ndarray) -> np.ndarray:
    return np.array([-np.conj(k[1]), np.conj(k[0])])


def max_feasible_f(state_set: StateSet, mu: CopySpec = CopySpec(1, 1)) -> FeasibilityResult:
    """Largest f in [0, 1] with G - f H positive semidefinite, solved directly.

    G collects the input overlaps; H the overlaps of the target outputs,
    i.e. elementwise G^L times the anti-aligned overlaps^M. With G = Q Λ Q^†
    split at ``RANK_TOL`` into range and null space: if H does not vanish on
    null(G), every f > 0 is infeasible and f_max = 0 exactly (no machine can
    clone more distinct states than the dimension supports). Otherwise
    f_max = min(1, 1 / λ_max(W^† H W)) with W = Q_r Λ_r^(-1/2) on range(G).
    """
    kets = _aligned_kets(state_set.states)
    flipped = [_flip_ket(k) for k in kets]
    n = len(kets)
    g = np.array([[np.vdot(kets[i], kets[j]) for j in range(n)] for i in range(n)])
    gf = np.array([[np.vdot(flipped[i], flipped[j]) for j in range(n)] for i in range(n)])
    h = (g**mu.L) * (gf**mu.M)

    lam, q = np.linalg.eigh(g)
    in_range = lam > RANK_TOL
    null = q[:, ~in_range]
    if np.max(np.abs(null.conj().T @ h @ null), initial=0.0) > RANK_TOL:
        f_max = 0.0
    else:
        w = q[:, in_range] / np.sqrt(lam[in_range])
        f_max = min(1.0, 1.0 / float(np.linalg.eigvalsh(w.conj().T @ h @ w)[-1]))
    min_eig = float(np.linalg.eigvalsh(g - f_max * h)[0])
    return FeasibilityResult(
        f_max=f_max, min_eigenvalue_at_f=min_eig, gram_G=g, gram_H=h, rank=int(in_range.sum())
    )


def build_two_state_anticloner(theta: float) -> ProbCloner:
    """Optimal anti-cloner for {|0>, cos(theta)|0> + sin(theta)|1>}.

    The unitary sends |000> and |100> to the two explicit image states whose
    probe-success components are exactly the anti-cloned pairs; the other six
    basis images come from deterministic orthonormal completion. The factors
    (1 - cos)/sin are evaluated as tan(theta/2) so nothing blows up near the
    ends of the allowed range.
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

    u = unitary_from_correspondence([basis_ket(8, 0b000), basis_ket(8, 0b100)], [n1, n2])
    return ProbCloner(
        u=u,
        theta=theta,
        f=two_state_efficiency(ct),
        probe_success_ket=basis_ket(2, 0),
        probe_fail_ket=basis_ket(2, 1),
        garbage=basis_ket(4, 0),
    )


def run_prob_anticlone(pc: ProbCloner, which: int, shots: int, seed: int = 0) -> ShotStats:
    """Feed one of the two known inputs through the machine and measure.

    Prepares |m>|0> |success-probe>, applies the unitary, and projects the
    probe. The exact success probability and the post-selected fidelity
    against (|m>, |-m>) come from the amplitudes; ``shots`` > 0 additionally
    samples the success count (``shots == 0`` skips sampling entirely), block
    b of ``SHOT_BLOCK`` shots from Philox stream (seed, b).
    """
    m = pc.input_state(which)
    if shots < 0:
        raise ValueError("shots must be >= 0")
    start = tensor(m.ket(), basis_ket(2, 0), pc.probe_success_ket)
    out = pc.u @ start
    # probe is the last register: amplitudes reshape to (copies, probe)
    amps = out.reshape(4, 2)
    success_branch = amps @ pc.probe_success_ket.conj()
    p_success = float(np.vdot(success_branch, success_branch).real)

    target = tensor(m.ket(), antiunitary_flip(m).ket())
    if p_success > 1e-15:
        post = success_branch / np.sqrt(p_success)
        fidelity = float(abs(np.vdot(target, post)) ** 2)
    else:
        fidelity = 0.0

    successes = 0
    for block, start in enumerate(range(0, shots, SHOT_BLOCK)):
        rng = philox_stream(seed, block)
        successes += int(rng.binomial(min(SHOT_BLOCK, shots - start), p_success))
    return ShotStats(
        shots=shots,
        successes=successes,
        success_probability=p_success,
        post_selected_fidelity=fidelity,
        seed=seed,
    )
