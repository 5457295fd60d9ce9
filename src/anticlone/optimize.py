"""Numerical re-derivation of the optimal fidelities.

Searches over *feasible* machines only: every candidate parameter vector is
projected onto an isometry before evaluation, so every point visited is a
physical machine. Its worst case is taken over a fixed direction net, and the
net minimum is an upper bound on that machine's true worst case over the
whole sphere, not a lower bound. Two campaigns:

* ``optimize_universal``: isometries qubit -> (2 x 2 x ancilla); objective is
  the worst-case of both output fidelities over a fixed direction net.
  Expected optimum: eta = 1/3, i.e. fidelity 2/3.
* ``optimize_spinflip``: isometries qubit -> (2 x ancilla) judged on how well
  the traced-out output matches the *opposite* direction. Expected optimum:
  fidelity 2/3 again, which is what makes anti-cloning exactly as good as
  measure-and-reprepare.

The ascent is deliberately simple: normalized gradient steps with geometric
step decay. The gradient is plain calculus of the generic fidelity
functional: softmax weights of the softmin, the adjoint of
``machine.output_fidelities`` and the pullback of the Gram-Schmidt
projection. It presumes nothing of the anti-cloner algebra being
re-derived, and the tests check it against a central-difference oracle.
Every candidate's fidelities come from one ``machine.FidelityKernel``,
prepared once per ascent, which takes each as the squared norm of the
output projected onto the target ket and forms no reduced state; the
gradient reuses the candidate's amplitudes. The ascent evaluates one point
at a time, so the step is written for one point: the projection works on
the two flat complex columns and hands the pullback a record of the norms
and overlap it took, and the softmin reduces one value vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import basis_ket
from .machine import FidelityKernel, output_fidelities
from .qubit import direction_kets
from .rng import philox_stream

__all__ = [
    "OptimizerConfig",
    "OptimizerResult",
    "direction_set",
    "parameterize_isometry",
    "objective_universal",
    "objective_spinflip",
    "optimize_universal",
    "optimize_spinflip",
]

STEP_SIZE = 0.25  # largest normalized step; an accepted step doubles back up to it
STEP_FLOOR = 1e-9
DIRECTION_SAMPLES = 62  # Fibonacci-lattice points of the direction net
SCHEDULE = (3e-2, 1e-2, 3e-3, 1e-3)  # softmin temperature of each annealing stage
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multi-restart gradient ascent."""

    restarts: int = 20
    max_iters: int = 600
    seed: int = 0
    ancilla_dim: int = 4

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("counts must be >= 1")
        if self.ancilla_dim not in (1, 2, 4):
            raise ValueError(f"ancilla_dim must be 1, 2 or 4, got {self.ancilla_dim}")


@dataclass(frozen=True)
class OptimizerResult:
    """Best shrinking factor found, with per-restart and per-iteration detail.

    ``max_objective_seen`` is the largest hard-min objective over every
    point the run evaluated: stage start points, the first of which is the
    restart's start point, and step candidates (the gradient is analytic,
    so there are no probe points). It staying at or below the analytic bound
    is itself a verification result.
    """

    best_eta: float
    best_params: np.ndarray
    per_restart_etas: list[float]
    objective_trace: list[float]
    max_objective_seen: float

    @property
    def best_fidelity(self) -> float:
        return 0.5 * (1.0 + self.best_eta)


def direction_set() -> np.ndarray:
    """Fixed direction net: spherical Fibonacci lattice of
    ``DIRECTION_SAMPLES`` points plus the six poles."""
    i = np.arange(DIRECTION_SAMPLES)
    z = 1.0 - (2.0 * i + 1.0) / DIRECTION_SAMPLES
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    pts = np.column_stack([r * np.cos(i * golden), r * np.sin(i * golden), z])
    poles = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float
    )
    return np.vstack([pts, poles])


def _complex_columns(x: np.ndarray, out_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The two complex columns (out_dim,) of a flat real vector."""
    cols = x.reshape(2, out_dim, 2)
    c = cols[..., 0] + 1j * cols[..., 1]
    return c[0], c[1]


def _norm(c: np.ndarray) -> float:
    """Euclidean norm; the arithmetic of ``np.linalg.norm(c)`` without its
    dispatch (a square root is correctly rounded wherever it is taken)."""
    return math.sqrt(np.add.reduce((c.conj() * c).real))


def _inner(a: np.ndarray, z: np.ndarray) -> complex:
    """<a, z>."""
    return np.add.reduce(a.conj() * z)


class _GramSchmidt(NamedTuple):
    """What the projection of one point computed that its pullback needs:
    the raw column 1, the raw norm of column 0, <e0, c1> and the raw norm of
    c1 - <e0, c1> e0, both norms taken before any fallback."""

    c1: np.ndarray
    n0: float
    overlap: complex
    n1: float


def _isometry_batch(x: np.ndarray, out_dim: int) -> tuple[np.ndarray, _GramSchmidt]:
    """Project one flat real vector onto an isometry, shape (out_dim, 2),
    and return it with the Gram-Schmidt record that ``_isometry_pullback``
    reads.

    Column 0 is normalized; column 1 is projected off column 0 and
    normalized. Degenerate columns fall back to deterministic
    computational-basis vectors, so the map is total. The name predates
    the one-point form; ``perfbench`` traces the projection under it, so it
    stays until the benchmark's own change (ROADMAP item 1).
    """
    if x.shape != (4 * out_dim,):
        raise ValueError(f"expected a flat real parameter vector of length {4 * out_dim}, got shape {x.shape}")
    c0, c1 = _complex_columns(x, out_dim)
    v = np.empty((out_dim, 2), dtype=complex)

    n0 = _norm(c0)
    if n0 < DEGENERACY_TOL:
        v[:, 0] = e0 = basis_ket(out_dim, 0)
    else:
        v[:, 0] = e0 = c0 / n0

    overlap = _inner(e0, c1)
    r1 = c1 - overlap * e0
    n1 = _norm(r1)
    if n1 < DEGENERACY_TOL:
        # first basis vector with substantial residual off column 0
        for k in range(out_dim):
            cand = basis_ket(out_dim, k)
            cand = cand - np.vdot(e0, cand) * e0
            if np.linalg.norm(cand) > 0.5:  # always reachable: e0 overlaps most basis kets weakly
                r1 = cand
                break
        v[:, 1] = r1 / _norm(r1)
    else:
        v[:, 1] = r1 / n1
    return v, _GramSchmidt(c1, n0, overlap, n1)


def _isometry_pullback(v: np.ndarray, record: _GramSchmidt, g: np.ndarray) -> np.ndarray:
    """Gradient in the flat parameters of Re sum conj(g) V, where V, ``record``
    = ``_isometry_batch(x)`` and ``g``, shape (out_dim, 2), is the gradient
    with respect to V. Returns shape (4 * out_dim,).

    Reverses the Gram-Schmidt steps from the projection's record, with no
    recomputation: for e = u / |u| the gradient on u is (g - Re<e, g> e) /
    |u|, and since column 1 is projected off column 0, column 0 also
    collects the gradient of that projection. A column that fell back to a
    basis vector does not move with its parameters, so it gets a zero
    gradient and passes nothing on.
    """
    c1, n0, overlap, n1 = record
    e0, e1 = v[:, 0], v[:, 1]
    g0, g1 = g[:, 0], g[:, 1]
    grad = np.empty((2, len(v)), dtype=complex)
    if n1 < DEGENERACY_TOL:
        h1 = np.zeros(len(v), dtype=complex)
    else:
        h1 = (g1 - _inner(e1, g1).real * e1) / n1
    grad[1] = h1 - _inner(e0, h1) * e0
    if n0 < DEGENERACY_TOL:
        grad[0] = 0.0
    else:
        g0 = g0 - _inner(h1, e0) * c1 - overlap.conjugate() * h1
        grad[0] = (g0 - _inner(e0, g0).real * e0) / n0
    # complex entries as (re, im) pairs: the flat parameter layout
    return grad.view(float).reshape(-1)


def parameterize_isometry(x: np.ndarray, out_dim: int) -> np.ndarray:
    """Flat reals -> isometry: the ascent's projection, without its record."""
    return _isometry_batch(np.asarray(x, dtype=float), out_dim)[0]


def _universal_values(vb: np.ndarray, kernel: FidelityKernel):
    """Per-(candidate, direction, output) fidelities, shape (..., 2N), and
    the amplitudes they are the squared norms of: ``kernel`` scores clone 1
    against n and clone 2 against -n."""
    amps = kernel.amplitudes(vb)
    return kernel.fidelities(amps), amps


def _spinflip_values(vb: np.ndarray, kernel: FidelityKernel):
    """Per-(candidate, direction) flipped fidelity for (2 x anc) isometries,
    and its amplitudes: ``kernel`` scores the one output against -n."""
    amps = kernel.amplitudes(vb)
    return kernel.fidelities(amps), amps


def objective_universal(v: np.ndarray, directions: np.ndarray) -> float:
    """Worst-direction anti-cloning fidelity of one isometry.

    Equals min over the net of min(f1, f2), the fidelities of the two
    outputs against n and -n, from ``machine.output_fidelities``.
    """
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    k_in = direction_kets(d)
    return float(output_fidelities(v, k_in, (k_in, direction_kets(-d))).min())


def objective_spinflip(v: np.ndarray, directions: np.ndarray) -> float:
    """Worst-direction flip fidelity <-n|rho_out|-n> of a (2 x anc) isometry."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    return float(output_fidelities(v, direction_kets(d), (direction_kets(-d),)).min())


def _softmin(values: np.ndarray, temperature: float) -> float:
    """The softmin -T log sum exp(-f/T) of one point's ``values``."""
    scaled = -values / temperature
    peak = scaled.max()
    return -temperature * (np.log(np.exp(scaled - peak).sum()) + peak)


def _softmin_weights(values: np.ndarray, search: float, temperature: float) -> np.ndarray:
    """Gradient of the softmin s = -T log sum exp(-f/T) with respect to
    ``values``: the softmax weight exp((s - f) / T), at most 1 since
    s <= min f."""
    return np.exp((search - values) / temperature)


class _Objective:
    """A campaign's softmin search objective on flat parameter vectors over a
    fixed direction net. ``copies`` is 2 for the anti-cloner and 1 for the
    spin flip; it fixes the isometry's output dimension, the targets of the
    fidelity kernel and the values layer. The kernel is prepared once, here,
    for the whole ascent."""

    def __init__(self, copies: int, ancilla_dim: int, directions: np.ndarray):
        self.copies = copies
        self.out_dim = 2**copies * ancilla_dim
        k_in, k_opp = direction_kets(directions), direction_kets(-directions)
        self.kernel = FidelityKernel(k_in, (k_in, k_opp)[2 - copies:], self.out_dim)

    def evaluate(self, x: np.ndarray, temperature: float):
        """(softmin search value at ``temperature``, hard worst-case value,
        gradient thunk) at one point; the thunk returns the search value's
        gradient in ``x`` from the amplitudes and the Gram-Schmidt record
        computed here."""
        v, record = _isometry_batch(x, self.out_dim)
        # looked up at call time, so a patched module attribute is the one
        # called; the values layer takes a leading candidate axis of one
        values_fn = _universal_values if self.copies == 2 else _spinflip_values
        values, amps = values_fn(v[None], self.kernel)
        values, amps = values[0], amps[0]
        search = _softmin(values, temperature)

        def gradient() -> np.ndarray:
            weights = _softmin_weights(values, search, temperature)
            return _isometry_pullback(v, record, self.kernel.adjoint(amps, weights))

        return float(search), float(values.min()), gradient


def _ascend(cfg: OptimizerConfig, copies: int, init: np.ndarray | None):
    """Multi-restart projected gradient ascent. Returns per-restart results.

    Searches on a softmin surrogate annealed over the four ``SCHEDULE``
    stages: the hard worst-case objective is kinked wherever directions tie,
    which is exactly what happens near a universal machine, and plain ascent
    stalls there. Headline values are always the hard minimum. The gradient
    is taken only where ``x`` moved: after an accepted step or at the start
    of a stage; a rejected step reuses it.
    """
    objective = _Objective(copies, cfg.ancilla_dim, direction_set())
    evaluate = objective.evaluate
    nparams = 4 * objective.out_dim

    # the coldest stage takes the remainder, so the stages add up to max_iters
    stage_iters = [cfg.max_iters // len(SCHEDULE)] * len(SCHEDULE)
    stage_iters[-1] += cfg.max_iters % len(SCHEDULE)

    per_restart = []
    best = (-np.inf, None, None)  # objective, params, trace
    max_seen = -np.inf

    for r in range(cfg.restarts):
        if init is not None and r == 0:
            x = np.asarray(init, dtype=float).copy()
            if x.shape != (nparams,) or not np.isfinite(x).all():
                raise ValueError(f"init must hold {nparams} finite numbers")
        else:
            x = philox_stream(cfg.seed, r).standard_normal(nparams)

        trace = []
        for stage, (temperature, iters) in enumerate(zip(SCHEDULE, stage_iters)):
            step = STEP_SIZE
            s_cur, f_cur, gradient_at_x = evaluate(x, temperature)
            max_seen = max(max_seen, f_cur)
            if stage == 0:
                # best point *visited*: softmin acceptance may trade a little
                # hard minimum for average gains, so the endpoint is not
                # always the peak
                x_peak, f_peak = x.copy(), f_cur
            grad = None
            for _ in range(iters):
                if step < STEP_FLOOR:
                    break
                if grad is None:
                    grad = gradient_at_x()
                    gnorm = float(np.linalg.norm(grad))
                if gnorm < 1e-14:
                    step *= 0.5
                    trace.append(f_cur)
                    continue
                cand = x + step * grad / gnorm
                s_new, f_new, gradient_at_cand = evaluate(cand, temperature)
                max_seen = max(max_seen, f_new)
                if s_new > s_cur:
                    x, s_cur, f_cur, gradient_at_x = cand, s_new, f_new, gradient_at_cand
                    grad = None
                    step = min(step * 2.0, STEP_SIZE)
                    if f_new > f_peak:
                        x_peak, f_peak = cand.copy(), f_new
                else:
                    step *= 0.5
                trace.append(f_cur)

        per_restart.append((f_peak, x_peak, trace))
        if f_peak > best[0]:
            best = (f_peak, x_peak, trace)

    return per_restart, best, max_seen


def _result_from(per_restart, best, max_seen) -> OptimizerResult:
    etas = [2.0 * f - 1.0 for f, _, _ in per_restart]
    return OptimizerResult(
        best_eta=2.0 * best[0] - 1.0,
        best_params=best[1],
        per_restart_etas=etas,
        objective_trace=list(best[2]),
        max_objective_seen=float(max_seen),
    )


def optimize_universal(cfg: OptimizerConfig, init: np.ndarray | None = None) -> OptimizerResult:
    """Search anti-cloner isometries for the best worst-case fidelity.

    ``init`` seeds restart 0 with an explicit parameter vector (the remaining
    restarts stay random); useful for checking that a claimed optimum is
    actually stationary.
    """
    return _result_from(*_ascend(cfg, 2, init))


def optimize_spinflip(cfg: OptimizerConfig, init: np.ndarray | None = None) -> OptimizerResult:
    """Search flip isometries qubit -> (2 x ancilla) for the best worst-case
    flipped fidelity. ``best_fidelity`` on the result is the headline F."""
    return _result_from(*_ascend(cfg, 1, init))
