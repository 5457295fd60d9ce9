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

Each softmin stage is one L-BFGS ascent (Nocedal and Wright, Numerical
Optimization, 2006: the two-loop recursion, Alg. 7.4, and Armijo
backtracking, Sec. 3.1). A step taken with no (s, y) pairs, the first of
each stage among them, has the length of the restart's last accepted step,
the initial-step choice of Sec. 3.5; only a restart's first step is
``STEP_SIZE`` long. The gradient is plain calculus of the generic
fidelity functional: softmax weights of the softmin, the adjoint of the
fidelity kernel and the pullback of the Gram-Schmidt projection. It
presumes nothing of the anti-cloner algebra being re-derived, and the
tests check it against a central-difference oracle. Every candidate's
fidelities come from one ``machine.FidelityKernel``, prepared once per
ascent, which takes each as the squared norm of the output projected onto
the target ket and forms no reduced state; the gradient reuses the
candidate's amplitudes. Each stage start and each line-search trial is
one call on one flat parameter vector, and the projection hands the
pullback a record of the norms and overlap it took. The gradient is taken
lazily, at an accepted point.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import basis_ket
from .machine import FidelityKernel
from .qubit import direction_kets
from .rng import philox_stream

__all__ = [
    "OptimizerConfig",
    "OptimizerResult",
    "direction_set",
    "optimize_universal",
    "optimize_spinflip",
]

STEP_SIZE = 0.25  # length of a restart's first step, along the gradient
STEP_FLOOR = 1e-9  # shortest trial step of the line search
MEMORY = 8  # (s, y) pairs the L-BFGS model keeps
ARMIJO = 1e-4  # sufficient-increase constant of the line search
CURVATURE_TOL = 1e-16  # a pair needs s.y above this times |s| |y|
GAIN_TOL = 1e-12  # a stage ends after a step that gains less softmin
DIRECTION_SAMPLES = 62  # Fibonacci-lattice points of the direction net
SCHEDULE = (3e-2, 1e-2, 3e-3, 1e-3)  # softmin temperature of each annealing stage
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multi-restart ascent. ``max_iters`` caps the L-BFGS
    iterations (accepted steps) of each restart, split over the
    ``SCHEDULE`` stages."""

    restarts: int = 20
    max_iters: int = 100
    seed: int = 0
    ancilla_dim: int = 4

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("counts must be >= 1")
        if self.ancilla_dim not in (1, 2, 4):
            raise ValueError(f"ancilla_dim must be 1, 2 or 4, got {self.ancilla_dim}")


@dataclass(frozen=True)
class OptimizerResult:
    """The two values the ``optimize`` campaign reports.

    ``best_eta`` is 2 f - 1 for the largest hard-min objective f at a point
    the ascent stood on: a stage start, the first of which is the restart's
    start point, or an accepted step, over all restarts. Softmin acceptance
    may trade a little hard minimum for average gains, so an ascent's
    endpoint is not always its peak. ``max_objective_seen`` is the largest
    hard-min objective over every point the run evaluated: those, and every
    line-search trial, rejected ones included (the gradient is analytic, so
    there are no probe points). It staying at or below the analytic bound
    is itself a verification result.
    """

    best_eta: float
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


def _norm(c: np.ndarray) -> float:
    """Euclidean norm of ``c``: the square root of the summed |c|^2."""
    return math.sqrt(np.add.reduce((c.conj() * c).real))


def _inner(a: np.ndarray, z: np.ndarray) -> complex:
    """<a, z>."""
    return np.add.reduce(a.conj() * z)


class _GramSchmidt(NamedTuple):
    """What the projection computed that its pullback needs: the raw column
    1, the raw norm of column 0, <e0, c1> and the raw norm of
    c1 - <e0, c1> e0, both norms taken before any fallback."""

    c1: np.ndarray
    n0: float
    overlap: complex
    n1: float


def _isometry_batch(x: np.ndarray, out_dim: int) -> tuple[np.ndarray, _GramSchmidt]:
    """Project ``x``, shape (4 * out_dim,), onto an isometry, shape
    (out_dim, 2), and return it with the Gram-Schmidt record that
    ``_isometry_pullback`` reads.

    Column 0 is normalized; column 1 is projected off column 0 and
    normalized. A degenerate column falls back to a deterministic
    computational-basis vector, so the map is total; the fallback divides by
    no vanishing norm, and a NaN norm divides, as it is not under
    ``DEGENERACY_TOL``.
    """
    if x.shape != (4 * out_dim,):
        raise ValueError(f"expected {4 * out_dim} real parameters, got shape {x.shape}")
    cols = x.reshape(2, out_dim, 2)
    c0, c1 = cols[..., 0] + 1j * cols[..., 1]

    n0 = _norm(c0)
    e0 = basis_ket(out_dim, 0) if n0 < DEGENERACY_TOL else c0 / n0

    overlap = _inner(e0, c1)
    r1 = c1 - overlap * e0
    n1 = _norm(r1)
    if n1 < DEGENERACY_TOL:
        # first basis vector with substantial residual off column 0
        for k in range(out_dim):
            cand = basis_ket(out_dim, k)
            cand = cand - np.vdot(e0, cand) * e0
            if np.linalg.norm(cand) > 0.5:  # always reachable: e0 overlaps most basis kets weakly
                e1 = cand / _norm(cand)
                break
    else:
        e1 = r1 / n1
    return np.column_stack([e0, e1]), _GramSchmidt(c1, n0, overlap, n1)


def _isometry_pullback(v: np.ndarray, record: _GramSchmidt, g: np.ndarray) -> np.ndarray:
    """Gradient in the flat parameters of Re sum conj(g) V, where ``v`` and
    ``record`` = ``_isometry_batch(x)`` and ``g``, shape (out_dim, 2), is
    the gradient with respect to V. Returns shape (4 * out_dim,).

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
    grad = np.empty((2, len(e0)), dtype=complex)
    if n1 < DEGENERACY_TOL:
        h1 = np.zeros(len(e0), dtype=complex)
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


def _softmin(values: np.ndarray, temperature: float) -> float:
    """The softmin -T log sum exp(-f/T) of ``values``."""
    scaled = values / -temperature  # the bits of -values / temperature
    peak = np.maximum.reduce(scaled)
    return -temperature * (np.log(np.add.reduce(np.exp(scaled - peak))) + peak)


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
        gradient) at ``x``, shape (4 * out_dim,); ``gradient()`` returns
        the search value's gradient from the amplitudes and the
        Gram-Schmidt record computed here."""
        v, record = _isometry_batch(x, self.out_dim)
        # looked up at call time, so a patched module attribute is the one
        # called
        values_fn = _universal_values if self.copies == 2 else _spinflip_values
        # the kernel takes a stack of isometries: this one is a stack of one
        values, amps = values_fn(v[None], self.kernel)
        values, amps = values[0], amps[0]
        search = _softmin(values, temperature)

        def gradient() -> np.ndarray:
            weights = _softmin_weights(values, search, temperature)
            return _isometry_pullback(v, record, self.kernel.adjoint(amps, weights))

        return search, float(np.minimum.reduce(values)), gradient


def _two_loop(g: np.ndarray, pairs) -> np.ndarray:
    """H g for the L-BFGS inverse-Hessian model H of the (s, y, 1 / s.y)
    ``pairs``, oldest first, with H0 = (s.y / y.y) I from the newest pair:
    the two-loop recursion (Nocedal and Wright, Numerical Optimization,
    2006, Alg. 7.4)."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(pairs):
        alpha = rho * s.dot(q)
        q -= alpha * y
        alphas.append(alpha)
    s, y, rho = pairs[-1]
    q *= 1.0 / (rho * y.dot(y))
    for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
        q += (alpha - rho * y.dot(q)) * s
    return q


def _ascend(cfg: OptimizerConfig, copies: int, init: np.ndarray | None) -> OptimizerResult:
    """Multi-restart projected L-BFGS ascent. Keeps one running peak, the
    largest hard value at a stage start or an accepted point over all
    restarts, and the largest hard value at any point scored, and returns
    them as an ``OptimizerResult``.

    Searches on a softmin surrogate annealed over the four ``SCHEDULE``
    stages: the hard worst-case objective is kinked wherever directions tie,
    which is exactly what happens near a universal machine, and plain ascent
    stalls there. Headline values are always the hard minimum.

    Each stage is one L-BFGS loop on its own softmin, with a fresh memory of
    the newest ``MEMORY`` (s, y) pairs, y the change in the gradient of the
    negated softmin; a pair whose curvature s.y is not above
    ``CURVATURE_TOL`` |s| |y| is skipped. A step with no pairs, each
    stage's first among them, goes along the gradient with the length of
    the restart's last accepted step (Nocedal and Wright, Sec. 3.5): the
    accepted trial's t |d|, which the line search keeps at least
    ``STEP_FLOOR``. A restart's first step is ``STEP_SIZE`` long, so
    restarts stay independent. Steps with pairs follow the two-loop
    direction. The line search backtracks from t = 1, halving t, to the
    first trial that meets the Armijo condition with constant ``ARMIJO``,
    scoring one trial per call. A stage ends at its share of ``max_iters``
    (the coldest stage takes the remainder), after a step that gains less
    than ``GAIN_TOL``, or when no trial down to ``STEP_FLOOR`` long meets
    the Armijo condition. The gradient is taken at an accepted point only
    when another step follows.
    """
    objective = _Objective(copies, cfg.ancilla_dim, direction_set())
    nparams = 4 * objective.out_dim

    stage_iters = [cfg.max_iters // len(SCHEDULE)] * len(SCHEDULE)
    stage_iters[-1] += cfg.max_iters % len(SCHEDULE)

    best = max_seen = -np.inf

    for r in range(cfg.restarts):
        if init is not None and r == 0:
            x = np.asarray(init, dtype=float).copy()
            if x.shape != (nparams,) or not np.isfinite(x).all():
                raise ValueError(f"init must hold {nparams} finite numbers")
        else:
            x = philox_stream(cfg.seed, r).standard_normal(nparams)

        carried = STEP_SIZE  # a pairless step's length: the last accepted step's
        for temperature, iters in zip(SCHEDULE, stage_iters):
            s_cur, f_cur, gradient_at_x = objective.evaluate(x, temperature)
            max_seen = max(max_seen, f_cur)
            best = max(best, f_cur)
            pairs = deque(maxlen=MEMORY)
            step = None  # the last accepted step and the gradient before it
            for _ in range(iters):
                grad = gradient_at_x()
                if step is not None:
                    s, g_old = step
                    y = g_old - grad  # the gradient change of the negated softmin
                    sy = s.dot(y)
                    if sy > CURVATURE_TOL * math.sqrt(s.dot(s) * y.dot(y)):
                        pairs.append((s, y, 1.0 / sy))
                if pairs:
                    direction = _two_loop(grad, pairs)
                else:
                    # the arithmetic of np.linalg.norm(grad) without its dispatch
                    gnorm = math.sqrt(grad.dot(grad))
                    direction = grad * (carried / gnorm) if gnorm > 0.0 else grad
                slope = grad.dot(direction)
                length = math.sqrt(direction.dot(direction))
                t = 1.0
                while t * length >= STEP_FLOOR:
                    cand = x + t * direction
                    s_new, f_new, gradient_at_cand = objective.evaluate(cand, temperature)
                    max_seen = max(max_seen, f_new)
                    if s_new >= s_cur + ARMIJO * t * slope:
                        break
                    t *= 0.5
                else:
                    break  # no step up above the floor, as at a zero gradient
                gain = s_new - s_cur
                carried = t * length  # at least STEP_FLOOR, by the loop test
                step = (cand - x, grad)
                x, s_cur, f_cur, gradient_at_x = cand, s_new, f_new, gradient_at_cand
                best = max(best, f_cur)
                if not gain >= GAIN_TOL:
                    break

    return OptimizerResult(2.0 * best - 1.0, float(max_seen))


def optimize_universal(cfg: OptimizerConfig, init: np.ndarray | None = None) -> OptimizerResult:
    """Search anti-cloner isometries for the best worst-case fidelity.

    ``init`` seeds restart 0 with an explicit parameter vector (the remaining
    restarts stay random); useful for checking that a claimed optimum is
    actually stationary.
    """
    return _ascend(cfg, 2, init)


def optimize_spinflip(cfg: OptimizerConfig, init: np.ndarray | None = None) -> OptimizerResult:
    """Search flip isometries qubit -> (2 x ancilla) for the best worst-case
    flipped fidelity. ``best_fidelity`` on the result is the headline F."""
    return _ascend(cfg, 1, init)
