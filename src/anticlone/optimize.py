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
Every candidate's fidelities come from one ``machine.output_fidelities``
call, which takes each as the squared norm of the output projected onto the
target ket and forms no reduced state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import basis_ket
from .machine import output_fidelities, output_fidelities_adjoint
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

STEP_FLOOR = 1e-9
DEGENERACY_TOL = 1e-12


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs for the multi-restart gradient ascent."""

    restarts: int = 20
    max_iters: int = 600
    step_size: float = 0.25
    direction_samples: int = 62
    seed: int = 0
    ancilla_dim: int = 4
    softmin_temperature: float = 1e-3  # 0 disables smoothing

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1 or self.direction_samples < 1:
            raise ValueError("counts must be >= 1")
        if self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if self.ancilla_dim not in (1, 2, 4):
            raise ValueError(f"ancilla_dim must be 1, 2 or 4, got {self.ancilla_dim}")


@dataclass(frozen=True)
class OptimizerResult:
    """Best shrinking factor found, with per-restart and per-iteration detail.

    ``max_objective_seen`` is the largest hard-min objective over every
    point the run evaluated: restart and stage start points and step
    candidates (the gradient is analytic, so there are no probe points). It
    staying at or below the analytic bound is itself a verification result.
    """

    best_eta: float
    best_params: np.ndarray
    per_restart_etas: list[float]
    objective_trace: list[float]
    max_objective_seen: float

    @property
    def best_fidelity(self) -> float:
        return 0.5 * (1.0 + self.best_eta)


def direction_set(samples: int = 62) -> np.ndarray:
    """Fixed direction net: spherical Fibonacci lattice plus the six poles."""
    if samples < 1:
        raise ValueError("need at least one lattice sample")
    i = np.arange(samples)
    z = 1.0 - (2.0 * i + 1.0) / samples
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    golden = np.pi * (3.0 - np.sqrt(5.0))
    pts = np.column_stack([r * np.cos(i * golden), r * np.sin(i * golden), z])
    poles = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=float
    )
    return np.vstack([pts, poles])


def _isometry_batch(x: np.ndarray, out_dim: int) -> np.ndarray:
    """Project a batch of flat real vectors onto isometries, shape (B, out_dim, 2).

    Column 0 is normalized; column 1 is projected off column 0 and normalized.
    Degenerate columns fall back to deterministic computational-basis vectors,
    so the map is total.
    """
    b = x.shape[0]
    if x.shape[1] != 4 * out_dim:
        raise ValueError(f"parameter vectors must have length {4 * out_dim}, got {x.shape[1]}")
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
            # first basis vector with substantial residual off column 0
            for k in range(out_dim):
                cand = basis_ket(out_dim, k)
                cand = cand - np.vdot(c0[row], cand) * c0[row]
                norm = np.linalg.norm(cand)
                if norm > 0.5:  # always reachable: c0 overlaps most basis kets weakly
                    c1[row] = cand
                    break
        n1 = np.linalg.norm(c1, axis=1)
    c1 = c1 / n1[:, None]
    return np.stack([c0, c1], axis=2)


def _isometry_pullback(x: np.ndarray, v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient in the flat parameters of Re sum conj(g) V, where
    V = ``_isometry_batch(x)`` and ``g``, both (B, out_dim, 2), is the
    gradient with respect to V. Returns shape (B, 4 * out_dim).

    Reverses the Gram-Schmidt steps: for e = u / |u| the gradient on u is
    (g - Re<e, g> e) / |u|, and since column 1 is projected off column 0,
    column 0 also collects the gradient of that projection. A column that
    fell back to a basis vector does not move with its parameters, so it
    gets a zero gradient and passes nothing on.
    """
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


def parameterize_isometry(x: np.ndarray, out_dim: int) -> np.ndarray:
    """Single-vector form of the batch projection: flat reals -> isometry."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a flat real parameter vector")
    return _isometry_batch(x[None, :], out_dim)[0]


def _universal_targets(k_in: np.ndarray, k_opp: np.ndarray) -> tuple:
    """Clone 1 is scored against n, clone 2 against -n."""
    return (k_in, k_opp)


def _spinflip_targets(k_in: np.ndarray, k_opp: np.ndarray) -> tuple:
    """The one output is scored against -n."""
    return (k_opp,)


def _universal_values(vb: np.ndarray, k_in: np.ndarray, k_opp: np.ndarray) -> np.ndarray:
    """Per-(candidate, direction, output) fidelities, shape (..., 2N)."""
    return output_fidelities(vb, k_in, _universal_targets(k_in, k_opp))


def _spinflip_values(vb: np.ndarray, k_in: np.ndarray, k_opp: np.ndarray) -> np.ndarray:
    """Per-(candidate, direction) flipped fidelity for (2 x anc) isometries."""
    return output_fidelities(vb, k_in, _spinflip_targets(k_in, k_opp))


def objective_universal(v: np.ndarray, directions: np.ndarray) -> float:
    """Worst-direction anti-cloning fidelity of one isometry.

    Equals min over the net of min(f1, f2), the fidelities of the two
    outputs against n and -n, from ``machine.output_fidelities``.
    """
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    return float(_universal_values(v, direction_kets(d), direction_kets(-d)).min())


def objective_spinflip(v: np.ndarray, directions: np.ndarray) -> float:
    """Worst-direction flip fidelity <-n|rho_out|-n> of a (2 x anc) isometry."""
    d = np.atleast_2d(np.asarray(directions, dtype=float))
    return float(_spinflip_values(v, direction_kets(d), direction_kets(-d)).min())


def _softmin(values: np.ndarray, temperature: float) -> np.ndarray:
    scaled = -values / temperature
    peak = scaled.max(axis=-1, keepdims=True)
    return -temperature * (np.log(np.exp(scaled - peak).sum(axis=-1)) + peak[..., 0])


def _softmin_weights(values: np.ndarray, search: np.ndarray, temperature: float) -> np.ndarray:
    """Gradient of the search value with respect to ``values``.

    For the softmin s = -T log sum exp(-f/T) that is the softmax weight
    exp((s - f) / T), at most 1 since s <= min f. The hard minimum (T = 0)
    puts all weight on its first minimizer.
    """
    if temperature > 0:
        return np.exp((search[..., None] - values) / temperature)
    weights = np.zeros_like(values)
    np.put_along_axis(weights, values.argmin(axis=-1)[..., None], 1.0, axis=-1)
    return weights


class _Objective:
    """A campaign's search objective on flat parameter vectors over a fixed
    direction net: ``values_fn`` gives the per-direction fidelities of a
    batch of isometries, ``targets_fn`` the target kets they are taken
    against, as handed to ``machine.output_fidelities``."""

    def __init__(self, out_dim: int, values_fn, targets_fn, directions: np.ndarray):
        self.out_dim = out_dim
        self.values_fn = values_fn
        self.k_in = direction_kets(directions)
        self.k_opp = direction_kets(-directions)
        self.targets = targets_fn(self.k_in, self.k_opp)

    def evaluate(self, x: np.ndarray, temperature: float):
        """(search value, hard worst-case value, gradient thunk) at one
        point; the search value is the softmin at ``temperature``, or the
        hard minimum at 0, and the thunk returns its gradient in ``x``."""
        xb = x[None]
        vb = _isometry_batch(xb, self.out_dim)
        values = self.values_fn(vb, self.k_in, self.k_opp)
        hard = values.min(axis=1)
        search = _softmin(values, temperature) if temperature > 0 else hard

        def gradient() -> np.ndarray:
            weights = _softmin_weights(values, search, temperature)
            g = output_fidelities_adjoint(vb, self.k_in, self.targets, weights)
            return _isometry_pullback(xb, vb, g)[0]

        return float(search[0]), float(hard[0]), gradient


def _ascend(cfg: OptimizerConfig, out_dim: int, values_fn, targets_fn, init: np.ndarray | None):
    """Multi-restart projected gradient ascent. Returns per-restart results.

    Searches on a softmin surrogate annealed over four stages down to
    ``cfg.softmin_temperature`` (the hard minimum throughout if that is 0):
    the hard worst-case objective is kinked wherever directions tie, which is
    exactly what happens near a universal machine, and plain ascent stalls
    there. Headline values are always re-evaluated with the hard minimum.
    The gradient is taken only where ``x`` moved: after an accepted step or
    at the start of a stage; a rejected step reuses it.
    """
    objective = _Objective(out_dim, values_fn, targets_fn, direction_set(cfg.direction_samples))
    evaluate = objective.evaluate
    nparams = 4 * out_dim

    if cfg.softmin_temperature > 0:
        schedule = [cfg.softmin_temperature * m for m in (30.0, 10.0, 3.0, 1.0)]
    else:
        schedule = [0.0]
    # the coldest stage takes the remainder, so the stages add up to max_iters
    stage_iters = [cfg.max_iters // len(schedule)] * len(schedule)
    stage_iters[-1] += cfg.max_iters % len(schedule)

    per_restart = []
    best = (-np.inf, None, None)  # objective, params, trace
    max_seen = -np.inf

    for r in range(cfg.restarts):
        if init is not None and r == 0:
            x = np.asarray(init, dtype=float).copy()
            if x.shape != (nparams,):
                raise ValueError(f"init must have length {nparams}")
        else:
            x = philox_stream(cfg.seed, r).standard_normal(nparams)

        trace = []
        f_cur = evaluate(x, 0.0)[1]
        # best point *visited*: softmin acceptance may trade a little hard
        # minimum for average gains, so the endpoint is not always the peak
        x_peak, f_peak = x.copy(), f_cur
        for temperature, iters in zip(schedule, stage_iters):
            step = cfg.step_size
            s_cur, f_cur, gradient_at_x = evaluate(x, temperature)
            max_seen = max(max_seen, f_cur)
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
                    step = min(step * 2.0, cfg.step_size)
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
    out_dim = 4 * cfg.ancilla_dim
    per_restart, best, max_seen = _ascend(cfg, out_dim, _universal_values, _universal_targets, init)
    return _result_from(per_restart, best, max_seen)


def optimize_spinflip(cfg: OptimizerConfig, init: np.ndarray | None = None) -> OptimizerResult:
    """Search flip isometries qubit -> (2 x ancilla) for the best worst-case
    flipped fidelity. ``best_fidelity`` on the result is the headline F."""
    out_dim = 2 * cfg.ancilla_dim
    per_restart, best, max_seen = _ascend(cfg, out_dim, _spinflip_values, _spinflip_targets, init)
    return _result_from(per_restart, best, max_seen)
