"""Numerical re-derivation of the optimal fidelities.

Searches over *feasible* machines only: every candidate parameter vector is
projected onto an isometry before evaluation, so the worst-direction fidelity
of every point visited is a true lower bound on what a physical machine can
do. Two campaigns:

* ``optimize_universal``: isometries qubit -> (2 x 2 x ancilla); objective is
  the worst-case of both output fidelities over a fixed direction net.
  Expected optimum: eta = 1/3, i.e. fidelity 2/3.
* ``optimize_spinflip``: isometries qubit -> (2 x ancilla) judged on how well
  the traced-out output matches the *opposite* direction. Expected optimum:
  fidelity 2/3 again, which is what makes anti-cloning exactly as good as
  measure-and-reprepare.

The ascent is deliberately simple: finite differences and geometric step
decay, no analytic derivatives, so it stays independent of the algebra being
re-derived. Every candidate's fidelities come from one
``machine.output_fidelities`` call, which takes each as the squared norm of
the output projected onto the target ket and forms no reduced state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .machine import output_fidelities
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
    """Knobs for the multi-restart finite-difference ascent."""

    restarts: int = 20
    max_iters: int = 300
    fd_step: float = 1e-5
    step_size: float = 0.25
    direction_samples: int = 62
    seed: int = 0
    ancilla_dim: int = 4
    softmin_temperature: float = 1e-3  # 0 disables smoothing

    def __post_init__(self):
        if self.restarts < 1 or self.max_iters < 1 or self.direction_samples < 1:
            raise ValueError("counts must be >= 1")
        if self.fd_step <= 0 or self.step_size <= 0:
            raise ValueError("fd_step and step_size must be positive")
        if self.ancilla_dim not in (1, 2, 4):
            raise ValueError(f"ancilla_dim must be 1, 2 or 4, got {self.ancilla_dim}")


@dataclass(frozen=True)
class OptimizerResult:
    """Best shrinking factor found, with per-restart and per-iteration detail.

    ``max_objective_seen`` tracks every hard-min objective evaluation made
    during the whole run; it staying at or below the analytic bound is itself
    a verification result.
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
                cand = np.zeros(out_dim, dtype=complex)
                cand[k] = 1.0
                cand = cand - np.vdot(c0[row], cand) * c0[row]
                norm = np.linalg.norm(cand)
                if norm > 0.5:  # always reachable: c0 overlaps most basis kets weakly
                    c1[row] = cand
                    break
        n1 = np.linalg.norm(c1, axis=1)
    c1 = c1 / n1[:, None]
    return np.stack([c0, c1], axis=2)


def parameterize_isometry(x: np.ndarray, out_dim: int) -> np.ndarray:
    """Single-vector form of the batch projection: flat reals -> isometry."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("expected a flat real parameter vector")
    return _isometry_batch(x[None, :], out_dim)[0]


def _universal_values(vb: np.ndarray, k_in: np.ndarray, k_opp: np.ndarray) -> np.ndarray:
    """Per-(candidate, direction, output) fidelities, shape (..., 2N)."""
    return output_fidelities(vb, k_in, (k_in, k_opp))


def _spinflip_values(vb: np.ndarray, k_in: np.ndarray, k_opp: np.ndarray) -> np.ndarray:
    """Per-(candidate, direction) flipped fidelity for (2 x anc) isometries."""
    return output_fidelities(vb, k_in, (k_opp,))


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


def _ascend(cfg: OptimizerConfig, out_dim: int, per_direction_fn, init: np.ndarray | None):
    """Multi-restart projected FD ascent. Returns per-restart results.

    Searches on a softmin surrogate annealed over four stages down to
    ``cfg.softmin_temperature`` (the hard minimum throughout if that is 0):
    the hard worst-case objective is kinked wherever directions tie, which is
    exactly what happens near a universal machine, and plain ascent stalls
    there. Headline values are always re-evaluated with the hard minimum.
    """
    dirs = direction_set(cfg.direction_samples)
    k_in = direction_kets(dirs)
    k_opp = direction_kets(-dirs)
    nparams = 4 * out_dim

    def evaluate(x_batch: np.ndarray, temperature: float):
        """(search value, hard worst-case value) per candidate."""
        values = per_direction_fn(_isometry_batch(x_batch, out_dim), k_in, k_opp)
        hard = values.min(axis=1)
        if temperature <= 0:
            return hard, hard
        return _softmin(values, temperature), hard

    if cfg.softmin_temperature > 0:
        schedule = [cfg.softmin_temperature * m for m in (30.0, 10.0, 3.0, 1.0)]
    else:
        schedule = [0.0]
    stage_iters = max(1, cfg.max_iters // len(schedule))

    per_restart = []
    best = (-np.inf, None, None)  # objective, params, trace
    max_seen = -np.inf
    h = cfg.fd_step
    eye = np.eye(nparams)

    for r in range(cfg.restarts):
        if init is not None and r == 0:
            x = np.asarray(init, dtype=float).copy()
            if x.shape != (nparams,):
                raise ValueError(f"init must have length {nparams}")
        else:
            x = philox_stream(cfg.seed, r).standard_normal(nparams)

        trace = []
        f_cur = float(evaluate(x[None], 0.0)[1][0])
        # best point *visited*: softmin acceptance may trade a little hard
        # minimum for average gains, so the endpoint is not always the peak
        x_peak, f_peak = x.copy(), f_cur
        for temperature in schedule:
            step = cfg.step_size
            s_cur, f_cur = (float(v[0]) for v in evaluate(x[None], temperature))
            max_seen = max(max_seen, f_cur)
            for _ in range(stage_iters):
                if step < STEP_FLOOR:
                    break
                probes = np.vstack([x + h * eye, x - h * eye])
                s_vals, h_vals = evaluate(probes, temperature)
                max_seen = max(max_seen, float(h_vals.max()))
                grad = (s_vals[:nparams] - s_vals[nparams:]) / (2.0 * h)
                gnorm = float(np.linalg.norm(grad))
                if gnorm < 1e-14:
                    step *= 0.5
                    trace.append(f_cur)
                    continue
                cand = x + step * grad / gnorm
                s_new, f_new = (float(v[0]) for v in evaluate(cand[None], temperature))
                max_seen = max(max_seen, f_new)
                if s_new > s_cur:
                    x, s_cur, f_cur = cand, s_new, f_new
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
    per_restart, best, max_seen = _ascend(cfg, out_dim, _universal_values, init)
    return _result_from(per_restart, best, max_seen)


def optimize_spinflip(cfg: OptimizerConfig, init: np.ndarray | None = None) -> OptimizerResult:
    """Search flip isometries qubit -> (2 x ancilla) for the best worst-case
    flipped fidelity. ``best_fidelity`` on the result is the headline F."""
    out_dim = 2 * cfg.ancilla_dim
    per_restart, best, max_seen = _ascend(cfg, out_dim, _spinflip_values, init)
    return _result_from(per_restart, best, max_seen)
