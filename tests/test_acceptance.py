"""Acceptance suite: every promised headline number at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.
"""

import json
import subprocess
import sys
import time

import numpy as np

from anticlone.machine import (
    COEFF_KEYS,
    anticlone,
    build_isometry,
    constraint_residuals,
    haar_directions,
    measure_prepare_baseline,
    optimal_params,
    target_forms,
)
from anticlone.optimize import OptimizerConfig, optimize_spinflip
from anticlone.probclone import (
    CopySpec,
    StateSet,
    build_two_state_anticloner,
    max_feasible_f,
    run_prob_anticlone,
    two_state_efficiency,
)
from anticlone.qubit import BlochVector, QubitState, antiunitary_flip, bloch_to_state
from oracles import partial_trace_by_sum

THETA_GRID = (np.pi / 6, np.pi / 4, np.pi / 3, np.pi / 2)


def report(criterion, passed, detail):
    line = f"{'PASS' if passed else 'FAIL'}: criterion {criterion} - {detail}"
    print(line)
    assert passed, line


def test_criterion_1_universal_anticloner_exactness():
    v = build_isometry(optimal_params())
    dirs = haar_directions(1000, seed=2026)
    start = time.perf_counter()
    worst_rho = worst_f = 0.0
    for row in dirs:
        n = BlochVector.from_array(row)
        out = anticlone(bloch_to_state(n), v)
        t1, t2 = target_forms(n, 1 / 3)
        worst_rho = max(
            worst_rho,
            float(np.max(np.abs(out.rho1 - t1))),
            float(np.max(np.abs(out.rho2 - t2))),
        )
        worst_f = max(worst_f, abs(out.f1 - 2 / 3), abs(out.f2 - 2 / 3))
    elapsed = time.perf_counter() - start
    report(
        1,
        worst_rho < 1e-9 and worst_f < 1e-9 and elapsed < 1.0,
        f"1000 directions: max output deviation {worst_rho:.2e} (tol 1e-9), "
        f"max fidelity deviation {worst_f:.2e} (tol 1e-9), runtime {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_constraint_system():
    params = optimal_params()
    at_solution = constraint_residuals(params).max_residual
    weakest = np.inf
    for key in COEFF_KEYS:
        perturbed = params.replace_coeff(key, params.coeffs[key] + 1e-3)
        weakest = min(weakest, constraint_residuals(perturbed).max_residual)
    report(
        2,
        at_solution < 1e-12 and weakest > 1e-4,
        f"residuals at solution {at_solution:.2e} (tol 1e-12); weakest response to a "
        f"1e-3 coefficient perturbation {weakest:.2e} (must exceed 1e-4)",
    )


def test_criterion_3_optimality_rederivation(universal_optimize_run):
    metrics = {m.name: m.value for m in universal_optimize_run[0].metrics}
    eta, excess = metrics["best_eta"], metrics["objective_bound_excess"]
    in_band = 1 / 3 - 1e-3 <= eta <= 1 / 3 + 1e-6
    bounded = excess <= 1e-6
    report(
        3,
        in_band and bounded,
        f"20 restarts: best eta {eta:.8f} in [1/3 - 1e-3, 1/3 + 1e-6]; "
        f"max objective ever exceeds 2/3 by {excess:.2e} (tol 1e-6)",
    )


def test_criterion_4_spinflip_parity():
    res = optimize_spinflip(OptimizerConfig(restarts=20, seed=0))
    in_band = 2 / 3 - 1e-3 <= res.best_fidelity <= 2 / 3 + 1e-6
    report(
        4,
        in_band,
        f"20 restarts: best flip fidelity {res.best_fidelity:.8f} in [2/3 - 1e-3, 2/3 + 1e-6]",
    )


def test_criterion_5_measurement_baseline():
    start = time.perf_counter()
    rep = measure_prepare_baseline(10**6, seed=0)
    elapsed = time.perf_counter() - start
    dev = abs(rep.avg_fidelity_anticlone - 2 / 3)
    report(
        5,
        dev < 0.002 and elapsed < 10.0,
        f"1e6 samples: anti-copy fidelity {rep.avg_fidelity_anticlone:.6f}, "
        f"|dev| {dev:.2e} < 0.002, runtime {elapsed:.2f}s (< 10s)",
    )


def test_criterion_6_probabilistic_anticloner():
    worst_unitarity = worst_exact = worst_fid = worst_sigma = 0.0
    for theta in THETA_GRID:
        pc = build_two_state_anticloner(theta)
        worst_unitarity = max(
            worst_unitarity, float(np.max(np.abs(pc.u.conj().T @ pc.u - np.eye(8))))
        )
        closed = (1 - np.cos(theta)) / (1 - np.cos(theta) ** 2) if theta < np.pi / 2 else 1.0
        sigma = np.sqrt(pc.f * (1 - pc.f) / 1e5)
        for which in (1, 2):
            exact = run_prob_anticlone(pc, which, shots=0)
            worst_exact = max(worst_exact, abs(exact.success_probability - closed))
            worst_fid = max(worst_fid, abs(exact.post_selected_fidelity - 1.0))
            shot = run_prob_anticlone(pc, which, shots=10**5, seed=6)
            if sigma > 0:
                worst_sigma = max(worst_sigma, abs(shot.successes / 1e5 - pc.f) / sigma)
    report(
        6,
        worst_unitarity < 1e-12 and worst_exact < 1e-12 and worst_fid < 1e-12
        and worst_sigma < 3.0,
        f"theta grid: unitarity {worst_unitarity:.2e} (tol 1e-12), exact success "
        f"deviation {worst_exact:.2e} (tol 1e-12), post-selected infidelity "
        f"{worst_fid:.2e} (tol 1e-12), worst shot z-score {worst_sigma:.2f} (< 3)",
    )


def test_criterion_7_feasibility_oracle_equivalence():
    worst = 0.0
    for theta in THETA_GRID:
        c = np.cos(theta)
        pair = StateSet([QubitState(1, 0), QubitState.normalized(c, np.sin(theta))])
        for mu in ((1, 1), (2, 1), (5, 5), (10, 10)):
            f_max = max_feasible_f(pair, CopySpec(*mu)).f_max
            worst = max(worst, abs(f_max - two_state_efficiency(c, *mu)))
    pair = StateSet([QubitState(1, 0), QubitState.normalized(0.5, np.sqrt(3) / 2)])
    f_many = max_feasible_f(pair, CopySpec(10, 10)).f_max
    limit_gap = abs(f_many - 0.5)
    report(
        7,
        worst < 1e-9 and limit_gap < 1e-5,
        f"direct generalized-eigenvalue solve vs closed form over grid: worst "
        f"deviation {worst:.2e} (tol 1e-9); "
        f"(10,10) distance to distinguishability limit {limit_gap:.2e} (tol 1e-5)",
    )


def test_criterion_8_no_signalling_bound():
    trio = StateSet([QubitState(1, 0), QubitState(0, 1), QubitState.normalized(1, 1)])
    f = max_feasible_f(trio, CopySpec(1, 1)).f_max
    report(8, f < 1e-9, f"three dependent states: f_max {f:.2e} < 1e-9")


def test_criterion_9_property_suites(rng, tmp_path):
    failures = []

    # anti-unitarity: modulus preservation, anti-linearity, double flip = -1
    for _ in range(50):
        v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        s = QubitState.normalized(*v[0])
        t = QubitState.normalized(*v[1])
        if abs(
            abs(np.vdot(s.ket(), t.ket()))
            - abs(np.vdot(antiunitary_flip(s).ket(), antiunitary_flip(t).ket()))
        ) > 1e-12:
            failures.append("modulus preservation")
        twice = antiunitary_flip(antiunitary_flip(s))
        if abs(twice.alpha + s.alpha) + abs(twice.beta + s.beta) > 1e-12:
            failures.append("double flip")
        a = complex(rng.standard_normal(), rng.standard_normal())
        b = complex(rng.standard_normal(), rng.standard_normal())
        combo = a * s.ket() + b * t.ket()
        norm = np.linalg.norm(combo)
        if norm > 1e-6:
            lhs = antiunitary_flip(QubitState(*(combo / norm))).ket()
            flip = lambda k: np.array([-np.conj(k[1]), np.conj(k[0])])
            rhs = (np.conj(a) * flip(s.ket()) + np.conj(b) * flip(t.ket())) / norm
            if np.max(np.abs(lhs - rhs)) > 1e-12:
                failures.append("anti-linearity")

    # partial trace against the brute-force oracle
    from anticlone.linalg import partial_trace

    m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    for keep in ([0], [1], [2], [0, 2]):
        if not np.allclose(
            partial_trace(rho, [2, 2, 2], keep),
            partial_trace_by_sum(rho, [2, 2, 2], keep),
            atol=1e-12,
        ):
            failures.append(f"partial trace keep={keep}")

    # CLI determinism: byte-identical reports for a fixed seed
    outs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        subprocess.run(
            [sys.executable, "-m", "anticlone", "baseline", "--samples", "20000",
             "--seed", "5", "--output", str(path)],
            check=True,
        )
        outs.append(path.read_bytes())
    if outs[0] != outs[1]:
        failures.append("CLI determinism")

    report(
        9,
        not failures,
        "anti-unitarity, partial-trace oracle, CLI determinism all hold"
        if not failures else f"failed: {failures}",
    )
