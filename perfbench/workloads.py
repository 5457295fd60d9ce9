"""Seeded inputs and campaign cycles for the three benchmark workloads.

Each workload is a closed loop over a fixed cycle of campaign calls: a call
starts when the previous one returns. The seed fixes every input the program
receives (campaign seeds, state-list files); the shape of the work (sizes,
counts, copy numbers, angles) is the same for every seed, so seeds move
values, not the amount of work.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Enough cycles for any run length the benchmark accepts (60 s).
MAX_CYCLES = 4096
VERIFY_SAMPLES = 200
BASELINE_SAMPLES = 1_000_000
ETA_OPT = 1.0 / 3.0

WHY = {
    "optimize": (
        "universal optimizer restarts, then spinflip restarts: the _fidelity_pair_batch "
        "einsum chain is ~91% of a universal restart; spinflip runs the same ascent on a "
        "half-size kernel"
    ),
    "verify": (
        "many 200-direction verify calls on fresh Haar sets: the per-direction path "
        "machine.anticlone -> check_density_matrix -> 2x2 Jacobi eigensolver; never "
        "touches optimize"
    ),
    "certify": (
        "feasibility on 2-16 state files, prob over a theta grid, 1e6-sample baseline: "
        "few-but-large eigensolves (n <= 16, 42 per certificate) and Philox Monte Carlo; "
        "bypasses optimize and machine.anticlone"
    ),
}


@dataclass(frozen=True)
class Call:
    """One campaign invocation: ``item`` names its latency series within a
    cycle; ``check`` returns an error message for a wrong report, or None."""

    item: str
    argv: tuple[str, ...]
    check: Callable[[dict], str | None]


@dataclass(frozen=True)
class Plan:
    """A workload's generated inputs, as a function from cycle index to calls."""

    cycle: Callable[[int], list[Call]]
    min_cycles: int      # the measured loop runs at least this many cycles
    trace_cycles: int    # fixed work of the traced run, so its counts repeat


def metric(payload: dict, name: str) -> float:
    for m in payload["metrics"]:
        if m["metric"] == name:
            return m["value"]
    raise KeyError(name)


def _seeds(rng: np.random.Generator, shape) -> np.ndarray:
    return rng.integers(0, 2**31 - 1, size=shape)


def _echoes(payload: dict, **expected) -> str | None:
    params = payload["parameters"]
    for key, value in expected.items():
        if params.get(key) != value:
            return f"report parameter {key}={params.get(key)!r}, expected {value!r}"
    return None


def optimize_plan(seed: int, workdir: str) -> Plan:
    seeds = _seeds(np.random.default_rng(seed), (MAX_CYCLES, 2))
    out = os.path.join(workdir, "report.json")

    def check(s: int, spinflip: bool):
        label, bound = ("best_flip_fidelity", 2.0 / 3.0) if spinflip else ("best_eta", ETA_OPT)

        def run(payload):
            err = _echoes(payload, seed=s, restarts=1, spinflip=spinflip, ancilla_dim=4)
            if err is None and metric(payload, label) > bound + 1e-9:
                err = f"{label}={metric(payload, label)!r} exceeds the analytic optimum"
            return err

        return run

    def cycle(i: int) -> list[Call]:
        su, ss = (int(v) for v in seeds[i])
        common = ("--ancilla-dim", "4", "--restarts", "1", "--output", out)
        return [
            Call("universal", ("optimize", "--seed", str(su)) + common, check(su, False)),
            Call("spinflip", ("optimize", "--spinflip", "--seed", str(ss)) + common, check(ss, True)),
        ]

    return Plan(cycle, min_cycles=3, trace_cycles=2)


def verify_plan(seed: int, workdir: str) -> Plan:
    seeds = _seeds(np.random.default_rng(seed), MAX_CYCLES)
    out = os.path.join(workdir, "report.json")

    def cycle(i: int) -> list[Call]:
        s = int(seeds[i])
        argv = ("verify", "--samples", str(VERIFY_SAMPLES), "--seed", str(s), "--output", out)
        return [Call("verify", argv, lambda p: _echoes(p, samples=VERIFY_SAMPLES, seed=s))]

    # 100 calls put ten calls beyond the p90 latency
    return Plan(cycle, min_cycles=100, trace_cycles=40)


# (states, L, M). Pairs are independent; any three qubit states are linearly
# dependent, so every larger set is rank-deficient.
STATE_SETS = [
    (2, 1, 1),
    (2, 2, 1),
    (2, 1, 3),
    (3, 1, 1),
    (4, 2, 2),
    (6, 0, 2),
    (8, 1, 2),
    (12, 2, 1),
    (16, 1, 1),
]
# Pair overlaps are drawn from [0, 0.99]: above about 0.9995 the feasibility
# campaign fails its own closed-form check (the bisection overshoots by ~1e-9).
PAIR_OVERLAP_MAX = 0.99
# Near 0, seven equal steps up to pi/2. Angles between about 1e-5 and 3e-3
# fail the prob campaign's 1e-12 check (cancellation in two_state_efficiency).
THETAS = [1e-6] + [0.5 * math.pi * k / 7 for k in range(1, 8)]
# The Monte Carlo campaigns keep the command's default seed: their cost does
# not depend on it, and fresh seeds would fail their 3-sigma checks in about
# 0.3% of calls.
MONTE_CARLO_SEED = 0


def _haar_kets(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return v / np.linalg.norm(v, axis=1)[:, None]


def _pair(rng: np.random.Generator) -> tuple[np.ndarray, float]:
    """Two random kets with overlap c drawn uniformly from [0, PAIR_OVERLAP_MAX]."""
    a = _haar_kets(rng, 1)[0]
    orth = np.array([-np.conj(a[1]), np.conj(a[0])])
    c = rng.uniform(0.0, PAIR_OVERLAP_MAX)
    phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2))
    b = phases[0] * (c * a + np.sqrt(1.0 - c * c) * phases[1] * orth)
    return np.stack([a, b]), c


def pair_efficiency(overlap: float, copies: int) -> float:
    """Two-state f_max as 1 / sum_{j<k} c^j: the closed form (1-c)/(1-c^k)
    without its cancellation near c = 1."""
    return 1.0 / sum(overlap**j for j in range(copies))


def _check_feasibility(expected: float | None):
    def run(payload):
        dependent = expected is None
        if payload["parameters"]["dependent"] != dependent:
            return f"dependent={payload['parameters']['dependent']}, expected {dependent}"
        f_max = metric(payload, "f_max")
        if dependent and f_max > 1e-9:
            return f"rank-deficient set has f_max={f_max!r}"
        if not dependent and abs(f_max - expected) > 1e-9:
            return f"f_max={f_max!r}, closed form {expected!r}"
        return None

    return run


def _check_prob(theta: float):
    def run(payload):
        exact = 1.0 / (1.0 + math.cos(theta))  # (1-c)/(1-c^2), cancellation-free
        got = metric(payload, "efficiency")
        return None if abs(got - exact) <= 1e-9 else f"efficiency={got!r}, expected {exact!r}"

    return run


def _check_baseline(payload):
    err = _echoes(payload, samples=BASELINE_SAMPLES, seed=MONTE_CARLO_SEED)
    stderr = metric(payload, "stderr")
    for name in ("avg_fidelity_clone", "avg_fidelity_anticlone"):
        if err is None and abs(metric(payload, name) - 2.0 / 3.0) > 5.0 * stderr:
            err = f"{name}={metric(payload, name)!r} is over 5 stderr from 2/3"
    return err


def certify_plan(seed: int, workdir: str) -> Plan:
    rng = np.random.default_rng(seed)
    out = os.path.join(workdir, "report.json")
    calls = []
    for index, (n, copies_l, copies_m) in enumerate(STATE_SETS):
        expected = None
        if n == 2:
            kets, overlap = _pair(rng)
            expected = pair_efficiency(overlap, copies_l + copies_m)
        else:
            kets = _haar_kets(rng, n)
        path = os.path.join(workdir, f"states_{index}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"states": [[[a.real, a.imag], [b.real, b.imag]] for a, b in kets]}, fh)
        argv = ("feasibility", "--states", path, "--L", str(copies_l), "--M", str(copies_m), "--output", out)
        calls.append(Call(f"feasibility[{index}:n{n}:L{copies_l}M{copies_m}]", argv, _check_feasibility(expected)))
    for j, theta in enumerate(THETAS):
        argv = ("prob", "--theta", repr(theta), "--seed", str(MONTE_CARLO_SEED), "--output", out)
        calls.append(Call(f"prob[{j}]", argv, _check_prob(theta)))
    argv = ("baseline", "--samples", str(BASELINE_SAMPLES), "--seed", str(MONTE_CARLO_SEED), "--output", out)
    calls.append(Call("baseline", argv, _check_baseline))
    return Plan(lambda i: calls, min_cycles=5, trace_cycles=6)


PLANS = {"optimize": optimize_plan, "verify": verify_plan, "certify": certify_plan}
