"""Command-line verification campaigns.

Five subcommands, one per campaign:

* ``verify``      exactness and universality of the optimal anti-cloner
* ``optimize``    numerical re-derivation of the optimal eta (or flip F)
* ``prob``        explicit two-state probabilistic anti-cloner checks
* ``feasibility`` Gram feasibility of an arbitrary state set from a file
* ``baseline``    measure-and-prepare fidelity: exact, and by Monte Carlo

Every campaign emits a report whose metrics each carry the tolerance they
were judged against. Exit code 0 means every check passed, 1 means some
verification failed, 2 means bad input or usage. Reports are byte-identical
for identical arguments and seed.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import machine, optimize, probclone
from .qubit import PAULI, QubitState, antiunitary_flip, direction_kets

__all__ = ["RunConfig", "MetricCheck", "Report", "parse_args", "run", "write_report", "main"]

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2


@dataclass(frozen=True)
class RunConfig:
    """Validated arguments of one campaign invocation."""

    subcommand: str
    seed: int = 0
    output: str | None = None
    format: str = "json"
    samples: int | None = None
    shots: int | None = None
    restarts: int | None = None
    iters: int | None = None
    ancilla_dim: int | None = None
    spinflip: bool = False
    theta: float | None = None
    copies_aligned: int | None = None
    copies_flipped: int | None = None
    states_path: str | None = None
    tol: float | None = None


@dataclass(frozen=True)
class MetricCheck:
    """One judged quantity. ``tolerance`` is None for informational values;
    otherwise the check passed iff value <= tolerance."""

    name: str
    value: float
    tolerance: float | None = None

    @property
    def passed(self) -> bool | None:
        if self.tolerance is None:
            return None
        return bool(self.value <= self.tolerance)


@dataclass(frozen=True)
class Report:
    """Campaign outcome: echoed inputs, judged metrics, wall-clock duration.

    ``duration_seconds`` is runtime metadata and stays out of the serialized
    bytes so that identical configurations produce identical reports.
    """

    subcommand: str
    parameters: dict
    metrics: list[MetricCheck]
    duration_seconds: float

    @property
    def all_pass(self) -> bool:
        return all(m.passed is not False for m in self.metrics)


def _jsonify(value):
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    return value


def report_payload(report: Report) -> dict:
    """Serializable view of a report, stable key order, no volatile fields."""
    return {
        "subcommand": report.subcommand,
        "parameters": _jsonify(report.parameters),
        "metrics": [
            {
                "metric": m.name,
                "value": _jsonify(m.value),
                "tolerance": _jsonify(m.tolerance),
                "pass": m.passed,
            }
            for m in report.metrics
        ],
        "all_pass": report.all_pass,
    }


def write_report(report: Report, fmt: str, path: str | None) -> None:
    """Emit the report as JSON or CSV to ``path`` (or standard output)."""
    if fmt == "json":
        text = json.dumps(report_payload(report), indent=2) + "\n"
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["metric", "value", "tolerance", "pass"])
        for m in report.metrics:
            writer.writerow([
                m.name,
                repr(float(m.value)),
                "" if m.tolerance is None else repr(float(m.tolerance)),
                "" if m.passed is None else str(m.passed).lower(),
            ])
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def load_state_file(path: str) -> list[QubitState]:
    """Read {"states": [[[re,im],[re,im]], ...]} into qubit states.

    Norm deviations up to 1e-8 are silently renormalized; anything worse is
    rejected as a bad input file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "states" not in data:
        raise ValueError(f"{path}: expected a JSON object with a 'states' key")
    states = []
    for i, entry in enumerate(data["states"]):
        try:
            (ar, ai), (br, bi) = entry
            alpha = complex(float(ar), float(ai))
            beta = complex(float(br), float(bi))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: state {i} is not a pair of [re, im] pairs") from exc
        norm = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        if not abs(norm - 1.0) <= 1e-8:  # also rejects NaN
            raise ValueError(f"{path}: state {i} has norm {norm!r}, outside tolerance 1e-8")
        states.append(QubitState(alpha / norm, beta / norm))
    if not states:
        raise ValueError(f"{path}: state list is empty")
    return states


def parse_args(argv) -> RunConfig:
    """Parse and validate one campaign invocation; exits with code 2 on bad
    usage (argparse convention)."""
    parser = argparse.ArgumentParser(
        prog="anticlone",
        description="Verification campaigns for universal and probabilistic quantum anti-cloning.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    common.add_argument("--output", type=str, default=None, help="report file (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json", help="report format")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", parents=[common], help="optimal anti-cloner exactness suite")
    p.add_argument("--samples", type=int, default=1000, help="random input directions")
    p.add_argument("--tol", type=float, default=1e-9, help="universality tolerance")

    p = sub.add_parser("optimize", parents=[common], help="re-derive the optimal fidelity numerically")
    p.add_argument("--restarts", type=int, default=20)
    p.add_argument("--iters", type=int, default=optimize.OptimizerConfig.max_iters)
    p.add_argument("--ancilla-dim", type=int, choices=(1, 2, 4), default=4)
    p.add_argument("--spinflip", action="store_true", help="optimize the flip channel instead")

    p = sub.add_parser("prob", parents=[common], help="two-state probabilistic anti-cloner checks")
    p.add_argument("--theta", type=float, required=True, help="angle between the two states (radians)")
    p.add_argument("--shots", type=int, default=100000)

    p = sub.add_parser("feasibility", parents=[common], help="Gram feasibility of a state set")
    p.add_argument("--states", type=_existing_file, required=True, help="JSON state-list file")
    p.add_argument("--L", type=int, default=1, help="aligned copies")
    p.add_argument("--M", type=int, default=1, help="anti-aligned copies")

    p = sub.add_parser("baseline", parents=[common], help="measure-and-prepare Monte Carlo")
    p.add_argument("--samples", type=int, default=1000000)

    ns = parser.parse_args(list(argv))
    return RunConfig(
        subcommand=ns.subcommand,
        seed=ns.seed,
        output=ns.output,
        format=ns.format,
        samples=getattr(ns, "samples", None),
        shots=getattr(ns, "shots", None),
        restarts=getattr(ns, "restarts", None),
        iters=getattr(ns, "iters", None),
        ancilla_dim=getattr(ns, "ancilla_dim", None),
        spinflip=getattr(ns, "spinflip", False),
        theta=getattr(ns, "theta", None),
        copies_aligned=getattr(ns, "L", None),
        copies_flipped=getattr(ns, "M", None),
        states_path=getattr(ns, "states", None),
        tol=getattr(ns, "tol", None),
    )


def _existing_file(path: str) -> str:
    import os

    if not os.path.isfile(path):
        raise argparse.ArgumentTypeError(f"file not found: {path}")
    return path


def _campaign_verify(cfg: RunConfig) -> tuple[dict, list[MetricCheck]]:
    tol = cfg.tol if cfg.tol is not None else 1e-9
    # NaN fails every comparison and inf passes every check: neither tests anything
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    params = machine.optimal_params()
    v = machine.build_isometry(params)
    dirs = machine.haar_directions(cfg.samples, seed=cfg.seed)

    outs = [machine.anticlone(QubitState(*k), v) for k in direction_kets(dirs)]
    rho1, rho2 = np.array([out.rho1 for out in outs]), np.array([out.rho2 for out in outs])
    fidelities = np.array([(out.f1, out.f2) for out in outs])
    t1, t2 = machine.target_forms(dirs, machine.OPTIMAL_ETA)
    bloch_sum = np.einsum("nab,kba->nk", rho1 + rho2, np.array(PAULI)).real

    report = machine.constraint_residuals(params)
    metrics = [
        MetricCheck("max_universality_deviation_rho1", float(np.max(np.abs(rho1 - t1))), tol),
        MetricCheck("max_universality_deviation_rho2", float(np.max(np.abs(rho2 - t2))), tol),
        MetricCheck(
            "max_fidelity_deviation",
            float(np.max(np.abs(fidelities - machine.OPTIMAL_FIDELITY))),
            tol,
        ),
        MetricCheck("max_bloch_opposition_deviation", float(np.max(np.abs(bloch_sum))), 1e-10),
        MetricCheck("fidelity_stddev_across_inputs", float(np.std(fidelities[:, 0])), 1e-10),
        MetricCheck("max_constraint_residual", report.max_residual, 1e-12),
        MetricCheck(
            "isometry_residual",
            float(np.max(np.abs(v.conj().T @ v - np.eye(2)))),
            1e-12,
        ),
    ]
    return {"samples": cfg.samples, "seed": cfg.seed, "tol": tol}, metrics


def _campaign_optimize(cfg: RunConfig) -> tuple[dict, list[MetricCheck]]:
    ocfg = optimize.OptimizerConfig(
        restarts=cfg.restarts,
        max_iters=cfg.iters,
        seed=cfg.seed,
        ancilla_dim=cfg.ancilla_dim,
    )
    target = 2.0 / 3.0
    if cfg.spinflip:
        res = optimize.optimize_spinflip(ocfg)
        headline = res.best_fidelity
        label = "best_flip_fidelity"
    else:
        res = optimize.optimize_universal(ocfg)
        headline = res.best_eta
        target = 1.0 / 3.0
        label = "best_eta"
    metrics = [
        MetricCheck(label, headline),
        MetricCheck(f"{label}_below_optimum", target - headline, 1e-3),
        MetricCheck(f"{label}_above_optimum", headline - target, 1e-6),
        MetricCheck("objective_bound_excess", res.max_objective_seen - 2.0 / 3.0, 1e-6),
    ]
    params = {
        "restarts": cfg.restarts,
        "iters": cfg.iters,
        "ancilla_dim": cfg.ancilla_dim,
        "spinflip": cfg.spinflip,
        "seed": cfg.seed,
    }
    return params, metrics


def _campaign_prob(cfg: RunConfig) -> tuple[dict, list[MetricCheck]]:
    if cfg.shots < 0:
        raise ValueError(f"shots must be >= 0, got {cfg.shots}")
    pc = probclone.build_two_state_anticloner(cfg.theta)
    metrics = [
        MetricCheck("efficiency", pc.f),
        MetricCheck(
            "unitarity_residual",
            float(np.max(np.abs(pc.u.conj().T @ pc.u - np.eye(8)))),
            1e-12,
        ),
    ]
    sigma = np.sqrt(max(pc.f * (1.0 - pc.f), 1e-300) / max(cfg.shots, 1))
    for which in (1, 2):
        exact = probclone.run_prob_anticlone(pc, which, shots=0, seed=cfg.seed)
        metrics.append(
            MetricCheck(
                f"success_probability_deviation_input{which}",
                abs(exact.success_probability - pc.f),
                1e-12,
            )
        )
        metrics.append(
            MetricCheck(
                f"postselected_infidelity_input{which}",
                abs(exact.post_selected_fidelity - 1.0),
                1e-12,
            )
        )
        if cfg.shots > 0:
            stats = probclone.run_prob_anticlone(pc, which, shots=cfg.shots, seed=cfg.seed)
            freq = stats.successes / stats.shots
            z = abs(freq - pc.f) / sigma if sigma > 0 else 0.0
            metrics.append(MetricCheck(f"shot_frequency_sigma_input{which}", z, 3.0))
    return {"theta": cfg.theta, "shots": cfg.shots, "seed": cfg.seed}, metrics


def _campaign_feasibility(cfg: RunConfig) -> tuple[dict, list[MetricCheck]]:
    states = load_state_file(cfg.states_path)
    state_set = probclone.StateSet(states)
    mu = probclone.CopySpec(cfg.copies_aligned, cfg.copies_flipped)
    res = probclone.max_feasible_f(state_set, mu)

    dependent = res.rank < len(states)
    # State j repeats an earlier state i up to a phase when |<flip(i)|j>|, which
    # is sqrt(1 - |<i|j>|^2) without the cancellation, is rounding-level.
    flips = [antiunitary_flip(s).ket() for s in states]
    distinct = sum(
        all(abs(np.vdot(flips[i], states[j].ket())) > probclone.RANK_TOL for i in range(j))
        for j in range(len(states))
    )
    metrics = [
        MetricCheck("f_max", res.f_max),
        MetricCheck("certificate_negativity", -res.min_eigenvalue_at_f, 1e-9),
    ]
    if res.f_max < 1.0 - 1e-12:
        shifted = res.gram_G - (res.f_max + 1e-6) * res.gram_H
        metrics.append(
            MetricCheck("binding_margin", float(np.linalg.eigvalsh(shifted)[0]), 0.0)
        )
    # Three distinct qubit states are always dependent, and only then is f = 0
    # forced; repeats of one or two states keep the f of the distinct ones.
    if distinct > 2:
        metrics.append(MetricCheck("dependent_set_f_max", res.f_max, 1e-9))
    elif len(states) == distinct == 2:
        c = abs(np.vdot(states[0].ket(), states[1].ket()))
        closed = probclone.two_state_efficiency(c, mu.L, mu.M)
        metrics.append(MetricCheck("closed_form_deviation", abs(res.f_max - closed), 1e-9))
    params = {
        "states": [[s.alpha, s.beta] for s in states],
        "L": mu.L,
        "M": mu.M,
        "dependent": dependent,
        "seed": cfg.seed,
    }
    return params, metrics


# A fixed measurement axis off every coordinate axis, exactly unit in reals.
_BASELINE_AXIS = np.array([1.0, 2.0, 2.0]) / 3.0


def _campaign_baseline(cfg: RunConfig) -> tuple[dict, list[MetricCheck]]:
    rep = machine.measure_prepare_baseline(cfg.samples, seed=cfg.seed)
    dev = abs(rep.avg_fidelity_anticlone - 2.0 / 3.0)
    exact = machine.measure_prepare_pole_average(_BASELINE_AXIS)
    metrics = [
        MetricCheck("exact_measure_prepare_deviation", abs(exact - 2.0 / 3.0), 1e-15),
        MetricCheck("avg_fidelity_clone", rep.avg_fidelity_clone),
        MetricCheck("avg_fidelity_anticlone", rep.avg_fidelity_anticlone),
        MetricCheck("stderr", rep.stderr),
        MetricCheck("anticlone_deviation_from_two_thirds", dev, 0.002),
        MetricCheck("anticlone_deviation_sigma", dev / rep.stderr if rep.stderr > 0 else 0.0, 3.0),
    ]
    return {"samples": cfg.samples, "seed": cfg.seed}, metrics


_CAMPAIGNS = {
    "verify": _campaign_verify,
    "optimize": _campaign_optimize,
    "prob": _campaign_prob,
    "feasibility": _campaign_feasibility,
    "baseline": _campaign_baseline,
}


def run(cfg: RunConfig) -> tuple[Report, int]:
    """Execute one campaign. Returns the report and the process exit code."""
    start = time.perf_counter()
    try:
        parameters, metrics = _CAMPAIGNS[cfg.subcommand](cfg)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"anticlone {cfg.subcommand}: {exc}", file=sys.stderr)
        empty = Report(cfg.subcommand, {}, [], time.perf_counter() - start)
        return empty, EXIT_INPUT_ERROR
    report = Report(
        subcommand=cfg.subcommand,
        parameters=parameters,
        metrics=metrics,
        duration_seconds=time.perf_counter() - start,
    )
    return report, EXIT_OK if report.all_pass else EXIT_VERIFICATION_FAILED


def main(argv=None) -> int:
    cfg = parse_args(sys.argv[1:] if argv is None else argv)
    report, code = run(cfg)
    if code != EXIT_INPUT_ERROR:
        try:
            write_report(report, cfg.format, cfg.output)
        except OSError as exc:
            print(f"anticlone: cannot write report: {exc}", file=sys.stderr)
            return EXIT_INPUT_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
