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
for identical arguments and seed. After the report, ``main`` writes to
standard error one line per failed check, as ``anticlone <subcommand>: FAIL
<metric> = <value> > <tolerance>``, then the campaign's wall time, as
``anticlone <subcommand>: <seconds> s``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import stat
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import machine, optimize, probclone
from .linalg import isometry_residual
from .qubit import PAULI, QubitState, direction_kets, squared_norm

__all__ = ["MetricCheck", "Report", "parse_args", "run", "write_report", "main"]

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2

# The tolerance of verify's three universality rows: the optimal machine
# meets them to rounding, so no caller may widen them.
_UNIVERSALITY_TOL = 1e-9


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


def report_payload(report: Report) -> dict:
    """Serializable view of a report, stable key order, no volatile fields.

    The campaigns hand over only values ``json`` writes as they are."""
    return {
        "subcommand": report.subcommand,
        "parameters": report.parameters,
        "metrics": [
            {
                "metric": m.name,
                "value": m.value,
                "tolerance": m.tolerance,
                "pass": m.passed,
            }
            for m in report.metrics
        ],
        "all_pass": report.all_pass,
    }


def write_report(report: Report, fmt: str, path: str | None) -> None:
    """Emit the report as JSON or CSV to ``path`` (or standard output).

    A report file is written in place, and a regular file is then cut to
    the report's length. Crash caveat: after a power loss an overwritten
    report may still hold an older, complete report, or a mix of old and new
    text.
    """
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
        return
    with open(path, "w", encoding="utf-8", opener=_open_untruncated) as fh:
        old = os.fstat(fh.fileno())
        fh.write(text)
        # a new or empty file has no tail to cut; a non-regular target, such
        # as /dev/null (seekable, but truncating it fails with EINVAL), is
        # never cut, even where it reports a size
        if old.st_size and stat.S_ISREG(old.st_mode):
            fh.truncate()


def _open_untruncated(path: str, flags: int) -> int:
    """``open`` opener: the flags of mode "w" less ``O_TRUNC``, and the
    creation mode 0o666 that ``open`` itself uses."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def load_state_file(path: str) -> list[QubitState]:
    """Read {"states": [[[re,im],[re,im]], ...]} into qubit states.

    Every re and im must be a JSON number within float range; booleans,
    strings, null, nested lists and integers too large for a float are
    rejected. Norm deviations up to 1e-8 are silently renormalized; anything
    worse is rejected as a bad input file.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError as exc:
            raise ValueError(f"{path}: JSON nested too deeply to read") from exc
    if not isinstance(data, dict) or not isinstance(data.get("states"), list):
        raise ValueError(f"{path}: expected a JSON object with a 'states' list")
    states = []
    for i, entry in enumerate(data["states"]):
        try:
            (ar, ai), (br, bi) = entry
            # json.load gives exactly int or float for a number; bool is an
            # int subclass, so an isinstance test would let true through
            if not all(type(x) in (int, float) for x in (ar, ai, br, bi)):
                raise TypeError("amplitude parts must be JSON numbers")
            alpha = complex(float(ar), float(ai))
            beta = complex(float(br), float(bi))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(
                f"{path}: state {i} is not a pair of [re, im] pairs of numbers in float range"
            ) from exc
        norm = np.sqrt(squared_norm(alpha, beta))
        if not abs(norm - 1.0) <= 1e-8:  # also rejects NaN and overflow
            raise ValueError(f"{path}: state {i} has norm {float(norm)!r}, outside tolerance 1e-8")
        states.append(QubitState(alpha / norm, beta / norm))
    if not states:
        raise ValueError(f"{path}: state list is empty")
    return states


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The campaign parser, built on first use and shared by every later
    ``parse_args`` call in the process."""
    parser = argparse.ArgumentParser(
        prog="anticlone",
        description="Verification campaigns for universal and probabilistic quantum anti-cloning.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", type=str, default=None, help="report file (default stdout)")
    common.add_argument("--format", choices=("json", "csv"), default="json", help="report format")

    # every campaign but feasibility, which draws nothing random
    seeded = argparse.ArgumentParser(add_help=False, parents=[common])
    seeded.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")

    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("verify", parents=[seeded], help="optimal anti-cloner exactness suite")
    p.add_argument("--samples", type=int, default=1000, help="random input directions")

    p = sub.add_parser("optimize", parents=[seeded], help="re-derive the optimal fidelity numerically")
    p.add_argument("--restarts", type=int, default=optimize.OptimizerConfig.restarts)
    p.add_argument("--iters", type=int, default=optimize.OptimizerConfig.max_iters)
    p.add_argument(
        "--ancilla-dim", type=int, choices=(1, 2, 4), default=optimize.OptimizerConfig.ancilla_dim
    )
    p.add_argument("--spinflip", action="store_true", help="optimize the flip channel instead")

    p = sub.add_parser("prob", parents=[seeded], help="two-state probabilistic anti-cloner checks")
    p.add_argument("--theta", type=float, required=True, help="angle between the two states (radians)")
    p.add_argument("--shots", type=int, default=100000)

    p = sub.add_parser("feasibility", parents=[common], help="Gram feasibility of a state set")
    p.add_argument("--states", required=True, help="JSON state-list file")
    p.add_argument("--L", type=int, default=1, help="aligned copies")
    p.add_argument("--M", type=int, default=1, help="anti-aligned copies")

    p = sub.add_parser("baseline", parents=[seeded], help="measure-and-prepare Monte Carlo")
    p.add_argument("--samples", type=int, default=1000000)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """Parse and validate one campaign invocation; exits with code 2 on bad
    usage (argparse convention)."""
    return _parser().parse_args(list(argv))


def _campaign_verify(cfg: argparse.Namespace) -> tuple[dict, list[MetricCheck]]:
    tol = _UNIVERSALITY_TOL
    blocks = machine.optimal_params()
    v = machine.build_isometry(blocks)
    dirs = machine.haar_directions(cfg.samples, seed=cfg.seed)

    outs = machine.anticlone_all([QubitState(*k) for k in direction_kets(dirs)], v)
    rho1, rho2 = np.array([out.rho1 for out in outs]), np.array([out.rho2 for out in outs])
    fidelities = np.array([(out.f1, out.f2) for out in outs])
    t1, t2 = machine.target_forms(dirs, machine.OPTIMAL_ETA)
    bloch_sum = np.einsum("nab,kba->nk", rho1 + rho2, np.array(PAULI)).real

    report = machine.constraint_residuals(blocks)
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
        MetricCheck("isometry_residual", isometry_residual(v), 1e-12),
    ]
    return {"samples": cfg.samples, "seed": cfg.seed}, metrics


def _campaign_optimize(cfg: argparse.Namespace) -> tuple[dict, list[MetricCheck]]:
    ocfg = optimize.OptimizerConfig(
        restarts=cfg.restarts,
        max_iters=cfg.iters,
        seed=cfg.seed,
        ancilla_dim=cfg.ancilla_dim,
    )
    target = machine.OPTIMAL_FIDELITY
    if cfg.spinflip:
        res = optimize.optimize_spinflip(ocfg)
        headline = res.best_fidelity
        label = "best_flip_fidelity"
    else:
        res = optimize.optimize_universal(ocfg)
        headline = res.best_eta
        target = machine.OPTIMAL_ETA
        label = "best_eta"
    metrics = [
        MetricCheck(label, headline),
        MetricCheck(f"{label}_below_optimum", target - headline, 1e-3),
        MetricCheck(f"{label}_above_optimum", headline - target, 1e-6),
        MetricCheck(
            "objective_bound_excess", res.max_objective_seen - machine.OPTIMAL_FIDELITY, 1e-6
        ),
    ]
    params = {
        "restarts": cfg.restarts,
        "iters": cfg.iters,
        "ancilla_dim": cfg.ancilla_dim,
        "spinflip": cfg.spinflip,
        "seed": cfg.seed,
    }
    return params, metrics


def _campaign_prob(cfg: argparse.Namespace) -> tuple[dict, list[MetricCheck]]:
    pc = probclone.build_two_state_anticloner(cfg.theta)
    metrics = [
        MetricCheck("efficiency", pc.f),
        MetricCheck("unitarity_residual", isometry_residual(pc.u), 1e-12),
    ]
    sigma = np.sqrt(max(pc.f * (1.0 - pc.f), 1e-300) / max(cfg.shots, 1))
    for which in (1, 2):
        stats = probclone.run_prob_anticlone(pc, which, shots=cfg.shots, seed=cfg.seed)
        metrics.append(
            MetricCheck(
                f"success_probability_deviation_input{which}",
                abs(stats.success_probability - pc.f),
                1e-12,
            )
        )
        metrics.append(
            MetricCheck(
                f"postselected_infidelity_input{which}",
                abs(stats.post_selected_fidelity - 1.0),
                1e-12,
            )
        )
        if cfg.shots > 0:
            z = abs(stats.successes / stats.shots - pc.f) / sigma
            metrics.append(MetricCheck(f"shot_frequency_sigma_input{which}", z, 3.0))
    return {"theta": cfg.theta, "shots": cfg.shots, "seed": cfg.seed}, metrics


def _campaign_feasibility(cfg: argparse.Namespace) -> tuple[dict, list[MetricCheck]]:
    states = load_state_file(cfg.states)
    mu = probclone.CopySpec(cfg.L, cfg.M)
    res = probclone.max_feasible_f(states, mu)

    metrics = [
        MetricCheck("f_max", res.f_max),
        MetricCheck("certificate_negativity", -res.min_eigenvalue_at_f, 1e-9),
    ]
    if res.f_max < 1.0 - 1e-12:
        shifted = res.gram_G - (res.f_max + 1e-6) * res.gram_H
        metrics.append(
            MetricCheck("binding_margin", float(np.linalg.eigvalsh(shifted)[0]), 0.0)
        )
    # Three distinct qubit states are always dependent. They clone with
    # certainty when a unitary maps each to its target up to a phase
    # (possible only at L + M = 1), and never otherwise; repeats of one or
    # two states keep the f of the distinct ones.
    if res.distinct > 2 and res.phase_equivalent:
        metrics.append(MetricCheck("dependent_set_f_max_deficit", 1.0 - res.f_max, 1e-9))
    elif res.distinct > 2:
        metrics.append(MetricCheck("dependent_set_f_max", res.f_max, 1e-9))
    elif len(states) == res.distinct == 2:
        c = abs(np.vdot(states[0].ket(), states[1].ket()))
        closed = probclone.two_state_efficiency(c, mu.L, mu.M)
        metrics.append(MetricCheck("closed_form_deviation", abs(res.f_max - closed), 1e-9))
    params = {
        "states": [[[s.alpha.real, s.alpha.imag], [s.beta.real, s.beta.imag]] for s in states],
        "L": mu.L,
        "M": mu.M,
        "dependent": res.rank < len(states),
    }
    return params, metrics


# A fixed measurement axis off every coordinate axis, exactly unit in reals.
_BASELINE_AXIS = np.array([1.0, 2.0, 2.0]) / 3.0


def _campaign_baseline(cfg: argparse.Namespace) -> tuple[dict, list[MetricCheck]]:
    rep = machine.measure_prepare_baseline(cfg.samples, seed=cfg.seed)
    dev = abs(rep.avg_fidelity_anticlone - machine.OPTIMAL_FIDELITY)
    exact = machine.measure_prepare_pole_average(_BASELINE_AXIS)
    metrics = [
        MetricCheck(
            "exact_measure_prepare_deviation", abs(exact - machine.OPTIMAL_FIDELITY), 1e-15
        ),
        # both outputs score |g - u| sample for sample, so one mean fills both rows
        MetricCheck("avg_fidelity_clone", rep.avg_fidelity_anticlone),
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


def run(cfg: argparse.Namespace) -> tuple[Report, int]:
    """Execute one campaign. Returns the report and the process exit code."""
    start = time.perf_counter()
    try:
        parameters, metrics = _CAMPAIGNS[cfg.subcommand](cfg)
    except (ValueError, OSError) as exc:
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
        # failures and the duration stay out of the report, so reports stay
        # byte-identical
        for m in report.metrics:
            if m.passed is False:
                print(
                    f"anticlone {cfg.subcommand}: FAIL {m.name} = {float(m.value)!r}"
                    f" > {float(m.tolerance)!r}",
                    file=sys.stderr,
                )
        print(f"anticlone {cfg.subcommand}: {report.duration_seconds:.4g} s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
