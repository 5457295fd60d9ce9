"""Golden reports: the exit code and exact report text of fixed invocations.

``tests/golden/index.json`` records each case's argv and exit code, and the
numpy environment the reports were made in; ``tests/golden/<case>.txt``
holds the report text, byte for byte. ``tests/test_golden.py`` runs every
case in-process and compares. A change that moves a report value
regenerates the files, so the diff lists every move:

    PYTHONPATH=src python tests/golden_reports.py

While it regenerates, the script prints each report row whose value moved,
as case, metric, old -> new and |delta|, so a change can quote the list.
It also rewrites the state files under ``tests/golden/states/``
from fixed values and a seeded generator.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import io
import json
import math
import platform
from pathlib import Path

import numpy as np

from anticlone import cli

GOLDEN = Path(__file__).parent / "golden"
STATES = GOLDEN / "states"

_H = 0.7071067811865476  # 1/sqrt(2)


def _haar_states(count: int, seed: int) -> list:
    v = np.random.default_rng(seed).standard_normal((count, 4))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return [[[a, b], [c, d]] for a, b, c, d in v.tolist()]


# State files: name -> [[[re, im], [re, im]], ...]
STATE_SETS = {
    "pair": [[[1.0, 0.0], [0.0, 0.0]], [[0.6, 0.0], [0.0, 0.8]]],
    "haar16": _haar_states(16, seed=16),
    "real_trio": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], [[_H, 0.0], [_H, 0.0]]],
    # |0>, |1>, |+i>: X maps each state to its flip, so f_max = 1 at (0, 1).
    # |1> is orthogonal to |0>, so a phase gauge fixed against state 0 alone
    # leaves |1>'s phase free and gets 0
    "zero_one_plus_i": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]], [[_H, 0.0], [0.0, _H]]],
}


def _feasibility(states: str, L: int, M: int) -> list[str]:
    return ["feasibility", "--states", f"states/{states}.json", "--L", str(L), "--M", str(M)]


# case name -> argv; a state file path is relative to tests/golden
CASES = {
    "verify": ["verify", "--samples", "1000", "--seed", "0"],
    "verify_csv": ["verify", "--samples", "80", "--seed", "3", "--format", "csv"],
    "baseline": ["baseline", "--samples", "20000", "--seed", "5"],
    "prob_pi_third": ["prob", "--theta", "1.0471975512"],
    "prob_tiny_theta": ["prob", "--theta", "1e-6"],
    "prob_pi_half": ["prob", "--theta", repr(math.pi / 2)],
    "optimize": ["optimize", "--restarts", "2", "--seed", "0"],
    "optimize_spinflip": ["optimize", "--restarts", "2", "--seed", "0", "--spinflip"],
    # without an ancilla the ascent stays far below the optimum; exit 1. At
    # the default 100 iterations best_eta moves by up to 2.4e-9 with the BLAS
    # kernel and numpy's SIMD path, past the 1e-12 value check; three
    # iterations move it by under 2e-15
    "optimize_no_ancilla": ["optimize", "--restarts", "2", "--seed", "0", "--ancilla-dim", "1",
                            "--iters", "3"],
    "feasibility_pair": _feasibility("pair", 2, 1),
    "feasibility_haar16": _feasibility("haar16", 1, 1),
    "feasibility_real_trio": _feasibility("real_trio", 1, 0),
    "feasibility_zero_one_plus_i": _feasibility("zero_one_plus_i", 0, 1),
    "verify_no_samples": ["verify", "--samples", "0"],
}


# Report rows whose values come from a numpy Generator's random draws. NEP 19
# lets numpy change a Generator's streams between versions, so these rows
# need the recorded numpy version; on another version ``tests/test_golden.py``
# names them and compares every other row, and no bound is widened for them.
_DRAWN = {
    "verify's Haar input directions (Philox Generator.standard_normal)": (
        "max_universality_deviation_rho1",
        "max_universality_deviation_rho2",
        "max_fidelity_deviation",
        "max_bloch_opposition_deviation",
        "fidelity_stddev_across_inputs",
    ),
    "baseline's Monte Carlo t = n.m values and outcomes (PCG64DXSM Generator.random)": (
        "avg_fidelity_clone",
        "avg_fidelity_anticlone",
        "stderr",
        "anticlone_deviation_from_two_thirds",
        "anticlone_deviation_sigma",
    ),
    "prob's binomial success counts (Philox Generator.binomial)": (
        "shot_frequency_sigma_input1",
        "shot_frequency_sigma_input2",
    ),
    "optimize's random restart start points (Philox Generator.standard_normal)": (
        "best_eta",
        "best_eta_below_optimum",
        "best_eta_above_optimum",
        "best_flip_fidelity",
        "best_flip_fidelity_below_optimum",
        "best_flip_fidelity_above_optimum",
        "objective_bound_excess",
    ),
}
# metric name -> why its value needs the recorded numpy version
NEEDS_RECORDED_NUMPY = {metric: why for why, metrics in _DRAWN.items() for metric in metrics}


def _openblas_core() -> str:
    """The core type whose kernels numpy's bundled OpenBLAS runs: the one it
    detected at load time, or the one ``OPENBLAS_CORETYPE`` forces; "unknown"
    where numpy bundles no OpenBLAS that names it."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "openblas_get_corename"):
            corename = getattr(lib, symbol, None)
            if corename is not None:
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


def environment() -> dict:
    """What decides a report's last bits: the numpy version, its BLAS, the
    SIMD extensions numpy found on this CPU (they pick numpy's kernels) and
    the core type the BLAS picked its kernels for."""
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.25 has no mode="dicts"
        config = {}
    blas = config.get("Build Dependencies", {}).get("blas")
    blas = f"{blas.get('name')} {blas.get('version')}" if blas else "unknown"
    simd = config.get("SIMD Extensions", {}).get("found", [])
    return {
        "numpy": np.__version__,
        "blas": blas,
        "simd": sorted(simd),
        "openblas_core": _openblas_core(),
        "machine": platform.machine(),
    }


def resolved(argv: list[str]) -> list[str]:
    """``argv`` with its state file paths resolved against tests/golden."""
    return [str(GOLDEN / a) if a.startswith("states/") else a for a in argv]


def report_values(text: str, argv: list[str]) -> list[tuple[str, float]]:
    """(metric, value) of each row of a report written for ``argv``."""
    if not text:
        return []
    if "csv" in argv:
        rows = list(csv.reader(io.StringIO(text)))[1:]
        return [(name, float(value)) for name, value, _tolerance, _passed in rows]
    return [(m["metric"], float(m["value"])) for m in json.loads(text)["metrics"]]


def moved_rows(name: str, argv: list[str], old: str, new: str) -> list[str]:
    """One line per row of case ``name`` whose value differs between the
    report texts ``old`` and ``new``; a row only one of them has reads
    None on the other side."""
    before, after = dict(report_values(old, argv)), dict(report_values(new, argv))
    lines = []
    for metric in [*before, *(m for m in after if m not in before)]:
        was, now = before.get(metric), after.get(metric)
        if was == now:
            continue
        delta = abs(now - was) if was is not None and now is not None else None
        lines.append(f"{name}  {metric}  {was!r} -> {now!r}  |delta| {delta!r}")
    return lines


def run_case(argv: list[str]) -> tuple[int, str]:
    """(exit code, report text) of one invocation of ``anticlone.cli.main``,
    run in-process with state file paths resolved against tests/golden."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(resolved(argv))
    return code, out.getvalue()


def regenerate() -> None:
    STATES.mkdir(parents=True, exist_ok=True)
    for name, states in STATE_SETS.items():
        (STATES / f"{name}.json").write_text(json.dumps({"states": states}) + "\n")
    index = {"environment": environment(), "cases": []}
    moved = []
    for name, argv in CASES.items():
        code, text = run_case(argv)
        path = GOLDEN / f"{name}.txt"
        old = path.read_text(encoding="utf-8") if path.exists() else ""
        moved += moved_rows(name, argv, old, text)
        path.write_text(text, encoding="utf-8")
        index["cases"].append({"name": name, "argv": argv, "exit_code": code})
    (GOLDEN / "index.json").write_text(json.dumps(index, indent=2) + "\n")
    print("\n".join(moved) if moved else "no report value moved")


if __name__ == "__main__":
    # no options: --help prints usage and any argument exits 2, before a write
    argparse.ArgumentParser(description=__doc__,
                            formatter_class=argparse.RawDescriptionHelpFormatter).parse_args()
    regenerate()
