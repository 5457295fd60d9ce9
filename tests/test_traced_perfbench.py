"""The traced benchmark runs produce correct outputs and trace every layer.

``perfbench/run.py`` exits 0 even when a campaign's output fails its check,
so each workload's traced run (``--seed 1 --trace 1``) is judged by what it
prints: ``correct`` on its last line, and its list of missing layers, so a
renamed traced layer fails too. That list must be exactly
``conftest.DELETED_LAYERS``, the functions that ``perfbench/layers.py``
names but ``src/`` no longer has, so a deleted function that comes back
fails too.

For optimize, every evaluate call must also pass the projection, the
softmin and a values layer once each: the three per-restart counts must be
equal and non-zero, so a step that bypasses a traced layer fails although
no layer is missing. A call scores one point, a stage start or a
line-search trial, which the values layers receive as a stack of one
isometry, so their rows must equal their calls.

For verify, every direction scored must still pass three density-matrix
checks: its input state and its two clones.

Each run is a fresh interpreter, run once per workload and shared by the
tests that read it.
"""

import json
import subprocess
import sys
from functools import cache
from pathlib import Path

import pytest

from conftest import DELETED_LAYERS

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import VERIFY_SAMPLES  # noqa: E402

WORKLOADS = ["optimize", "verify", "certify"]


@cache
def traced_run(workload: str) -> tuple[dict, list[str]]:
    """The last line of the workload's traced run, and its missing layers."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    (missing,) = [json.loads(line)["missing_layers"] for line in lines if '"missing_layers"' in line]
    return json.loads(lines[-1]), missing


def metric(workload: str, name: str):
    return traced_run(workload)[0]["metrics"][name]["value"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_are_correct(workload):
    assert traced_run(workload)[0]["correct"] is True


@pytest.mark.parametrize("workload", WORKLOADS)
def test_missing_layers_are_exactly_the_deleted_ones(workload):
    assert sorted(traced_run(workload)[1]) == DELETED_LAYERS


def test_every_optimize_call_passes_each_traced_layer_once():
    counts = {metric("optimize", f"optimize.{layer}.evals_per_restart")
              for layer in ("_isometry_batch", "_softmin", "ascent")}
    assert len(counts) == 1 and 0 not in counts, counts


def test_optimize_values_layer_rows_equal_calls():
    calls, rows = (
        sum(metric("optimize", f"optimize.{layer}.{n}")
            for layer in ("_universal_values", "_spinflip_values"))
        for n in ("calls", "rows")
    )
    assert 0 < calls == rows, (calls, rows)


def test_verify_checks_three_density_matrices_per_direction():
    directions = VERIFY_SAMPLES * metric("verify", "cli.run.calls")
    assert metric("verify", "qubit.check_density_matrix.calls") == 3 * directions > 0
