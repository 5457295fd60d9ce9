"""Tests of the benchmark's own machinery: span arithmetic, patching by module
attribute, and agreement between BENCHMARK.json and the code.

    python3 -m pytest -q perfbench
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from anticlone import machine, qubit  # noqa: E402
from layers import metric_specs  # noqa: E402
from tracer import Layer, Tracer, check_nesting, has_ancestor, patched, root_time, self_times  # noqa: E402
from workloads import PLANS, WHY  # noqa: E402


def test_self_time_subtracts_direct_children_of_nested_spans():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 9.0, 0],
        ["a", 20.0, 22.0, -1],
    ]
    check_nesting(spans)
    assert self_times(spans) == {"a": (2, 5.0), "b": (2, 6.0), "c": (1, 1.0)}
    assert root_time(spans) == 12.0
    # self times and the gaps between roots add up to the wall time
    wall = 22.0
    assert sum(t for _, t in self_times(spans).values()) + (wall - root_time(spans)) == wall
    assert has_ancestor(spans, 2, "a") and not has_ancestor(spans, 0, "a")


def test_check_nesting_rejects_a_child_outside_its_parent():
    with pytest.raises(AssertionError):
        check_nesting([["a", 0.0, 1.0, -1], ["b", 0.5, 1.5, 0]])


def test_patched_check_density_matrix_sees_calls_through_anticlone():
    original = qubit.check_density_matrix
    tracer = Tracer()
    layers = [
        Layer("machine", "anticlone", "machine.anticlone"),
        Layer("qubit", "check_density_matrix", "qubit.check_density_matrix"),
    ]
    v = machine.build_isometry(machine.optimal_params())
    psi = qubit.bloch_to_state(qubit.BlochVector(0.0, 0.6, 0.8))
    with patched(tracer, layers) as (bindings, missing):
        out = machine.anticlone(psi, v)
    assert missing == []
    assert "anticlone.machine.anticlone" in bindings
    assert qubit.check_density_matrix is original
    assert abs(out.f1 - 2.0 / 3.0) < 1e-12
    inner = [i for i, s in enumerate(tracer.spans) if s[0] == "qubit.check_density_matrix"]
    # state_to_bloch on the input, fidelity_direction on each clone
    assert len(inner) == 3
    assert all(has_ancestor(tracer.spans, i, "machine.anticlone") for i in inner)


def test_missing_layer_is_skipped_and_reported():
    tracer = Tracer()
    layers = [
        Layer("qubit", "no_such_function", "qubit.no_such_function"),
        Layer("qubit", "bloch_to_state", "qubit.bloch_to_state"),
    ]
    with patched(tracer, layers) as (bindings, missing):
        qubit.bloch_to_state(qubit.BlochVector(0.0, 0.0, 1.0))
    assert missing == ["qubit.no_such_function"]
    assert "anticlone.qubit.bloch_to_state" in bindings
    assert [s[0] for s in tracer.spans] == ["qubit.bloch_to_state"]


def test_exceptions_pass_through_unchanged():
    tracer = Tracer()
    layers = [Layer("qubit", "check_density_matrix", "qubit.check_density_matrix")]
    with patched(tracer, layers):
        with pytest.raises(ValueError, match="unit trace"):
            qubit.check_density_matrix(np.eye(2))
    check_nesting(tracer.spans)
    assert len(tracer.spans) == 1


def test_same_seed_gives_the_same_inputs(tmp_path):
    for name, make in PLANS.items():
        runs = []
        for sub in ("a", "b"):
            workdir = tmp_path / f"{name}-{sub}"
            workdir.mkdir()
            plan = make(7, str(workdir))
            argv = [c.argv for i in range(2) for c in plan.cycle(i)]
            files = sorted((p.name, p.read_bytes()) for p in workdir.iterdir())
            runs.append(([tuple(a.replace(str(workdir), "") for a in v) for v in argv], files))
        assert runs[0] == runs[1], name


def test_benchmark_json_matches_the_code():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert set(WHY) == set(PLANS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == metric_specs()
