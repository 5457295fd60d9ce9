"""Every golden invocation still exits and reports as recorded.

The judged structure (exit code, parameters, metric names and order,
tolerances, pass flags) must always match. Every value must lie within
``VALUE_BOUND`` of its recorded value in any environment: another numpy,
BLAS or CPU moves only the last bits (at most 4.1e-15 across the SIMD and
BLAS dispatch settings measured), far below any metric tolerance. A row
drawn from a random stream needs the recorded numpy version
(``golden_reports.NEEDS_RECORDED_NUMPY``). The report bytes must match
where the environment equals the recorded one.
"""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from golden_reports import (CASES, GOLDEN, NEEDS_RECORDED_NUMPY, environment, moved_rows,
                            report_values, run_case)

INDEX = json.loads((GOLDEN / "index.json").read_text())
RECORDED = {case["name"]: case for case in INDEX["cases"]}
VALUE_BOUND = 1e-12  # absolute; ~240x the largest spread measured (4.1e-15)


def _judged(text: str, argv: list[str]):
    """The report without its metric values."""
    if not text:
        return None
    if "csv" in argv:
        rows = list(csv.reader(io.StringIO(text)))
        return [[name, tolerance, passed] for name, _value, tolerance, passed in rows]
    payload = json.loads(text)
    for m in payload["metrics"]:
        del m["value"]
    return payload


@pytest.fixture(scope="module")
def outcomes():
    return {name: run_case(case["argv"]) for name, case in RECORDED.items()}


def test_a_forced_openblas_core_is_another_environment():
    # OPENBLAS_CORETYPE=Sandybridge runs other BLAS kernels, which move the
    # last bits of 8 reports: the byte check must not take that for the
    # recorded environment
    tests = Path(__file__).resolve().parent
    src = tests.parent / "src"
    code = "import json, golden_reports; print(json.dumps(golden_reports.environment()))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)]),
           "OPENBLAS_CORETYPE": "Sandybridge"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    forced = json.loads(out.stdout)
    assert forced != INDEX["environment"], forced


def test_index_lists_every_case_with_its_argv():
    assert {name: case["argv"] for name, case in RECORDED.items()} == CASES


@pytest.mark.parametrize("name", list(RECORDED))
def test_exit_code_and_judged_structure(name, outcomes):
    case = RECORDED[name]
    code, text = outcomes[name]
    assert code == case["exit_code"]
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _judged(text, case["argv"]) == _judged(expected, case["argv"])


def test_every_row_named_as_drawn_is_a_golden_row(outcomes):
    rows = {metric for name, case in RECORDED.items()
            for metric, _ in report_values(outcomes[name][1], case["argv"])}
    assert set(NEEDS_RECORDED_NUMPY) <= rows


@pytest.mark.parametrize("name", list(RECORDED))
def test_report_values(name, outcomes):
    argv = RECORDED[name]["argv"]
    got = report_values(outcomes[name][1], argv)
    want = report_values((GOLDEN / f"{name}.txt").read_text(encoding="utf-8"), argv)
    assert [metric for metric, _ in got] == [metric for metric, _ in want]
    recorded_numpy = INDEX["environment"]["numpy"]
    same_numpy = environment()["numpy"] == recorded_numpy
    unjudged = {}
    for (metric, value), (_, record) in zip(got, want):
        if metric in NEEDS_RECORDED_NUMPY and not same_numpy:
            unjudged[metric] = NEEDS_RECORDED_NUMPY[metric]
        else:
            assert value == record or abs(value - record) <= VALUE_BOUND, (metric, value, record)
    if unjudged:
        pytest.skip(f"other rows compared within {VALUE_BOUND}; these need numpy "
                    f"{recorded_numpy}: {unjudged}")


@pytest.mark.parametrize("name", list(RECORDED))
def test_report_bytes(name, outcomes):
    here, recorded = environment(), INDEX["environment"]
    if here != recorded:
        differs = {k: (recorded.get(k), here.get(k)) for k in recorded if recorded.get(k) != here.get(k)}
        pytest.skip(f"byte check needs the recorded environment, (recorded, here) differ in "
                    f"{differs}; test_report_values compared the values within {VALUE_BOUND}")
    assert outcomes[name][1] == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_moved_rows_names_each_moved_value_and_nothing_else():
    argv = CASES["baseline"]
    old = (GOLDEN / "baseline.txt").read_text(encoding="utf-8")
    assert moved_rows("baseline", argv, old, old) == []
    payload = json.loads(old)
    payload["metrics"][1]["value"] = 0.5
    was = json.loads(old)["metrics"][1]["value"]
    assert moved_rows("baseline", argv, old, json.dumps(payload)) == [
        f"baseline  avg_fidelity_clone  {was!r} -> 0.5  |delta| {abs(0.5 - was)!r}"]
    # a first regeneration has no old report: every row reads None before
    assert len(moved_rows("baseline", argv, "", old)) == len(payload["metrics"])


def test_moved_rows_reads_csv_reports():
    argv = CASES["verify_csv"]
    old = (GOLDEN / "verify_csv.txt").read_text(encoding="utf-8")
    header, first, *rest = old.splitlines(keepends=True)
    name, _value, tolerance, passed = first.strip().split(",")
    new = "".join([header, f"{name},1.0,{tolerance},{passed}\n", *rest])
    [line] = moved_rows("verify_csv", argv, old, new)
    assert line.startswith(f"verify_csv  {name}  ") and " -> 1.0  |delta| " in line
