"""Every golden invocation still exits and reports as recorded.

The judged structure (exit code, parameters, metric names and order,
tolerances, pass flags) must always match. The values must match bit for bit
where the environment equals the recorded one; on another numpy, BLAS or
CPU the last bits of a value may move (the optimizer's ascent amplifies
them), so that check skips and names the difference.
"""

import csv
import io
import json

import pytest

from golden_reports import CASES, GOLDEN, environment, run_case

INDEX = json.loads((GOLDEN / "index.json").read_text())
RECORDED = {case["name"]: case for case in INDEX["cases"]}


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


def test_index_lists_every_case_with_its_argv():
    assert {name: case["argv"] for name, case in RECORDED.items()} == CASES


@pytest.mark.parametrize("name", list(RECORDED))
def test_exit_code_and_judged_structure(name, outcomes):
    case = RECORDED[name]
    code, text = outcomes[name]
    assert code == case["exit_code"]
    expected = (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
    assert _judged(text, case["argv"]) == _judged(expected, case["argv"])


@pytest.mark.parametrize("name", list(RECORDED))
def test_report_bytes(name, outcomes):
    here, recorded = environment(), INDEX["environment"]
    if here != recorded:
        differs = {k: (recorded.get(k), here.get(k)) for k in recorded if recorded.get(k) != here.get(k)}
        pytest.skip(f"value check needs the recorded environment; (recorded, here) differ in {differs}")
    assert outcomes[name][1] == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")
