"""The baseline report does not depend on the CPU count or on an old file.

The baseline Monte Carlo scores its PCG64DXSM blocks on one thread per usable
CPU and adds the block sums in block order, so a run pinned to one CPU must
write the same bytes as an unpinned one. Reports are rewritten in place and
cut to length, so the unpinned run writes over 64 KiB of junk and the
comparison also proves that no stale tail survives. A one-block run (20000
samples) goes through the same threaded path; pinned and unpinned, it must
write the golden baseline report. /dev/null cannot be truncated; a report
sent there must still exit 0.

Each run is a fresh interpreter. A pinned run is confined to the first
usable CPU by ``os.sched_setaffinity`` before it starts.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
GOLDEN_BASELINE = TESTS / "golden" / "baseline.txt"

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="pinning a run to one CPU needs sched_setaffinity"
)


def _cpus() -> str:
    """Which CPUs a pinned and an unpinned run get, for assertion messages."""
    usable = sorted(os.sched_getaffinity(0))
    if len(usable) == 1:
        return f"only CPU {usable[0]} is usable, so this compared one CPU with itself"
    return f"pinned run on CPU {usable[0]}, unpinned run on CPUs {usable}"


def _anticlone(*args: str, pinned: bool = False) -> None:
    """Run ``python -m anticlone`` with ``args``; with ``pinned``, on the
    first usable CPU only. Fails the test on a non-zero exit."""
    cpu = min(os.sched_getaffinity(0))
    out = subprocess.run(
        [sys.executable, "-m", "anticlone", *args],
        env={**os.environ, "PYTHONPATH": str(TESTS.parent / "src")},
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pinned else None,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert out.returncode == 0, out.stderr


def test_pinned_and_unpinned_runs_write_the_same_bytes_over_an_old_file(tmp_path):
    one_cpu, all_cpus = tmp_path / "baseline-one-cpu.json", tmp_path / "baseline-all-cpus.json"
    run = ("baseline", "--samples", "300000", "--seed", "5", "--output")
    _anticlone(*run, str(one_cpu), pinned=True)
    all_cpus.write_bytes(os.urandom(65536))
    _anticlone(*run, str(all_cpus))
    assert one_cpu.read_bytes() == all_cpus.read_bytes(), _cpus()


@pytest.mark.parametrize("pinned", [True, False], ids=["one-cpu", "all-cpus"])
def test_one_block_run_writes_the_golden_report(tmp_path, pinned):
    report = tmp_path / "baseline.json"
    _anticlone("baseline", "--samples", "20000", "--seed", "5", "--output", str(report), pinned=pinned)
    assert report.read_bytes() == GOLDEN_BASELINE.read_bytes(), _cpus()


def test_a_report_sent_to_dev_null_exits_zero():
    _anticlone("verify", "--samples", "50", "--output", os.devnull)
