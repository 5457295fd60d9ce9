"""Campaign benchmark for anticlone.

Run from the repository root:

    python3 perfbench/run.py --workload {optimize,verify,certify} --seed N \
        --seconds S --trace {0,1}

One process per workload calls the campaigns in-process through
``cli.parse_args`` + ``cli.run`` + ``cli.write_report``, in a closed loop over
the workload's cycle of calls (``workloads.py``). BLAS is pinned to one
thread here, before numpy loads; every matrix in the package is at most
16 x 16, so BLAS threads cannot help.

``--trace 0`` measures for ``--seconds`` (and at least the workload's minimum
number of cycles) with tracing off and prints the end-to-end metrics.
``--trace 1`` runs a fixed number of cycles twice each, once plain and once
with every layer entry point wrapped (``layers.py``), alternating which goes
first, and prints the per-layer metrics and the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
report the environment, the campaign-level rates and, when traced, the
SHA-256 of every report.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from layers import LAYERS, layer_metrics  # noqa: E402
from tracer import Tracer, check_nesting, patched, root_time  # noqa: E402
from workloads import BASELINE_SAMPLES, ETA_OPT, PLANS, VERIFY_SAMPLES, metric  # noqa: E402

SETUP_PROBES = 7
REFERENCE_EVERY = 0.25  # seconds of campaign time between reference timings
# The reference's time on an idle core of a 2-core Xeon (Skylake-X) VM; it
# converts set-up time measured in reference units back to seconds.
REFERENCE_NOMINAL_S = 0.03
EXIT_INPUT_ERROR = 2


class CampaignInputError(RuntimeError):
    """A campaign rejected its generated input (exit 2): the benchmark is wrong."""


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(PLANS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def make_workdir() -> str:
    path = os.path.join(HERE, "_work", f"{os.getpid()}-{time.monotonic_ns()}")
    os.makedirs(path)
    return path


def set_up(workload: str, seed: int, workdir: str):
    """Import the package and generate the workload's inputs."""
    from anticlone import cli

    return cli, PLANS[workload](seed, workdir)


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_call(cli, call):
    """One campaign call as the command line makes it. Returns (latency,
    exit code, report bytes)."""
    start = time.perf_counter()
    cfg = cli.parse_args(list(call.argv))
    report, code = cli.run(cfg)
    if code != EXIT_INPUT_ERROR:
        cli.write_report(report, cfg.format, cfg.output)
    latency = time.perf_counter() - start
    if code == EXIT_INPUT_ERROR:
        raise CampaignInputError(f"campaign rejected its input (exit 2): {' '.join(call.argv)}")
    with open(cfg.output, "rb") as fh:
        return latency, code, fh.read()


def judge(call, code: int, data: bytes) -> str | None:
    """Error message for a failed call, or None."""
    payload = json.loads(data)
    if payload["all_pass"] != (code == 0):
        return f"exit {code} disagrees with all_pass={payload['all_pass']}"
    if code != 0:
        failed = [m["metric"] for m in payload["metrics"] if m["pass"] is False]
        return f"exit {code}: failed checks {failed}"
    return call.check(payload)


class Tally:
    """Attempted and failed calls, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, call, error: str | None):
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(f"{call.item} {' '.join(call.argv)}: {error}")


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (a value that was actually measured)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Reference:
    """A fixed computation, independent of the package, timed between calls.

    On a shared host the same call's latency swings by up to 2x over seconds
    to minutes while CPU time stays equal to wall time. Dividing a call's
    time by the reference time measured on both sides of it cancels most of
    that drift. The mix follows the package's hot paths: tiny-matrix numpy
    calls in a Python loop, a complex einsum and row-wise vector arithmetic.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.small = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self.big = rng.standard_normal((128, 68, 16)) + 1j * rng.standard_normal((128, 68, 16))
        self.rows = rng.standard_normal((32768, 3))

    def seconds(self) -> float:
        start = time.perf_counter()
        acc = self.small
        for _ in range(300):
            acc = 0.5 * (acc @ self.small.conj().T) / np.abs(acc).max()
        for _ in range(4):
            np.einsum("bnr,bns->bn", self.big, self.big.conj())
        for _ in range(10):
            (self.rows / np.linalg.norm(self.rows, axis=1)[:, None]).sum()
        return time.perf_counter() - start


def setup_seconds(args, reference: Reference) -> tuple[float, float]:
    """Set-up time of fresh interpreters that import the package and generate
    the inputs: the median of each probe divided by the reference timings
    around it and scaled to the reference's nominal time, and the plain
    median in seconds."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed)]
    ref_times = [reference.seconds()]
    ratios = []
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        ref_times.append(reference.seconds())
        ratios.append(times[-1] / (0.5 * (ref_times[-2] + ref_times[-1])))
    return statistics.median(ratios) * REFERENCE_NOMINAL_S, statistics.median(times)


def measured_run(cli, plan, seconds: float, reference: Reference):
    """Closed loop over the plan's cycles. Each call's latency is also divided
    by the mean of the two reference timings around it; a reference is taken
    after any call that ends at least REFERENCE_EVERY seconds of campaign time
    after the previous one."""
    latencies = defaultdict(list)
    ratios = defaultdict(list)
    first_reports = {}
    tally = Tally()
    ref_times = [reference.seconds()]
    pending = []
    cycles = 0
    start = time.perf_counter()
    while cycles < plan.min_cycles or time.perf_counter() - start < seconds:
        for call in plan.cycle(cycles):
            latency, code, data = run_call(cli, call)
            tally.add(call, judge(call, code, data))
            latencies[call.item].append(latency)
            pending.append((call.item, latency))
            if call.item not in first_reports:
                first_reports[call.item] = json.loads(data)
            if sum(t for _, t in pending) >= REFERENCE_EVERY:
                ref_times.append(reference.seconds())
                pair = 0.5 * (ref_times[-2] + ref_times[-1])
                for item, t in pending:
                    ratios[item].append(t / pair)
                pending.clear()
        cycles += 1
    wall = time.perf_counter() - start
    # calls after the last reference have no second timing; leave them out
    return latencies, ratios, first_reports, tally, cycles, ref_times, wall


def campaign_metrics(workload: str, latencies, first_reports) -> list[tuple[str, float, str, int]]:
    """The campaign-level rates a user of each workload sees, as
    (name, value, unit, samples)."""
    med = {item: statistics.median(v) for item, v in latencies.items()}
    n = {item: len(v) for item, v in latencies.items()}
    if workload == "optimize":
        return [
            ("universal_restarts_per_s", 1.0 / med["universal"], "1/s", n["universal"]),
            ("spinflip_restarts_per_s", 1.0 / med["spinflip"], "1/s", n["spinflip"]),
            ("eta_gap", ETA_OPT - metric(first_reports["universal"], "best_eta"), "eta", 1),
        ]
    if workload == "verify":
        lat = latencies["verify"]
        return [
            ("verify_directions_per_s", VERIFY_SAMPLES / med["verify"], "1/s", len(lat)),
            ("verify_call_p50_s", med["verify"], "s", len(lat)),
            ("verify_call_p90_s", quantile(lat, 0.9), "s", len(lat)),
        ]
    feas = [i for i in med if i.startswith("feasibility")]
    prob = [i for i in med if i.startswith("prob")]
    return [
        ("certificates_per_s", len(feas) / sum(med[i] for i in feas), "1/s", sum(n[i] for i in feas)),
        ("prob_calls_per_s", len(prob) / sum(med[i] for i in prob), "1/s", sum(n[i] for i in prob)),
        ("baseline_samples_per_s", BASELINE_SAMPLES / med["baseline"], "1/s", n["baseline"]),
    ]


def untraced(args, cli, plan) -> dict:
    reference = Reference()
    setup_s, setup_raw_s = setup_seconds(args, reference)
    latencies, ratios, first_reports, tally, cycles, ref_times, wall = measured_run(
        cli, plan, args.seconds, reference
    )
    med = {item: statistics.median(v) for item, v in latencies.items()}
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    info = [
        ("setup_s", setup_s, "s", SETUP_PROBES),
        ("setup_raw_s", setup_raw_s, "s", SETUP_PROBES),
        ("wall_s", wall, "s", cycles),
        ("cycle_min_s", sum(min(v) for v in latencies.values()), "s", cycles),
        ("reference_s", statistics.median(ref_times), "s", len(ref_times)),
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
        ("call_fail_ratio", tally.failed / tally.attempted, "ratio", tally.attempted),
    ] + campaign_metrics(args.workload, latencies, first_reports)
    print(f"campaign metrics ({cycles} cycles, {tally.attempted} calls):")
    for name, value, unit, samples in info:
        print(f"  {name:28s} {value:.6g} {unit}  (n={samples})")
    print(json.dumps({"latency_by_item": {
        item: {"n": len(v), "min_s": min(v), "p50_s": med[item], "p90_s": quantile(v, 0.9)}
        for item, v in latencies.items()
    }}))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": {
            "setup_s": {"value": setup_s, "unit": "s"},
            # one pass over the cycle, each call at its median reference-relative time
            "cycle_ref": {"value": sum(statistics.median(v) for v in ratios.values()), "unit": "ref"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        },
    }


def traced(cli, plan) -> dict:
    tracer = Tracer()
    tally = Tally()
    walls = {False: 0.0, True: 0.0}
    digests = {}
    missing: list[str] = []
    bindings: list[str] = []
    for k in range(plan.trace_cycles):
        outputs = {}
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            results = []
            start = time.perf_counter()
            if with_trace:
                with patched(tracer, LAYERS) as (bindings, missing):
                    for call in plan.cycle(k):
                        results.append(run_call(cli, call)[1:])
            else:
                for call in plan.cycle(k):
                    results.append(run_call(cli, call)[1:])
            walls[with_trace] += time.perf_counter() - start
            outputs[with_trace] = results
        for call, (code, data), (_, plain) in zip(plan.cycle(k), outputs[True], outputs[False]):
            error = judge(call, code, data)
            if error is None and data != plain:
                error = "traced report differs from the untraced report"
            tally.add(call, error)
            tally.add(call, judge(call, code, plain))
            seed = call.argv[call.argv.index("--seed") + 1] if "--seed" in call.argv else "0"
            digests[f"{call.item} seed={seed}"] = hashlib.sha256(data).hexdigest()

    check_nesting(tracer.spans)
    unspanned = walls[True] - root_time(tracer.spans)
    metrics = layer_metrics(tracer.spans, tracer.counts, walls[False], walls[True], unspanned, len(missing))
    self_total = sum(v for name, (v, _) in metrics.items() if name.endswith(".self_s"))
    if abs(self_total + unspanned - walls[True]) > 1e-6 * max(1.0, walls[True]):
        raise AssertionError(
            f"self times {self_total!r} + unspanned {unspanned!r} != traced wall {walls[True]!r}"
        )
    print(f"traced {plan.trace_cycles} cycles: {len(tracer.spans)} spans over {len(bindings)} bindings")
    print(f"  tracing overhead {walls[True] - walls[False]:+.4f} s "
          f"(traced {walls[True]:.4f} s, untraced {walls[False]:.4f} s)")
    print(f"  self times {self_total:.4f} s + unspanned {unspanned:.4f} s = traced wall")
    if missing:
        print(f"  layers not found, skipped: {', '.join(missing)}")
    for name, (value, unit) in metrics.items():
        if value:
            print(f"  {name:58s} {value:.6g} {unit}")
    print(json.dumps({"bindings": bindings, "missing_layers": missing, "report_sha256": digests}))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    workdir = make_workdir()
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed, workdir)
            return 0
        cli, plan = set_up(args.workload, args.seed, workdir)
        print(json.dumps({"environment": environment(), "workload": args.workload, "seed": args.seed}))
        if args.trace:
            result = traced(cli, plan)
        else:
            result = untraced(args, cli, plan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in result.pop("errors"):
        print(f"FAILED {error}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
