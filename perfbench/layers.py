"""The layers the traced run wraps, and the per-layer metrics derived from
their spans."""

from __future__ import annotations

import os

from tracer import END, NAME, PARENT, START, Layer, has_ancestor, self_times


def _first(bound: dict):
    return next(iter(bound.values()))


def _eig_split(bound: dict) -> str:
    n = len(_first(bound))
    return "linalg.hermitian_eigenvalues." + ("n2" if n == 2 else "ngt2")


def _report_bytes(bound: dict, _result) -> tuple[str, float]:
    path = bound.get("path")
    return "report_bytes", os.path.getsize(path) if path else 0


LAYERS = [
    Layer("optimize", "_universal_values", "optimize._universal_values",
          count=lambda b, _: ("rows", _first(b).shape[0])),
    Layer("optimize", "_spinflip_values", "optimize._spinflip_values",
          count=lambda b, _: ("rows", _first(b).shape[0])),
    Layer("optimize", "_isometry_batch", "optimize._isometry_batch"),
    Layer("optimize", "_softmin", "optimize._softmin"),
    # self time of the ascent is the finite-difference loop around the kernel
    Layer("optimize", "_ascend", "optimize.ascent"),
    Layer("machine", "anticlone", "machine.anticlone"),
    Layer("machine", "target_forms", "machine.target_forms"),
    Layer("machine", "constraint_residuals", "machine.constraint_residuals"),
    Layer("machine", "measure_prepare_baseline", "machine.measure_prepare_baseline",
          count=lambda b, _: ("samples", b["samples"])),
    Layer("qubit", "check_density_matrix", "qubit.check_density_matrix"),
    Layer("qubit", "state_to_bloch", "qubit.state_to_bloch"),
    Layer("qubit", "fidelity_direction", "qubit.fidelity_direction"),
    Layer("qubit", "bloch_to_state", "qubit.bloch_to_state"),
    Layer("linalg", "hermitian_eigenvalues", "linalg.hermitian_eigenvalues", split=_eig_split),
    Layer("linalg", "partial_trace", "linalg.partial_trace"),
    Layer("linalg", "unitary_from_correspondence", "linalg.unitary_from_correspondence"),
    Layer("probclone", "max_feasible_f", "probclone.max_feasible_f"),
    Layer("probclone", "build_two_state_anticloner", "probclone.build_two_state_anticloner"),
    Layer("probclone", "run_prob_anticlone", "probclone.run_prob_anticlone",
          count=lambda b, _: ("shots", b["shots"])),
    Layer("rng", "philox_stream", "rng.philox_stream"),
    # self time of cli.run is the campaign body outside the layers above
    Layer("cli", "run", "cli.run"),
    Layer("cli", "write_report", "cli.write_report", count=_report_bytes),
    Layer("cli", "load_state_file", "cli.load_state_file"),
]

SPAN_NAMES = [
    name
    for layer in LAYERS
    for name in ([layer.label + ".n2", layer.label + ".ngt2"] if layer.split else [layer.label])
]

# (metric, unit, better) beyond calls and self_s
EXTRA = [
    ("optimize._universal_values.rows", "count", "lower"),
    ("optimize._universal_values.kernel_share", "ratio", "lower"),
    ("optimize._spinflip_values.rows", "count", "lower"),
    ("optimize._isometry_batch.evals_per_restart", "count", "lower"),
    ("optimize._softmin.evals_per_restart", "count", "lower"),
    ("optimize.ascent.evals_per_restart", "count", "lower"),
    ("machine.measure_prepare_baseline.samples", "count", "higher"),
    ("probclone.max_feasible_f.eig_calls_per_certificate", "count", "lower"),
    ("probclone.run_prob_anticlone.shots", "count", "higher"),
    ("cli.write_report.report_bytes", "bytes", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.traced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.unspanned_s", "s", "lower"),
    ("trace.missing_layers", "count", "lower"),
]


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in output order."""
    specs = []
    for name in SPAN_NAMES:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.self_s", "s", "lower")]
    return specs + EXTRA


def layer_metrics(spans, counts, untraced_wall: float, traced_wall: float,
                  unspanned: float, missing: int) -> dict[str, tuple[float, str]]:
    """Reduce spans and counters to {metric: (value, unit)}; layers that the
    workload never called read 0."""
    per_name = self_times(spans)
    values: dict[str, float] = {}
    for name in SPAN_NAMES:
        calls, self_s = per_name.get(name, (0, 0.0))
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s

    # a restart draws its start point from one Philox stream inside the ascent
    restarts = sum(
        1 for s in spans
        if s[NAME] == "rng.philox_stream" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "optimize.ascent"
    )
    kernel = [i for i, s in enumerate(spans) if s[NAME] == "optimize._universal_values"]
    ascents = {spans[i][PARENT] for i in kernel if spans[i][PARENT] >= 0}
    ascent_time = sum(spans[a][END] - spans[a][START] for a in ascents)
    kernel_time = sum(spans[i][END] - spans[i][START] for i in kernel)
    certificates = per_name.get("probclone.max_feasible_f", (0, 0.0))[0]
    eig_in_certificates = sum(
        1 for i, s in enumerate(spans)
        if s[NAME].startswith("linalg.hermitian_eigenvalues.")
        and has_ancestor(spans, i, "probclone.max_feasible_f")
    )

    def per_restart(name):
        return per_name.get(name, (0, 0.0))[0] / restarts if restarts else 0.0

    values.update({
        "optimize._universal_values.rows": counts.get("optimize._universal_values.rows", 0),
        "optimize._universal_values.kernel_share": kernel_time / ascent_time if ascent_time else 0.0,
        "optimize._spinflip_values.rows": counts.get("optimize._spinflip_values.rows", 0),
        "optimize._isometry_batch.evals_per_restart": per_restart("optimize._isometry_batch"),
        "optimize._softmin.evals_per_restart": per_restart("optimize._softmin"),
        "optimize.ascent.evals_per_restart": (
            per_restart("optimize._universal_values") + per_restart("optimize._spinflip_values")
        ),
        "machine.measure_prepare_baseline.samples": counts.get("machine.measure_prepare_baseline.samples", 0),
        "probclone.max_feasible_f.eig_calls_per_certificate": (
            eig_in_certificates / certificates if certificates else 0.0
        ),
        "probclone.run_prob_anticlone.shots": counts.get("probclone.run_prob_anticlone.shots", 0),
        "cli.write_report.report_bytes": counts.get("cli.write_report.report_bytes", 0),
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unspanned_s": unspanned,
        "trace.missing_layers": missing,
    })
    return {name: (values[name], unit) for name, unit, _ in metric_specs()}
