import json
import subprocess
import sys

import numpy as np
import pytest

from anticlone.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    load_state_file,
    main,
    parse_args,
    report_payload,
    run,
    write_report,
)
from anticlone import machine
from anticlone.optimize import OptimizerConfig
from anticlone.probclone import two_state_efficiency
from oracles import verify_metrics_by_direction


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "anticlone", *args], capture_output=True, text=True
    )


def write_states(path, states):
    path.write_text(json.dumps({"states": states}))
    return str(path)


TRIO = [[[1, 0], [0, 0]], [[0, 0], [1, 0]],
        [[0.7071067811865476, 0], [0.7071067811865476, 0]]]
PAIR_60 = [[[1, 0], [0, 0]], [[0.5, 0], [0.8660254037844386, 0]]]


def as_state_list(kets):
    return [[[k.real, k.imag] for k in ket] for ket in kets]


class TestParseArgs:
    def test_verify_defaults(self):
        cfg = parse_args(["verify", "--samples", "1000"])
        assert cfg.subcommand == "verify"
        assert cfg.samples == 1000
        assert cfg.seed == 0
        assert cfg.format == "json"

    def test_optimize_iters_default_is_the_config_budget(self):
        assert parse_args(["optimize"]).iters == OptimizerConfig().max_iters == 600

    def test_prob_theta(self):
        cfg = parse_args(["prob", "--theta", "1.0471975512", "--shots", "100000"])
        assert cfg.subcommand == "prob"
        assert abs(cfg.theta - np.pi / 3) < 1e-9
        assert cfg.shots == 100000

    def test_missing_states_file_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_args(["feasibility", "--states", "definitely-not-here.json"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--bogus", "1"])
        assert exc.value.code == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            parse_args([])
        assert exc.value.code == 2


class TestStateFile:
    def test_loads_and_silently_renormalizes(self, tmp_path):
        eps = 3e-9
        path = write_states(tmp_path / "s.json", [[[1 + eps, 0], [0, 0]]])
        states = load_state_file(path)
        assert abs(abs(states[0].alpha) - 1) < 1e-12

    def test_rejects_badly_normalized(self, tmp_path):
        path = write_states(tmp_path / "s.json", [[[1.1, 0], [0, 0]]])
        with pytest.raises(ValueError):
            load_state_file(path)

    def test_nan_amplitude_is_input_error(self, tmp_path):
        path = write_states(tmp_path / "s.json", [[[float("nan"), 0], [0, 0]], [[1, 0], [0, 0]]])
        report, code = run(parse_args(["feasibility", "--states", path]))
        assert code == EXIT_INPUT_ERROR

    def test_rejects_malformed(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text('{"states": [[[1, 0]]]}')
        with pytest.raises(ValueError):
            load_state_file(str(path))


class TestVerifyCampaign:
    def test_passes_with_defaults(self):
        report, code = run(parse_args(["verify", "--samples", "300"]))
        assert code == EXIT_OK
        metrics = {m.name: m for m in report.metrics}
        assert metrics["max_universality_deviation_rho1"].value < 1e-9
        assert metrics["max_universality_deviation_rho2"].value < 1e-9
        assert all(m.passed for m in report.metrics if m.tolerance is not None)

    @pytest.mark.parametrize("which", ["optimal", "random"])
    def test_metrics_match_per_direction_oracle(self, which, rng, monkeypatch):
        if which == "optimal":
            v = machine.build_isometry(machine.optimal_params())
        else:
            m = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
            v = np.linalg.qr(m)[0]
            monkeypatch.setattr(machine, "build_isometry", lambda params: v)
        report, _ = run(parse_args(["verify", "--samples", "50", "--seed", "4"]))
        metrics = {m.name: m.value for m in report.metrics}
        oracle = verify_metrics_by_direction(v, machine.haar_directions(50, seed=4), 1 / 3)
        for name, value in oracle.items():
            assert abs(metrics[name] - value) <= 1e-12, name

    def test_impossible_tolerance_fails_with_exit_1(self):
        report, code = run(parse_args(["verify", "--samples", "50", "--tol", "1e-20"]))
        assert code == EXIT_VERIFICATION_FAILED
        assert not report.all_pass

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_meaningless_tolerance_is_input_error(self, tol, capsys):
        assert main(["verify", "--samples", "10", "--tol", tol]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().out == ""


class TestFeasibilityCampaign:
    def test_dependent_trio_passes_as_expected_zero(self, tmp_path):
        path = write_states(tmp_path / "trio.json", TRIO)
        report, code = run(parse_args(["feasibility", "--states", path]))
        assert code == EXIT_OK
        metrics = {m.name: m for m in report.metrics}
        assert metrics["f_max"].value < 1e-9
        assert metrics["dependent_set_f_max"].passed
        assert report.parameters["dependent"] is True

    def test_two_state_closed_form(self, tmp_path):
        path = write_states(tmp_path / "pair.json", PAIR_60)
        report, code = run(parse_args(["feasibility", "--states", path, "--L", "2", "--M", "1"]))
        assert code == EXIT_OK
        metrics = {m.name: m for m in report.metrics}
        assert metrics["closed_form_deviation"].value < 1e-9
        assert report.parameters["dependent"] is False

    def test_near_parallel_pair_meets_closed_form(self, tmp_path):
        c = 0.9999
        pair = [[[1, 0], [0, 0]], [[c, 0], [np.sqrt(1 - c * c), 0]]]
        path = write_states(tmp_path / "pair.json", pair)
        report, code = run(parse_args(["feasibility", "--states", path]))
        assert code == EXIT_OK
        metrics = {m.name: m for m in report.metrics}
        assert metrics["closed_form_deviation"].value <= 1e-12

    @pytest.mark.parametrize("gap", [5e-11, 1e-12])
    def test_near_duplicate_pair_is_judged_by_closed_form(self, tmp_path, gap):
        # G's small eigenvalue 1 - c lies below the rank tolerance, so the
        # direct solve cannot resolve f_max; the closed form must catch it
        c = 1.0 - gap
        pair = [[[1, 0], [0, 0]], [[c, 0], [np.sqrt(1 - c * c), 0]]]
        path = write_states(tmp_path / "pair.json", pair)
        report, code = run(parse_args(["feasibility", "--states", path]))
        assert code == EXIT_VERIFICATION_FAILED
        assert not {m.name: m for m in report.metrics}["closed_form_deviation"].passed

    def test_random_four_states_give_exact_zero(self, tmp_path, rng):
        kets = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        path = write_states(tmp_path / "four.json", as_state_list(kets))
        report, code = run(parse_args(["feasibility", "--states", path]))
        assert code == EXIT_OK
        metrics = {m.name: m for m in report.metrics}
        assert metrics["f_max"].value == 0.0
        assert metrics["dependent_set_f_max"].passed

    def test_phase_only_duplicate_clones_with_certainty(self, tmp_path):
        psi = np.array([0.6, 0.8j])
        path = write_states(tmp_path / "dup.json", as_state_list([psi, np.exp(1.1j) * psi]))
        report, code = run(parse_args(["feasibility", "--states", path]))
        assert code == EXIT_OK
        assert {m.name: m.value for m in report.metrics}["f_max"] == 1.0
        assert report.parameters["dependent"] is True

    def test_phase_duplicate_in_trio_keeps_pair_value(self, tmp_path):
        a = np.array([1.0, 0.0])
        b = np.array([0.5, 0.5j * np.sqrt(3)])
        path = write_states(tmp_path / "trio.json", as_state_list([a, np.exp(2.0j) * a, b]))
        report, code = run(parse_args(["feasibility", "--states", path, "--L", "2", "--M", "1"]))
        assert code == EXIT_OK
        f_max = {m.name: m.value for m in report.metrics}["f_max"]
        assert abs(f_max - two_state_efficiency(0.5, 2, 1)) <= 1e-12


class TestProbCampaign:
    def test_pi_third(self):
        report, code = run(parse_args(["prob", "--theta", "1.0471975512", "--shots", "20000"]))
        assert code == EXIT_OK
        metrics = {m.name: m for m in report.metrics}
        assert metrics["unitarity_residual"].value < 1e-12
        assert metrics["success_probability_deviation_input1"].value < 1e-12
        assert metrics["shot_frequency_sigma_input2"].value < 3.0

    @pytest.mark.parametrize("theta", [1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3])
    def test_small_angles_pass(self, theta):
        report, code = run(parse_args(["prob", "--theta", repr(theta)]))
        assert code == EXIT_OK, report.metrics

    def test_bad_theta_is_input_error(self):
        report, code = run(parse_args(["prob", "--theta", "9.9"]))
        assert code == EXIT_INPUT_ERROR

    def test_negative_shots_is_input_error(self):
        report, code = run(parse_args(["prob", "--theta", "1", "--shots", "-5"]))
        assert code == EXIT_INPUT_ERROR


class TestBaselineCampaign:
    def test_converges(self):
        report, code = run(parse_args(["baseline", "--samples", "300000"]))
        assert code == EXIT_OK
        metrics = {m.name: m for m in report.metrics}
        assert metrics["anticlone_deviation_from_two_thirds"].value < 0.002
        exact = metrics["exact_measure_prepare_deviation"]
        assert exact.tolerance == 1e-15 and exact.passed


class TestOptimizeCampaign:
    def test_twenty_restarts_reach_optimum(self, universal_optimize_run):
        report, code = universal_optimize_run
        assert code == EXIT_OK
        metrics = {m.name: m for m in report.metrics}
        eta = metrics["best_eta"].value
        assert 1 / 3 - 1e-3 <= eta <= 1 / 3 + 1e-6
        assert metrics["objective_bound_excess"].passed

    def test_spinflip_quick(self):
        report, code = run(parse_args(["optimize", "--spinflip", "--restarts", "2"]))
        assert code == EXIT_OK
        metrics = {m.name: m for m in report.metrics}
        assert 2 / 3 - 1e-3 <= metrics["best_flip_fidelity"].value <= 2 / 3 + 1e-6

    # single restarts that ended outside the 1e-3 band under a 300-iteration
    # budget; the default budget must bring each of them in
    @pytest.mark.parametrize("seed", [2067036572, 558621319, 1796452716, 982600324])
    def test_slow_spinflip_restarts_converge(self, seed):
        argv = ["optimize", "--spinflip", "--restarts", "1", "--seed", str(seed)]
        report, code = run(parse_args(argv))
        assert code == EXIT_OK, report.metrics


class TestReports:
    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "r.json"
        report, code = run(parse_args(["verify", "--samples", "50", "--output", str(out)]))
        write_report(report, "json", str(out))
        parsed = json.loads(out.read_text())
        assert parsed == report_payload(report)
        assert parsed["subcommand"] == "verify"
        assert parsed["all_pass"] is True

    def test_csv_header(self, tmp_path):
        out = tmp_path / "r.csv"
        report, _ = run(parse_args(["verify", "--samples", "50"]))
        write_report(report, "csv", str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "metric,value,tolerance,pass"
        assert len(lines) == 1 + len(report.metrics)

    def test_reports_are_byte_identical_for_fixed_seed(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        r1 = cli("baseline", "--samples", "50000", "--seed", "7", "--output", str(a))
        r2 = cli("baseline", "--samples", "50000", "--seed", "7", "--output", str(b))
        assert r1.returncode == r2.returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_reports_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli("verify", "--samples", "80", "--seed", "3", "--format", "csv", "--output", str(a))
        cli("verify", "--samples", "80", "--seed", "3", "--format", "csv", "--output", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_every_judged_metric_names_its_tolerance(self):
        report, _ = run(parse_args(["verify", "--samples", "50"]))
        for entry in report_payload(report)["metrics"]:
            if entry["pass"] is not None:
                assert entry["tolerance"] is not None

    def test_console_entry_missing_file(self):
        r = cli("feasibility", "--states", "missing.json")
        assert r.returncode == 2
        assert "usage" in r.stderr
