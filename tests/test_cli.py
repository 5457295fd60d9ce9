import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from anticlone.cli import (
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VERIFICATION_FAILED,
    _parser,
    load_state_file,
    main,
    parse_args,
    report_payload,
    run,
    write_report,
)
from anticlone import machine, probclone
from anticlone.optimize import OptimizerConfig
from anticlone.probclone import two_state_efficiency
from anticlone.qubit import QubitState
from conftest import SUBNORMAL_H_COPIES, SUBNORMAL_H_PAIR
from golden_reports import CASES, resolved
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
# |0>, |+> and |+i>: the overlap product around the trio is complex
COMPLEX_TRIO = [[[1, 0], [0, 0]], [[0.7071067811865476, 0], [0.7071067811865476, 0]],
                [[0.7071067811865476, 0], [0, 0.7071067811865476]]]
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

    @pytest.mark.parametrize(
        "flag, field, value",
        [("iters", "max_iters", 100), ("restarts", "restarts", 20), ("ancilla_dim", "ancilla_dim", 4)],
        ids=["iters", "restarts", "ancilla-dim"],
    )
    def test_optimize_default_is_the_config_value(self, flag, field, value):
        assert getattr(parse_args(["optimize"]), flag) == getattr(OptimizerConfig(), field) == value

    def test_prob_theta(self):
        cfg = parse_args(["prob", "--theta", "1.0471975512", "--shots", "100000"])
        assert cfg.subcommand == "prob"
        assert abs(cfg.theta - np.pi / 3) < 1e-9
        assert cfg.shots == 100000

    def test_missing_states_file_exits_2(self, tmp_path):
        # the path is opened when the campaign runs, not checked at parse time
        path = str(tmp_path / "definitely-not-here.json")
        cfg = parse_args(["feasibility", "--states", path])
        assert cfg.states == path
        assert run(cfg)[1] == EXIT_INPUT_ERROR

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--bogus", "1"])
        assert exc.value.code == 2

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            parse_args([])
        assert exc.value.code == 2

    def test_parser_is_built_once(self):
        assert _parser() is _parser()

    def test_shared_parser_keeps_no_values_between_calls(self):
        parse_args(["optimize", "--spinflip", "--format", "csv", "--output", "x"])
        cfg = parse_args(["optimize"])
        assert (cfg.spinflip, cfg.format, cfg.output) == (False, "json", None)

    def test_shared_parser_parses_after_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            parse_args(["verify", "--samples", "many"])
        assert exc.value.code == 2
        cfg = parse_args(["verify", "--samples", "7"])
        assert (cfg.subcommand, cfg.samples, cfg.seed) == ("verify", 7, 0)

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--tol", "1e-9"], ["feasibility", "--seed", "0"]],
        ids=["verify-tol", "feasibility-seed"],
    )
    def test_fixed_gate_and_unused_seed_are_not_options(self, tmp_path, argv):
        path = write_states(tmp_path / "s.json", PAIR_60)
        with pytest.raises(SystemExit) as exc:
            parse_args(argv + (["--states", path] if argv[0] == "feasibility" else []))
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

    @pytest.mark.parametrize("text", ['{"states": 5}', '{"states": null}', '{"states": {}}', "[1]"])
    def test_states_must_be_a_list_in_an_object(self, tmp_path, text):
        path = tmp_path / "s.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="expected a JSON object with a 'states' list"):
            load_state_file(str(path))

    @pytest.mark.parametrize(
        "part", [True, False, "0", "1", None, [1], [[1, 0]]], ids=repr
    )
    def test_rejects_non_number_amplitude(self, tmp_path, part):
        # the first state is valid; the bad part sits in the second
        path = write_states(tmp_path / "s.json", [[[1, 0], [0, 0]], [[part, 0], [1, 0]]])
        with pytest.raises(ValueError, match=r"state 1 is not a pair of \[re, im\] pairs of numbers"):
            load_state_file(path)

    @pytest.mark.parametrize(
        "states",
        [[[[True, 0], [0, 0]], [["0", "0"], [1, "0"]]], [[[10**400, 0], [0, 0]]]],
        ids=["bool-and-string", "int-beyond-float"],
    )
    def test_non_number_states_are_input_error(self, tmp_path, capsys, states):
        path = write_states(tmp_path / "s.json", states)
        assert main(["feasibility", "--states", path]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "state 0 is not a pair of [re, im] pairs of numbers in float range" in captured.err

    def test_too_deeply_nested_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text('{"states": ' + "[" * 100000 + "]" * 100000 + "}")
        assert main(["feasibility", "--states", str(path)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"anticlone feasibility: {path}: JSON nested too deeply to read\n"

    def test_too_deeply_nested_file_is_input_error_at_the_default_recursion_limit(self, tmp_path):
        # a fresh interpreter, so the limit is Python's default, not whatever
        # this process runs under
        path = tmp_path / "deep.json"
        path.write_text('{"states": ' + "[" * 100000 + "]" * 100000 + "}\n")
        out = cli("feasibility", "--states", str(path))
        assert out.returncode == EXIT_INPUT_ERROR
        assert out.stderr == f"anticlone feasibility: {path}: JSON nested too deeply to read\n"

    @pytest.mark.parametrize("where",["missing", "directory", "dev-null"])
    def test_unreadable_states_path_is_input_error(self, tmp_path, capsys, where):
        path = {"missing": str(tmp_path / "missing.json"), "directory": str(tmp_path),
                "dev-null": os.devnull}[where]
        assert main(["feasibility", "--states", path]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"anticlone feasibility: [^\n]+\n", captured.err)

    def test_overflowing_amplitude_is_input_error(self, tmp_path, capsys):
        # 1e200 is a float, but its square is not
        path = write_states(tmp_path / "s.json", [[[1e200, 0], [0, 0]], [[1, 0], [0, 0]]])
        assert main(["feasibility", "--states", path]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"anticlone feasibility: {path}: state 0 has norm inf, outside tolerance 1e-8\n"
        )

    def test_norm_is_reported_as_plain_float(self, tmp_path):
        path = write_states(tmp_path / "s.json", [[[float("inf"), 0], [0, 0]]])
        with pytest.raises(ValueError, match=r"state 0 has norm inf, outside tolerance 1e-8$"):
            load_state_file(path)

    def test_valid_numbers_parse_to_normalized_states(self, tmp_path):
        raw = [[[1, 0], [0, 0]], [[0, 0], [0, -1]],
               [[0.6, 0.0], [0.0, 0.8 + 2e-9]], [[-0.5, 0.5], [0.5, -0.5]]]
        states = load_state_file(write_states(tmp_path / "s.json", raw))
        want = [QubitState.normalized(complex(ar, ai), complex(br, bi))
                for (ar, ai), (br, bi) in raw]
        assert states == want


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

    def test_the_machine_gate_runs_a_fixed_number_of_times(self, monkeypatch):
        # build_isometry checks the machine once and anticlone_all once more,
        # however many directions the campaign scores
        gate = machine.require_isometry
        calls = []

        def counted(a, what):
            calls.append(what)
            gate(a, what)

        monkeypatch.setattr(machine, "require_isometry", counted)
        counts = []
        for samples in ("5", "50"):
            calls.clear()
            assert run(parse_args(["verify", "--samples", samples]))[1] == EXIT_OK
            counts.append(len(calls))
        assert counts == [2, 2]

    def test_non_universal_machine_fails_with_exit_1(self, rng, monkeypatch, capsys):
        m = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
        v = np.linalg.qr(m)[0]
        monkeypatch.setattr(machine, "build_isometry", lambda params: v)
        assert main(["verify", "--samples", "50"]) == EXIT_VERIFICATION_FAILED
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_pass"] is False
        assert not payload["metrics"][0]["pass"] and payload["metrics"][0]["tolerance"] == 1e-9


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

    def test_huge_copy_count_pair_meets_closed_form_quickly(self, tmp_path):
        path = write_states(tmp_path / "pair.json", [[[1, 0], [0, 0]], [[0.6, 0], [0, 0.8]]])
        start = time.perf_counter()
        report, code = run(parse_args(["feasibility", "--states", path, "--L", str(10**18), "--M", "1"]))
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK, report.metrics
        metrics = {m.name: m for m in report.metrics}
        assert metrics["closed_form_deviation"].value < 1e-9

    @pytest.mark.parametrize("L", [10**8, 10**18])
    def test_renormalized_pair_meets_closed_form_at_huge_copy_counts(self, tmp_path, L):
        # the second ket's squared norm rounds to 1 + 2^-52 after
        # renormalization: raised to the L-th power in H, it would miss the
        # closed form by 5.6e-9 at L = 1e8 and give f_max ~ 3e-97 at 1e18
        path = write_states(tmp_path / "pair.json", PAIR_60)
        report, code = run(parse_args(["feasibility", "--states", path, "--L", str(L), "--M", "1"]))
        assert code == EXIT_OK, report.metrics
        metrics = {m.name: m for m in report.metrics}
        assert metrics["closed_form_deviation"].value < 1e-9

    def test_copy_count_past_int64_is_input_error(self, tmp_path, capsys):
        path = write_states(tmp_path / "pair.json", PAIR_60)
        report, code = run(parse_args(["feasibility", "--states", path, "--L", "9" * 401]))
        assert code == EXIT_INPUT_ERROR
        assert "copy counts must be at most" in capsys.readouterr().err

    def test_near_parallel_pair_meets_closed_form(self, tmp_path):
        c = 0.9999
        pair = [[[1, 0], [0, 0]], [[c, 0], [np.sqrt(1 - c * c), 0]]]
        path = write_states(tmp_path / "pair.json", pair)
        report, code = run(parse_args(["feasibility", "--states", path]))
        assert code == EXIT_OK
        metrics = {m.name: m for m in report.metrics}
        assert metrics["closed_form_deviation"].value <= 1e-12

    @pytest.mark.parametrize("gap", [5e-11, 1e-12, 3e-14, 1e-14])
    def test_near_duplicate_pair_is_judged_by_closed_form(self, tmp_path, gap, capsys):
        # G's small eigenvalue 1 - c lies below the rank tolerance, so the
        # direct solve cannot resolve f_max and the input is rejected
        c = 1.0 - gap
        pair = [[[1, 0], [0, 0]], [[c, 0], [np.sqrt(1 - c * c), 0]]]
        path = write_states(tmp_path / "pair.json", pair)
        assert main(["feasibility", "--states", path]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "RANK_TOL" in captured.err

    def test_random_four_states_give_exact_zero(self, tmp_path, rng):
        kets = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        path = write_states(tmp_path / "four.json", as_state_list(kets))
        report, code = run(parse_args(["feasibility", "--states", path]))
        assert code == EXIT_OK
        metrics = {m.name: m for m in report.metrics}
        assert metrics["f_max"].value == 0.0
        assert metrics["dependent_set_f_max"].passed

    @pytest.mark.parametrize(
        "trio, L, M",
        [(TRIO, 1, 0), (COMPLEX_TRIO, 1, 0), (TRIO, 0, 1)],
        ids=["real-L1M0", "complex-L1M0", "real-L0M1"],
    )
    def test_unitary_target_map_clones_trio_with_certainty(self, tmp_path, trio, L, M):
        # the identity, or the pi rotation about the normal of the real
        # trio's great circle, maps each state to its target
        path = write_states(tmp_path / "trio.json", trio)
        report, code = run(parse_args(["feasibility", "--states", path, "--L", str(L), "--M", str(M)]))
        assert code == EXIT_OK, report.metrics
        metrics = {m.name: m for m in report.metrics}
        assert metrics["f_max"].value >= 1.0 - 1e-9
        assert metrics["dependent_set_f_max_deficit"].passed
        assert "dependent_set_f_max" not in metrics

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0), (2, 0, 1)], ids=lambda o: "%d%d%d" % o)
    @pytest.mark.parametrize("phi", [0.0, np.pi / 2, np.pi, 1.0], ids=["0", "half-pi", "pi", "1"])
    def test_flip_trio_clones_with_certainty_in_every_input_phase(self, tmp_path, phi, order):
        # |0>, e^(i phi)|1>, |+> are the real trio's rays: a global phase on
        # one input must not move the verdict, and e^(i phi)|1> is
        # orthogonal to |0>, so no gauge fixed against |0> alone can phase it
        r = np.sqrt(0.5)
        kets = [np.array([1.0, 0.0]), np.array([0.0, np.exp(1j * phi)]), np.array([r, r])]
        path = write_states(tmp_path / "trio.json", as_state_list([kets[i] for i in order]))
        report, code = run(parse_args(["feasibility", "--states", path, "--L", "0", "--M", "1"]))
        assert code == EXIT_OK, report.metrics
        metrics = {m.name: m for m in report.metrics}
        assert metrics["f_max"].value >= 1.0 - 1e-9
        assert metrics["dependent_set_f_max_deficit"].passed

    def test_complex_trio_spin_flip_stays_zero(self, tmp_path):
        # with the targets' phases fixed by the inputs' spanning-tree gauge,
        # the trio's spin flips are not a unitary image of it and the solve
        # gives 0; free target phases would allow 2 - sqrt(3)
        path = write_states(tmp_path / "trio.json", COMPLEX_TRIO)
        report, code = run(parse_args(["feasibility", "--states", path, "--L", "0", "--M", "1"]))
        assert code == EXIT_OK
        metrics = {m.name: m for m in report.metrics}
        assert metrics["f_max"].value == 0.0
        assert metrics["dependent_set_f_max"].passed
        assert "dependent_set_f_max_deficit" not in metrics

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

    @pytest.mark.parametrize("L", [10**6, 10**18])
    @pytest.mark.parametrize(
        "kets",
        [[PAIR_60[1], PAIR_60[1]],
         as_state_list([np.array([0.6, 0.8j]), np.exp(1.1j) * np.array([0.6, 0.8j])])],
        ids=["renormalized-twice", "phase-duplicate"],
    )
    def test_repeated_state_clones_with_certainty_at_huge_copy_counts(self, tmp_path, kets, L):
        # a repeat's overlap rounded off 1 would grow as its L-th power in H
        # and leave H's null-space block past RANK_TOL
        path = write_states(tmp_path / "dup.json", kets)
        report, code = run(parse_args(["feasibility", "--states", path, "--L", str(L), "--M", "1"]))
        assert code == EXIT_OK
        assert {m.name: m.value for m in report.metrics}["f_max"] >= 1.0 - 1e-9

    @pytest.mark.parametrize(
        "trio, L, M",
        [([PAIR_60[0], PAIR_60[1], PAIR_60[1]], 10**8, 1),
         (as_state_list([np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0j])]), 1, 1)],
        ids=["renormalized-repeat-1e8", "repeat-orthogonal-to-first-L1M1"],
    )
    def test_repeat_in_trio_keeps_pair_value(self, tmp_path, trio, L, M):
        # the second case's repeat, at phase i, is orthogonal to the first
        # state: the spanning tree reaches it from its first occurrence
        path = write_states(tmp_path / "trio.json", trio)
        report, code = run(parse_args(["feasibility", "--states", path, "--L", str(L), "--M", str(M)]))
        assert code == EXIT_OK
        kets = [np.array([complex(*z) for z in ket]) for ket in trio[:2]]
        c = abs(np.vdot(kets[0], kets[1])) / np.linalg.norm(kets[1])
        f_max = {m.name: m.value for m in report.metrics}["f_max"]
        assert abs(f_max - two_state_efficiency(c, L, M)) <= 1e-9


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

    @pytest.mark.parametrize("shots", ["20000", "0"])
    def test_one_machine_run_per_input(self, shots, monkeypatch):
        calls = []
        real = probclone.run_prob_anticlone

        def counted(*args, **kwargs):
            calls.append(kwargs["shots"])
            return real(*args, **kwargs)

        monkeypatch.setattr(probclone, "run_prob_anticlone", counted)
        _, code = run(parse_args(["prob", "--theta", "1.0471975512", "--shots", shots]))
        assert code == EXIT_OK
        assert calls == [int(shots)] * 2

    def test_bad_theta_is_input_error(self):
        report, code = run(parse_args(["prob", "--theta", "9.9"]))
        assert code == EXIT_INPUT_ERROR

    def test_negative_shots_is_input_error(self):
        report, code = run(parse_args(["prob", "--theta", "1", "--shots", "-5"]))
        assert code == EXIT_INPUT_ERROR

    def test_huge_shot_count_takes_one_draw(self):
        # each input draws its count once, whatever the shot count
        start = time.perf_counter()
        report, code = run(parse_args(["prob", "--theta", "1.0", "--shots", str(10**18)]))
        assert time.perf_counter() - start < 1.0
        assert code == EXIT_OK, report.metrics

    def test_shot_count_past_int64_is_input_error(self, capsys):
        report, code = run(parse_args(["prob", "--theta", "1.0", "--shots", str(2**63)]))
        assert code == EXIT_INPUT_ERROR
        assert "shots must lie in" in capsys.readouterr().err


class TestBaselineCampaign:
    def test_converges(self):
        report, code = run(parse_args(["baseline", "--samples", "300000"]))
        assert code == EXIT_OK
        metrics = {m.name: m for m in report.metrics}
        assert metrics["anticlone_deviation_from_two_thirds"].value < 0.002
        exact = metrics["exact_measure_prepare_deviation"]
        assert exact.tolerance == 1e-15 and exact.passed

    def test_seed_sweep_fails_no_more_seeds_than_the_3_sigma_tail_allows(self):
        # seeds 0-99 at the default 10^6 samples. The 0.002 bound is 8.5
        # standard errors there, so a correct program exits 1 only on the
        # sigma row, with the two-sided normal tail at 3 sigma. Allow the
        # smallest failure count whose binomial tail is below 1e-3: 3 of 100
        # (P(X >= 4) = 1.7e-4 under Binomial(100, 0.0027)).
        seeds, p, allowed = range(100), math.erfc(3 / math.sqrt(2)), 3

        def tail(k):  # P(X >= k) for X ~ Binomial(len(seeds), p)
            n = len(seeds)
            return sum(math.comb(n, j) * p**j * (1 - p)**(n - j) for j in range(k, n + 1))

        assert tail(allowed + 1) < 1e-3 <= tail(allowed)

        means, stderrs, failed = [], [], []
        for seed in seeds:
            report, code = run(parse_args(["baseline", "--seed", str(seed)]))
            assert code in (EXIT_OK, EXIT_VERIFICATION_FAILED), seed
            metrics = {m.name: m for m in report.metrics}
            assert metrics["anticlone_deviation_from_two_thirds"].passed, seed
            means.append(metrics["avg_fidelity_anticlone"].value)
            stderrs.append(metrics["stderr"].value)
            if code == EXIT_VERIFICATION_FAILED:
                failed.append(seed)
        assert len(failed) <= allowed, failed
        # the pooled mean of all 10^8 samples, within 4 pooled standard errors
        pooled_stderr = math.sqrt(sum(s * s for s in stderrs)) / len(seeds)
        assert abs(sum(means) / len(seeds) - 2 / 3) <= 4 * pooled_stderr

        # the spread: a fidelity has density 2x on [0, 1], so Var f = 1/18,
        # and the sample variance n stderr^2 has standard error
        # sqrt((mu_4 - sigma^4) / n) with mu_4 - sigma^4 = 1/135 - 1/324 = 7/1620.
        # A scorer that keeps the mean but not the law, such as the
        # conditional mean u^2 + (1 - u)^2, reads z of about -500 here.
        n = parse_args(["baseline"]).samples
        z = [(n * s * s - 1 / 18) / math.sqrt(7 / (1620 * n)) for s in stderrs]
        wide = [seed for seed, zs in zip(seeds, z) if abs(zs) > 3]
        assert len(wide) <= allowed, wide
        assert abs(sum(z) / math.sqrt(len(seeds))) <= 4, sum(z) / math.sqrt(len(seeds))


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


PAIR_FILE = Path(__file__).parent / "golden" / "states" / "pair.json"


class TestDevelopmentMode:
    """Each subcommand once in a fresh interpreter in development mode with
    warnings as errors, so a DeprecationWarning fails it. A ResourceWarning
    (a leaked file descriptor) is raised in a finalizer, which only prints
    it, so stderr must hold nothing but one line per failed report row and
    then the timing line. The optimize budget is too short to reach the
    optimum: it must exit 1, not 0 or 2, and name its failed rows."""

    @pytest.mark.parametrize("want, args", [
        (EXIT_OK, ["verify", "--samples", "50"]),
        (EXIT_OK, ["baseline", "--samples", "70000"]),
        (EXIT_OK, ["prob", "--theta", "1.0"]),
        (EXIT_OK, ["feasibility", "--states", str(PAIR_FILE)]),
        (EXIT_VERIFICATION_FAILED, ["optimize", "--restarts", "1", "--iters", "8"]),
    ], ids=["verify", "baseline", "prob", "feasibility", "optimize"])
    def test_runs_with_nothing_on_stderr_but_the_timing_line(self, tmp_path, want, args):
        out = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "anticlone", *args,
             "--output", str(tmp_path / "report")],
            capture_output=True, text=True,
        )
        assert out.returncode == want, out.stderr
        report = json.loads((tmp_path / "report").read_text())
        failures = [f"anticlone {args[0]}: FAIL {m['metric']} = {m['value']!r} > {m['tolerance']!r}"
                    for m in report["metrics"] if m["pass"] is False]
        assert (failures == []) == (want == EXIT_OK)
        *lines, timing = out.stderr.splitlines()
        assert lines == failures, out.stderr
        assert re.fullmatch(rf"anticlone {args[0]}: [0-9.e+-]* s", timing), out.stderr

    @pytest.mark.parametrize("want, states, copies, message", [
        (EXIT_OK, [[[1, 0], [5e-324, 0]], [[0, 0], [1, 0]]], (1, 1), None),
        (EXIT_INPUT_ERROR, [[[5e-324, 0], [0, 0]], [[0, 0], [1, 0]]], (1, 1),
         "state 0 has norm 0.0, outside tolerance 1e-8"),
        (EXIT_OK, SUBNORMAL_H_PAIR, SUBNORMAL_H_COPIES, None),
    ], ids=["subnormal-part", "subnormal-norm", "subnormal-h-entry"])
    def test_subnormal_amplitudes_raise_no_warning(self, tmp_path, want, states, copies, message):
        # a subnormal part of a unit state is kept; a state whose only
        # nonzero part is subnormal has norm 0.0 and is an input error; the
        # phase-equivalence check takes the phase of a subnormal entry of H
        # without dividing by its modulus
        path = write_states(tmp_path / "s.json", states)
        L, M = (str(k) for k in copies)
        out = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "anticlone", "feasibility",
             "--states", path, "--L", L, "--M", M, "--output", str(tmp_path / "report")],
            capture_output=True, text=True,
        )
        assert out.returncode == want, out.stderr
        [line] = out.stderr.splitlines()
        if message is None:
            assert re.fullmatch(r"anticlone feasibility: [0-9.e+-]* s", line), out.stderr
        else:
            assert line == f"anticlone feasibility: {path}: {message}"


class TestFailureLines:
    """On exit 1, ``main`` names each failed report row on stderr, before
    the timing line, and no passing row."""

    def test_golden_no_ancilla_run_names_its_one_failed_row(self, capsys):
        # the golden exit-1 case: three iterations without an ancilla leave
        # the best eta far below the optimum, so only that row fails; the
        # other three pass or are not judged
        assert main(resolved(CASES["optimize_no_ancilla"])) == EXIT_VERIFICATION_FAILED
        captured = capsys.readouterr()
        assert [m["pass"] for m in json.loads(captured.out)["metrics"]] == [None, False, True, True]
        *lines, timing = captured.err.splitlines()
        assert len(lines) == 1
        assert re.fullmatch(
            r"anticlone optimize: FAIL best_eta_below_optimum = \S+ > 0\.001", lines[0]
        )
        assert re.fullmatch(r"anticlone optimize: \S+ s", timing)


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

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "file"])
    def test_main_reports_duration_on_stderr_only(self, tmp_path, capsys, to_file):
        argv = ["baseline", "--samples", "20000", "--seed", "5"]
        out = tmp_path / "r.json"
        report, code = run(parse_args(argv))
        write_report(report, "json", None)
        want = capsys.readouterr().out
        assert main(argv + (["--output", str(out)] if to_file else [])) == code == EXIT_OK
        captured = capsys.readouterr()
        assert (out.read_text() if to_file else captured.out) == want
        line = re.fullmatch(r"anticlone baseline: (\S+) s\n", captured.err)
        assert line and 0.0 < float(line[1]) < 60.0

    def test_input_error_prints_only_its_error(self, capsys):
        assert main(["verify", "--samples", "0"]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "anticlone verify: need at least one direction\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("stale", [b"stale report text\n" * 4096, b"{}\n", b""],
                             ids=["longer", "shorter", "empty"])
    def test_rewrite_over_old_file_leaves_no_stale_tail(self, tmp_path, fmt, stale):
        report, _ = run(parse_args(["baseline", "--samples", "50"]))
        fresh, old = tmp_path / f"fresh.{fmt}", tmp_path / f"old.{fmt}"
        write_report(report, fmt, str(fresh))
        old.write_bytes(stale)
        write_report(report, fmt, str(old))
        assert old.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_main_rewrites_longer_file_to_fresh_bytes(self, tmp_path, fmt):
        argv = ["baseline", "--samples", "20000", "--seed", "5", "--format", fmt, "--output"]
        fresh, old = tmp_path / f"fresh.{fmt}", tmp_path / f"old.{fmt}"
        old.write_bytes(bytes(range(256)) * 256)
        assert main(argv + [str(fresh)]) == main(argv + [str(old)]) == EXIT_OK
        assert old.read_bytes() == fresh.read_bytes()

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_report_to_dev_null_exits_0(self, capsys):
        # /dev/null is seekable but cannot be truncated
        assert main(["verify", "--samples", "50", "--output", "/dev/null"]) == EXIT_OK
        assert capsys.readouterr().out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/null"), reason="no /dev/null")
    def test_non_regular_target_that_reports_a_size_is_not_cut(self, monkeypatch):
        # /dev/null reports size 0 on Linux; a pipe may report the bytes it
        # holds elsewhere, and only a regular file may be truncated
        report, _ = run(parse_args(["baseline", "--samples", "50"]))
        real_fstat = os.fstat

        def sized_fstat(fd):
            st = real_fstat(fd)
            return os.stat_result((*st[:6], 4096, *st[7:10]))

        monkeypatch.setattr(os, "fstat", sized_fstat)
        write_report(report, "json", "/dev/null")

    def test_new_report_gets_the_mode_of_open_w(self, tmp_path):
        report, _ = run(parse_args(["baseline", "--samples", "50"]))
        write_report(report, "json", str(tmp_path / "r.json"))
        with open(tmp_path / "ref.json", "w"):
            pass
        assert (tmp_path / "r.json").stat().st_mode == (tmp_path / "ref.json").stat().st_mode

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_output_is_input_error(self, tmp_path, capsys, where):
        out = tmp_path if where == "directory" else tmp_path / "missing" / "r.json"
        assert main(["baseline", "--samples", "50", "--output", str(out)]) == EXIT_INPUT_ERROR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"anticlone: cannot write report: \[Errno \d+\] [^\n]+\n", captured.err)

    def test_every_judged_metric_names_its_tolerance(self):
        report, _ = run(parse_args(["verify", "--samples", "50"]))
        for entry in report_payload(report)["metrics"]:
            if entry["pass"] is not None:
                assert entry["tolerance"] is not None

    def test_console_entry_missing_file(self):
        r = cli("feasibility", "--states", "missing.json")
        assert r.returncode == 2
        assert r.stdout == ""
        assert r.stderr == (
            "anticlone feasibility: [Errno 2] No such file or directory: 'missing.json'\n"
        )
