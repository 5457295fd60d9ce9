import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from anticlone.machine import build_isometry, optimal_params
from anticlone import optimize
from anticlone.optimize import (
    OptimizerConfig,
    _Objective,
    _universal_values,
    direction_set,
    objective_spinflip,
    objective_universal,
    optimize_spinflip,
    optimize_universal,
    parameterize_isometry,
)
from anticlone.qubit import direction_kets
from oracles import ObjectiveByMovedAxes, clone_outputs_by_sum, fd_gradient, ket_by_angles

TWO_THIRDS = 2 / 3


def encode(v):
    """Flat real parameter vector that reproduces the isometry ``v``."""
    out_dim = v.shape[0]
    x = np.empty(4 * out_dim)
    half = 2 * out_dim
    x[0:half:2] = v[:, 0].real
    x[1:half:2] = v[:, 0].imag
    x[half::2] = v[:, 1].real
    x[half + 1:: 2] = v[:, 1].imag
    return x


@pytest.fixture(scope="module")
def opt_isometry():
    return build_isometry(optimal_params())


@pytest.fixture(scope="module")
def x_opt(opt_isometry):
    return encode(opt_isometry)


@pytest.fixture(scope="module")
def net():
    return direction_set()


class TestParameterize:
    def test_roundtrip_of_optimal_columns(self, opt_isometry, x_opt):
        v = parameterize_isometry(x_opt, 16)
        assert np.max(np.abs(v - opt_isometry)) < 1e-12

    def test_duplicate_columns_fall_back(self):
        x = np.zeros(16)
        x[0] = 1.0   # column 0 = e0
        x[8] = 1.0   # column 1 = e0 as well
        v = parameterize_isometry(x, 4)
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-12

    def test_zero_vector_falls_back(self):
        v = parameterize_isometry(np.zeros(16), 4)
        assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-12

    def test_random_vectors_give_isometries(self, rng):
        for out_dim in (4, 8, 16):
            for _ in range(20):
                v = parameterize_isometry(rng.standard_normal(4 * out_dim), out_dim)
                assert np.max(np.abs(v.conj().T @ v - np.eye(2))) < 1e-12

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            parameterize_isometry(np.zeros(10), 4)


class TestObjectiveUniversal:
    def test_optimal_machine_scores_two_thirds(self, opt_isometry, net, rng):
        assert abs(objective_universal(opt_isometry, net) - TWO_THIRDS) < 1e-10
        extra = rng.standard_normal((10, 3))
        extra /= np.linalg.norm(extra, axis=1)[:, None]
        assert abs(objective_universal(opt_isometry, extra) - TWO_THIRDS) < 1e-10

    def test_matches_per_direction_anticlone(self, net, rng):
        v = parameterize_isometry(rng.standard_normal(64), 16)
        slow = np.inf
        for d in net:
            k_in, k_opp = ket_by_angles(d), ket_by_angles(-d)
            rho1, rho2 = clone_outputs_by_sum(v, k_in)
            f1 = np.vdot(k_in, rho1 @ k_in).real
            f2 = np.vdot(k_opp, rho2 @ k_opp).real
            slow = min(slow, f1, f2)
        assert abs(objective_universal(v, net) - slow) < 1e-12

    def test_perfect_pole_cloner_fails_on_equator(self):
        # machine that maps |0> -> |0>|1> x ancilla and |1> -> orthogonal junk
        v = np.zeros((16, 2), dtype=complex)
        v[0b0100, 0] = 1.0  # |0> -> |01, anc 00>
        v[0b1011, 1] = 1.0  # |1> -> |10, anc 11>
        x_axis = np.array([[1.0, 0.0, 0.0]])
        assert objective_universal(v, x_axis) <= 0.5 + 1e-9
        pole = np.array([[0.0, 0.0, 1.0]])
        assert abs(objective_universal(v, pole) - 1.0) < 1e-12

    def test_maximally_mixed_outputs_score_half(self, net):
        v = np.zeros((16, 2), dtype=complex)
        v[0b0000, 0] = v[0b1100, 0] = 1 / np.sqrt(2)   # Bell pair x anc |00>
        v[0b0101, 1] = v[0b1001, 1] = 1 / np.sqrt(2)   # flipped Bell x anc |01>
        assert abs(objective_universal(v, net) - 0.5) < 1e-12

    def test_invariant_under_overall_phase(self, net, rng):
        v = parameterize_isometry(rng.standard_normal(64), 16)
        w = np.exp(0.7j) * v
        assert abs(objective_universal(v, net) - objective_universal(w, net)) < 1e-12

    def test_single_column_phase_acts_as_input_rotation(self, opt_isometry, rng):
        # a phase on one column composes the machine with a z-rotation of the
        # input, so it leaves the objective alone exactly on the rotation
        # axis and moves it elsewhere
        poles = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
        w = opt_isometry @ np.diag([1.0, np.exp(1.1j)])
        assert abs(
            objective_universal(opt_isometry, poles) - objective_universal(w, poles)
        ) < 1e-12
        equator = np.array([[1.0, 0.0, 0.0]])
        assert objective_universal(w, equator) < objective_universal(opt_isometry, equator) - 1e-3

    def test_one_sided_stationarity_at_optimum(self, x_opt, net):
        # the optimum is a kink of the worst-case objective, so the right
        # stationarity statement is one-sided: no probe direction improves it
        base = objective_universal(parameterize_isometry(x_opt, 16), net)
        h = 1e-5
        worst_gain = -np.inf
        for i in range(64):
            for sign in (+1.0, -1.0):
                probe = x_opt.copy()
                probe[i] += sign * h
                val = objective_universal(parameterize_isometry(probe, 16), net)
                worst_gain = max(worst_gain, val - base)
        assert worst_gain <= 1e-9


class TestObjectiveSpinflip:
    def test_identity_channel_scores_zero(self, net):
        assert abs(objective_spinflip(np.eye(2, dtype=complex), net)) < 1e-12

    def test_discarding_first_clone_gives_two_thirds(self, opt_isometry, net):
        # reroute the anti-cloner so the flipped output comes first and
        # everything else is ancilla: (q1, q2, anc) -> (q2, q1, anc)
        v = opt_isometry.reshape(2, 2, 4, 2).transpose(1, 0, 2, 3).reshape(16, 2)
        assert abs(objective_spinflip(v, net) - TWO_THIRDS) < 1e-10


class TestSearchGradient:
    """The ascent's analytic gradient against central differences of the
    same search objective, at random (generic) points."""

    @pytest.mark.parametrize("temperature", [3e-2, 1e-3])
    @pytest.mark.parametrize("ancilla", [1, 2, 4])
    @pytest.mark.parametrize("copies", [1, 2], ids=["copies1", "copies2"])
    def test_matches_finite_differences(self, rng, net, copies, ancilla, temperature):
        objective = _Objective(copies, ancilla, net)
        assert objective.out_dim == 2**copies * ancilla

        def search(xb):
            # the ascent evaluates one point per call, so the probes loop
            return np.array([objective.evaluate(x, temperature)[0] for x in xb])

        x = rng.standard_normal(4 * objective.out_dim)
        s, _, gradient = objective.evaluate(x, temperature)
        assert s == ObjectiveByMovedAxes(copies, ancilla, net).evaluate(x, temperature)[0]
        want = fd_gradient(search, x)
        assert np.linalg.norm(gradient() - want) <= 1e-6 * np.linalg.norm(want)

    def test_degenerate_columns_get_a_finite_zero_gradient(self):
        objective = _Objective(2, 4, direction_set())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            grad = objective.evaluate(np.zeros(64), 1e-3)[2]()
        assert np.array_equal(grad, np.zeros(64))

    def test_degenerate_start_stays_finite(self):
        # both columns of the zero vector fall back to basis kets, which no
        # small move of the parameters changes, so the restart stays put
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = optimize_universal(OptimizerConfig(restarts=1, max_iters=40), init=np.zeros(64))
        start = objective_universal(parameterize_isometry(np.zeros(64), 16), direction_set())
        assert np.isfinite(res.best_eta)
        assert res.best_eta == 2 * start - 1


class TestPreparedKernelIsBitwiseOracle:
    """The prepared ascent kernel computes what the per-call kernel did,
    bit for bit: same search value, hard minimum and gradient at every
    point, so the same ascent."""

    @staticmethod
    def assert_same_point(x, copies, ancilla, temperature):
        got = _Objective(copies, ancilla, direction_set()).evaluate(x, temperature)
        want = ObjectiveByMovedAxes(copies, ancilla, direction_set()).evaluate(x, temperature)
        assert got[:2] == want[:2]
        assert got[2]().tobytes() == want[2]().tobytes()

    @pytest.mark.parametrize("temperature", [3e-2, 1e-3])
    @pytest.mark.parametrize("ancilla", [1, 2, 4])
    @pytest.mark.parametrize("copies", [1, 2])
    def test_random_points(self, rng, copies, ancilla, temperature):
        for _ in range(5):
            x = rng.standard_normal(4 * 2**copies * ancilla)
            self.assert_same_point(x, copies, ancilla, temperature)

    @pytest.mark.parametrize("copies", [1, 2])
    def test_zero_vector(self, copies):
        # both columns fall back to basis kets
        self.assert_same_point(np.zeros(4 * 2**copies * 4), copies, 4, 1e-3)

    @pytest.mark.parametrize("copies", [1, 2])
    def test_parallel_columns(self, rng, copies):
        # column 1 is a multiple of column 0, so it falls back to a basis ket
        half = rng.standard_normal(2 * 2**copies * 4)
        self.assert_same_point(np.concatenate([half, -2.5 * half]), copies, 4, 3e-2)

    @staticmethod
    def assert_same_ascent(monkeypatch, run, cfg):
        got = run(cfg)
        monkeypatch.setattr(optimize, "_Objective", ObjectiveByMovedAxes)
        want = run(cfg)
        assert got.best_params.tobytes() == want.best_params.tobytes()
        assert got.objective_trace == want.objective_trace
        assert got.max_objective_seen == want.max_objective_seen

    @pytest.mark.parametrize("run", [optimize_universal, optimize_spinflip])
    def test_short_ascent(self, monkeypatch, run):
        self.assert_same_ascent(monkeypatch, run, OptimizerConfig(restarts=1, max_iters=40, seed=2))

    @pytest.mark.parametrize("run", [optimize_universal, optimize_spinflip])
    def test_full_budget_ascent(self, monkeypatch, run):
        # 150 steps per stage reach the late small-step regime, where the
        # accept-or-halve decisions turn on the last bits
        cfg = OptimizerConfig(restarts=1, seed=0)
        assert cfg.max_iters == 600
        self.assert_same_ascent(monkeypatch, run, cfg)


class TestOptimizeUniversal:
    def test_short_run_reaches_band(self):
        res = optimize_universal(OptimizerConfig(restarts=2, seed=5))
        assert 1 / 3 - 1e-3 <= res.best_eta <= 1 / 3 + 1e-6
        assert res.max_objective_seen <= TWO_THIRDS + 1e-6
        assert res.best_eta == max(res.per_restart_etas)

    def test_seeded_at_optimum_stays_there(self, x_opt):
        res = optimize_universal(OptimizerConfig(restarts=1, seed=0), init=x_opt)
        assert res.best_eta >= 1 / 3 - 1e-9
        assert res.best_eta <= 1 / 3 + 1e-6
        assert res.max_objective_seen <= TWO_THIRDS + 1e-6

    def test_no_ancilla_cannot_beat_bound(self):
        res = optimize_universal(OptimizerConfig(restarts=4, seed=7, ancilla_dim=1))
        assert res.best_eta <= 1 / 3 + 1e-6
        assert res.max_objective_seen <= TWO_THIRDS + 1e-6

    def test_deterministic(self):
        cfg = OptimizerConfig(restarts=1, max_iters=40, seed=3)
        a = optimize_universal(cfg)
        b = optimize_universal(cfg)
        assert a.best_eta == b.best_eta
        assert np.array_equal(a.best_params, b.best_params)

    def test_result_invariants(self):
        res = optimize_universal(OptimizerConfig(restarts=2, max_iters=40, seed=1))
        assert res.best_eta == max(res.per_restart_etas)
        assert len(res.objective_trace) >= 1
        assert abs(res.best_fidelity - 0.5 * (1 + res.best_eta)) < 1e-15

    @pytest.mark.parametrize("iters", [3, 5, 7, 13])
    def test_stages_spend_exactly_the_budget(self, iters):
        res = optimize_universal(OptimizerConfig(restarts=1, max_iters=iters, seed=0))
        assert len(res.objective_trace) == iters

    def test_each_point_is_evaluated_once(self, monkeypatch):
        # one call per stage start (the first is the restart's start point)
        # and one per step candidate
        calls = []

        def counted(*args):
            calls.append(1)
            return _universal_values(*args)

        monkeypatch.setattr(optimize, "_universal_values", counted)
        res = optimize_universal(OptimizerConfig(restarts=1, max_iters=8, seed=0))
        assert len(res.objective_trace) == 8
        assert len(calls) == 4 + 8


class TestTracedRun:
    """The benchmark's tracer keeps one span stack, so every traced layer
    must run on the calling thread."""

    def test_spans_nest_and_account_for_the_wall_time(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from layers import LAYERS
        from tracer import Tracer, check_nesting, patched, root_time, self_times

        tracer = Tracer()
        start = time.perf_counter()
        with patched(tracer, LAYERS) as (_, missing):
            optimize_universal(OptimizerConfig(restarts=1, max_iters=8, seed=0))
        wall = time.perf_counter() - start

        assert missing == []
        check_nesting(tracer.spans)
        per_layer = self_times(tracer.spans)
        assert per_layer["optimize._universal_values"][0] > 0
        unspanned = wall - root_time(tracer.spans)
        assert unspanned >= 0
        self_total = sum(t for _, t in per_layer.values())
        assert abs(self_total + unspanned - wall) <= 1e-6 * max(1.0, wall)

    @pytest.mark.parametrize(
        "run, values_layer",
        [(optimize_universal, "optimize._universal_values"),
         (optimize_spinflip, "optimize._spinflip_values")],
        ids=["universal", "spinflip"],
    )
    def test_every_point_passes_each_traced_layer_once(self, monkeypatch, run, values_layer):
        # one point per stage start and per step candidate: a step that
        # bypassed a traced layer would leave the benchmark's per-restart
        # counts reading 0 with no layer missing
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from layers import LAYERS
        from tracer import Tracer, patched, self_times

        tracer = Tracer()
        with patched(tracer, LAYERS):
            res = run(OptimizerConfig(restarts=1, max_iters=8, seed=0))
        assert len(res.objective_trace) == 8
        per_layer = self_times(tracer.spans)
        for name in ("optimize._isometry_batch", "optimize._softmin", values_layer):
            assert per_layer[name][0] == 4 + 8, name
        # the values layer takes a leading candidate axis of one
        assert tracer.counts[f"{values_layer}.rows"] == 4 + 8


class TestOptimizeSpinflip:
    def test_short_run_reaches_band(self):
        res = optimize_spinflip(OptimizerConfig(restarts=2, seed=5))
        assert 2 / 3 - 1e-3 <= res.best_fidelity <= 2 / 3 + 1e-6
        assert res.max_objective_seen <= TWO_THIRDS + 1e-6

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(restarts=0)
        with pytest.raises(ValueError):
            OptimizerConfig(ancilla_dim=3)


class TestDirectionSet:
    def test_contains_poles_and_unit_rows(self):
        d = direction_set()
        assert d.shape == (68, 3)
        assert np.max(np.abs(np.linalg.norm(d, axis=1) - 1)) < 1e-12
        for pole in np.vstack([np.eye(3), -np.eye(3)]):
            assert np.min(np.linalg.norm(d - pole, axis=1)) < 1e-12

    def test_kets_match_bloch_convention(self, rng):
        d = rng.standard_normal((20, 3))
        d /= np.linalg.norm(d, axis=1)[:, None]
        kets = direction_kets(d)
        for row, k in zip(d, kets):
            assert np.max(np.abs(k - ket_by_angles(row))) < 1e-12
