import time
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from anticlone.machine import build_isometry, optimal_params
from anticlone import optimize
from anticlone.optimize import (
    ARMIJO,
    CURVATURE_TOL,
    GAIN_TOL,
    MEMORY,
    SCHEDULE,
    STEP_FLOOR,
    STEP_SIZE,
    OptimizerConfig,
    _isometry_batch,
    _Objective,
    _two_loop,
    direction_set,
    optimize_spinflip,
    optimize_universal,
)
from anticlone.qubit import direction_kets
from conftest import DELETED_LAYERS
from oracles import (
    ObjectiveByMovedAxes,
    bfgs_inverse_hessian,
    clone_outputs_by_sum,
    fd_gradient,
    isometry_batch_by_norm,
    ket_by_angles,
    objective_spinflip,
    objective_universal,
    parameterize_isometry,
)

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


class Scored(NamedTuple):
    """One ``_Objective.evaluate`` call: its point and temperature, what it
    returned, and each gradient the ascent then asked of it."""

    temperature: float
    x: np.ndarray
    search: float
    hard: float
    gradients: list


def recorded_calls(monkeypatch, run, objective=_Objective):
    """``run()`` and every ``objective.evaluate`` call it made, in order."""
    calls = []
    original = objective.evaluate

    def recorded(self, x, temperature):
        search, hard, gradient = original(self, x, temperature)
        call = Scored(temperature, x.copy(), search, hard, [])
        calls.append(call)

        def recorded_gradient():
            call.gradients.append(gradient())
            return call.gradients[-1]

        return search, hard, recorded_gradient

    monkeypatch.setattr(objective, "evaluate", recorded)
    try:
        return run(), calls
    finally:
        monkeypatch.setattr(objective, "evaluate", original)


def call_bytes(calls):
    """The bits of each recorded call: temperature, point, search and hard
    values, and the gradients asked of it."""
    return [
        (c.temperature, c.x.tobytes(), np.float64(c.search).tobytes(),
         np.float64(c.hard).tobytes(), [g.tobytes() for g in c.gradients])
        for c in calls
    ]


def stage_shares(max_iters):
    shares = [max_iters // len(SCHEDULE)] * len(SCHEDULE)
    shares[-1] += max_iters % len(SCHEDULE)
    return shares


def replay(calls, cfg):
    """Replays recorded evaluate calls against the ascent's contract and
    returns, per restart, its stage start values, its trace (the hard value
    of each accepted step) and its iterations per stage.

    A stage scores its start point, where the previous stage ended. Each
    iteration asks for the gradient g at the current point x, then searches
    along a trial step p: while the stage has no (s, y) pairs, p points
    along g with the length of the restart's last accepted trial, carried
    across stages (STEP_SIZE before the restart's first); else p is the
    two-loop direction of the pairs of the stage's accepted steps (s.y
    above CURVATURE_TOL |s| |y|, the newest MEMORY of them). A trial
    that fails the Armijo condition s(x + p) >= s(x) + ARMIJO g.p is
    followed by its half. A step that gains less than GAIN_TOL ends the
    stage. No stage exceeds its share of max_iters; one that ends short has
    a line search whose next trial is under STEP_FLOOR (a zero gradient's at
    once) or a last step that gained less than GAIN_TOL. Gradients are asked
    only at stage starts and accepted trials, at most once at each."""
    shares = stage_shares(cfg.max_iters)
    stages = []
    for call in calls:
        if not stages or call.temperature != stages[-1][0].temperature:
            stages.append([])
        stages[-1].append(call)
    assert [stage[0].temperature for stage in stages] == list(SCHEDULE) * cfg.restarts

    restarts = []
    for k, (start, *searches) in enumerate(stages):
        if k % len(SCHEDULE) == 0:
            restarts.append(([], [], []))
            carried = STEP_SIZE
        else:
            assert start.x.tobytes() == x.tobytes()
        starts, trace, iterations = restarts[-1]
        starts.append(start.hard)
        x, s_cur, at = start.x, start.search, start
        pairs, previous, gain, iters, stopped = [], None, None, 0, False
        remaining = iter(searches)
        while at.gradients:
            (g,) = at.gradients
            if previous is not None:
                s, g_old = previous
                y = g_old - g
                if s.dot(y) > CURVATURE_TOL * np.linalg.norm(s) * np.linalg.norm(y):
                    pairs = (pairs + [(s, y, 1.0 / s.dot(y))])[-MEMORY:]
            gnorm = np.linalg.norm(g)
            trial = _two_loop(g, pairs) if pairs else carried * g / gnorm if gnorm else g
            while True:
                call = next(remaining, None)
                if call is None:
                    assert np.linalg.norm(trial) < STEP_FLOOR
                    stopped = True
                    break
                assert np.allclose(call.x - x, trial, rtol=1e-9, atol=1e-13)
                if call.search >= s_cur + ARMIJO * g.dot(call.x - x):
                    break
                assert not call.gradients
                trial = 0.5 * trial
            if stopped:
                break
            iters += 1
            carried = np.linalg.norm(trial)
            gain = call.search - s_cur
            previous = (call.x - x, g)
            x, s_cur, at = call.x, call.search, call
            trace.append(call.hard)
            if not gain >= GAIN_TOL:
                assert not at.gradients
        assert next(remaining, None) is None
        share = shares[k % len(SCHEDULE)]
        assert iters <= share
        assert stopped or iters == share or gain < GAIN_TOL
        iterations.append(iters)
    assert len(restarts) == cfg.restarts
    return restarts


def check_ascent(monkeypatch, run, cfg, init=None):
    """Runs the ascent, replays its calls and checks the result against the
    replay: the peak over every restart's stage starts and accepted points,
    the largest hard value of every point scored, and no (temperature,
    point) scored twice. Returns the result, the calls and the replay."""
    res, calls = recorded_calls(monkeypatch, lambda: run(cfg, init))
    restarts = replay(calls, cfg)
    peaks = [max(starts + trace) for starts, trace, _ in restarts]
    assert res.best_eta == 2.0 * max(peaks) - 1.0
    assert res.max_objective_seen == max(c.hard for c in calls)
    scored = [(c.temperature, c.x.tobytes()) for c in calls]
    assert len(set(scored)) == len(scored)
    return res, calls, restarts


def parallel_columns(rng, copies):
    """Flat parameters whose column 1 is a multiple of column 0."""
    half = rng.standard_normal(2 * 2**copies * 4)
    return np.concatenate([half, -2.5 * half])


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

    def test_nan_vector_divides_and_does_not_fall_back(self):
        # a NaN norm is not under DEGENERACY_TOL, so no basis-vector
        # fallback hides it
        with np.errstate(invalid="ignore"):
            v = parameterize_isometry(np.full(16, np.nan), 4)
        assert np.isnan(v).all()

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

    @pytest.mark.parametrize("shape", [(1, 64), (2, 64), (63,), (65,)])
    def test_only_one_flat_vector_is_scored(self, shape):
        objective = _Objective(2, 4, direction_set())
        with pytest.raises(ValueError, match="expected 64 real parameters"):
            objective.evaluate(np.zeros(shape), 1e-3)

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
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert np.float64(got[1]).tobytes() == np.float64(want[1]).tobytes()
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
        self.assert_same_point(parallel_columns(rng, copies), copies, 4, 3e-2)

    @staticmethod
    def assert_same_ascent(monkeypatch, run, cfg):
        got, got_calls = recorded_calls(monkeypatch, lambda: run(cfg))
        monkeypatch.setattr(optimize, "_Objective", ObjectiveByMovedAxes)
        want, want_calls = recorded_calls(monkeypatch, lambda: run(cfg), ObjectiveByMovedAxes)
        assert call_bytes(got_calls) == call_bytes(want_calls)
        assert got == want

    @pytest.mark.parametrize("run", [optimize_universal, optimize_spinflip])
    def test_short_ascent(self, monkeypatch, run):
        self.assert_same_ascent(monkeypatch, run, OptimizerConfig(restarts=1, max_iters=40, seed=2))

    @pytest.mark.parametrize("run", [optimize_universal, optimize_spinflip])
    def test_full_budget_ascent(self, monkeypatch, run):
        # the default budget runs each stage to its share or its stop rule,
        # late steps whose Armijo and gain tests turn on the last bits
        cfg = OptimizerConfig(restarts=1, seed=0)
        assert cfg.max_iters == 100
        self.assert_same_ascent(monkeypatch, run, cfg)


class TestRowsAreIndependent:
    """Each row of the batch oracle's two-row call gets the bits that the
    optimizer's one-point path gives that point alone, degenerate rows
    included. The optimizer scores one point per call; restarts batched
    along a row axis would start from the batch forms in ``oracles``, and
    this pins that those forms agree with it row by row."""

    @pytest.mark.parametrize("temperature", [3e-2, 1e-3])
    @pytest.mark.parametrize("copies", [1, 2])
    @pytest.mark.parametrize("pair", ["live-live", "zero-live", "live-parallel", "parallel-zero"])
    def test_row_matches_the_row_alone(self, rng, copies, temperature, pair):
        n = 4 * 2**copies * 4
        make = {"live": lambda: rng.standard_normal(n),
                "zero": lambda: np.zeros(n),
                "parallel": lambda: parallel_columns(rng, copies)}
        xs = np.array([make[kind]() for kind in pair.split("-")])
        objective = _Objective(copies, 4, direction_set())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            both = ObjectiveByMovedAxes(copies, 4, direction_set()).evaluate_rows(xs, temperature)
            vb = isometry_batch_by_norm(xs, objective.out_dim)
            for i in range(2):
                alone = objective.evaluate(xs[i], temperature)
                assert both[0][i].tobytes() == np.float64(alone[0]).tobytes()
                assert both[1][i].tobytes() == np.float64(alone[1]).tobytes()
                assert both[2](i).tobytes() == alone[2]().tobytes()
                assert vb[i].tobytes() == _isometry_batch(xs[i], objective.out_dim)[0].tobytes()


class TestTwoLoop:
    """The two-loop recursion against the dense BFGS inverse Hessian built
    from the same pairs (``oracles.bfgs_inverse_hessian``)."""

    @pytest.mark.parametrize("count", [1, 2, 5, MEMORY])
    def test_random_pairs(self, rng, count):
        # pairs of a convex quadratic, so every s.y is positive
        a = rng.standard_normal((64, 64))
        hessian = a @ a.T + 0.1 * np.eye(64)
        steps = rng.standard_normal((count, 64))
        pairs = [(s, hessian @ s, 1.0 / (s @ hessian @ s)) for s in steps]
        g = rng.standard_normal(64)
        want = bfgs_inverse_hessian([(s, y) for s, y, _ in pairs]) @ g
        assert np.linalg.norm(_two_loop(g, pairs) - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("run", [optimize_universal, optimize_spinflip])
    def test_ascent_pairs(self, monkeypatch, run):
        seen = []

        def recorded(g, pairs):
            seen.append((g, list(pairs), _two_loop(g, pairs)))
            return seen[-1][2]

        monkeypatch.setattr(optimize, "_two_loop", recorded)
        run(OptimizerConfig(restarts=1, seed=0))
        assert len(seen) > 20 and max(len(pairs) for _, pairs, _ in seen) == MEMORY
        for g, pairs, got in seen:
            want = bfgs_inverse_hessian([(s, y) for s, y, _ in pairs]) @ g
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


# (copies, seed, iterations): the restarts of optimize_plan(1) in
# perfbench/workloads.py, cycles 0-9, and the iterations of the 600 that
# the step-ladder ascent, which the L-BFGS ascent replaced, ran on each,
# each of which scored a point; the spin-flip restarts that ended short
# stopped at the ladder's step floor
BENCHMARK_RESTARTS = [
    (2, 1016164991, 600), (1, 1099128568, 537), (2, 1621709874, 600), (1, 2041105244, 600),
    (2, 74845286, 600), (1, 309580410, 577), (2, 1767258088, 600), (1, 2037209174, 576),
    (2, 535214420, 600), (1, 669652943, 565), (2, 1866217507, 600), (1, 909086626, 543),
    (2, 586626705, 600), (1, 1777477784, 579), (2, 551886180, 600), (1, 878748453, 519),
    (2, 1382612244, 600), (1, 1180243456, 572), (2, 184123696, 600), (1, 59182744, 530),
]


class TestLadderIsTheOneRowAscent:
    """Whole ascents replayed against the contract in ``replay``: one row
    per call, the halving line search and its Armijo acceptance, the L-BFGS
    pairs, the stage shares and stop rules, and the reported peak and
    largest value seen."""

    @staticmethod
    def replayed(monkeypatch, copies, cfg, init=None):
        run = optimize_universal if copies == 2 else optimize_spinflip
        return check_ascent(monkeypatch, run, cfg, init)

    @pytest.mark.parametrize("max_iters", [1, 2, 3, 5, 7, 13, 600])
    @pytest.mark.parametrize("ancilla", [1, 2, 4])
    @pytest.mark.parametrize("copies", [1, 2])
    def test_every_budget_and_ancilla(self, monkeypatch, copies, ancilla, max_iters):
        restarts = 1 if max_iters == 600 else 3
        cfg = OptimizerConfig(restarts=restarts, max_iters=max_iters, seed=11, ancilla_dim=ancilla)
        self.replayed(monkeypatch, copies, cfg)

    @pytest.mark.parametrize("copies", [1, 2])
    def test_zero_vector_start(self, monkeypatch, copies):
        # both columns fall back to basis kets, whose gradient is zero, so
        # every stage of restart 0 ends at its start
        cfg = OptimizerConfig(restarts=2, seed=4)
        init = np.zeros(4 * 2**copies * 4)
        _, _, restarts = self.replayed(monkeypatch, copies, cfg, init)
        assert restarts[0][2] == [0, 0, 0, 0]
        assert sum(restarts[1][2]) > 0

    def test_start_at_the_optimum(self, monkeypatch, x_opt):
        # at the budget under which universal restarts used to run every
        # iteration, a restart from the optimum ends each stage on its own
        # stop rule; at the default budget the warmest stage takes its share
        cfg = OptimizerConfig(restarts=1, max_iters=600, seed=0)
        res, _, restarts = self.replayed(monkeypatch, 2, cfg, x_opt)
        assert all(iters < share for iters, share in zip(restarts[0][2], stage_shares(600)))
        assert res.best_eta >= 1 / 3 - 1e-9
        # the spin flip from the best point a full ascent found: the first
        # point scored at the replay's peak value
        _, calls, restarts = self.replayed(monkeypatch, 1, cfg)
        peak = max(max(starts + trace) for starts, trace, _ in restarts)
        self.replayed(monkeypatch, 1, cfg, next(c.x for c in calls if c.hard == peak))

    @pytest.mark.parametrize("copies, seed, iterations", BENCHMARK_RESTARTS)
    def test_benchmark_restart(self, monkeypatch, copies, seed, iterations):
        res, calls, _ = self.replayed(monkeypatch, copies, OptimizerConfig(restarts=1, seed=seed))
        headline, target = (res.best_eta, 1 / 3) if copies == 2 else (res.best_fidelity, TWO_THIRDS)
        # the bands the campaign judges
        assert target - 1e-3 <= headline <= target + 1e-6
        assert res.max_objective_seen <= TWO_THIRDS + 1e-6
        # under half the points the ladder scored on this restart (46-80
        # points against 519-600)
        assert len(calls) < iterations / 2

    def test_benchmark_restarts_score_at_most_1250_points(self, monkeypatch):
        # a pairless step that starts from the restart's last accepted step
        # length, not STEP_SIZE, saves the colder stages most of their
        # halvings: the 20 restarts score 1150 points, against 1600 when
        # every stage's first step was STEP_SIZE long
        total = 0
        for copies, seed, _ in BENCHMARK_RESTARTS:
            run = optimize_universal if copies == 2 else optimize_spinflip
            cfg = OptimizerConfig(restarts=1, seed=seed)
            total += len(recorded_calls(monkeypatch, lambda: run(cfg))[1])
        assert total <= 1250

    # spin-flip restarts of `perfbench/run.py --workload optimize` that a
    # step ladder left short of 2/3: at --seed 77 by 1.14e-2, at --seed 59
    # by 1.04e-3
    @pytest.mark.parametrize("seed", [949080164, 2141633447])
    def test_slow_spinflip_restart_reaches_band(self, seed):
        res = optimize_spinflip(OptimizerConfig(restarts=1, seed=seed))
        assert 2 / 3 - 1e-3 <= res.best_fidelity <= 2 / 3 + 1e-6
        assert res.max_objective_seen <= TWO_THIRDS + 1e-6


class QuadraticObjective:
    """The search objective -|x|^2 / 2, also its own hard value, with the
    interface of ``optimize._Objective``: a surface whose steps are known in
    closed form."""

    def __init__(self, copies, ancilla_dim, directions):
        self.out_dim = 2**copies * ancilla_dim

    def evaluate(self, x, temperature):
        search = -0.5 * x.dot(x)
        return search, search, lambda: -x


class TestLineSearch:
    """The line search on ``QuadraticObjective``, one iteration in the
    coldest stage (``max_iters=1``) from x0 with |x0| = STEP_SIZE / a: the
    first trial lands at (1 - a) x0, which gains (a - a^2 / 2) |x0|^2 for
    the Armijo condition's ARMIJO a |x0|^2."""

    @staticmethod
    def scored(monkeypatch, a, cfg):
        """x0 = (STEP_SIZE / a) e0 and the evaluate calls of the run of
        ``cfg`` from it."""
        monkeypatch.setattr(optimize, "_Objective", QuadraticObjective)
        x0 = np.zeros(64)
        x0[0] = STEP_SIZE / a
        _, calls = recorded_calls(
            monkeypatch, lambda: optimize_universal(cfg, init=x0), QuadraticObjective
        )
        return x0, calls

    @classmethod
    def first_step(cls, monkeypatch, a):
        """The trace of that iteration from its replay, x0, and the point
        of each evaluate call: the four stage starts, then the line
        search's trials."""
        cfg = OptimizerConfig(restarts=1, max_iters=1)
        x0, calls = cls.scored(monkeypatch, a, cfg)
        ((_, trace, _),) = replay(calls, cfg)
        return trace, x0, [c.x for c in calls]

    def test_takes_the_full_trial_that_meets_armijo(self, monkeypatch):
        trace, x0, points = self.first_step(monkeypatch, 1.5)
        assert trace == [pytest.approx(-0.5 * (0.5 * x0[0]) ** 2, rel=1e-9)]
        assert [p[0] for p in points] == [x0[0]] * len(SCHEDULE) + [pytest.approx(-0.5 * x0[0])]

    def test_halves_a_trial_that_gains_less_than_armijo_asks(self, monkeypatch):
        # the trial at t gains (t a - (t a)^2 / 2) |x0|^2 against the
        # ARMIJO t a |x0|^2 asked: a = 1.9999 falls short at t = 1 and is
        # taken at t = 1/2; a = 3.9999 falls short at t = 1 and 1/2 and is
        # taken at t = 1/4, its third trial
        for a, t, trials in [(1.9999, 0.5, 2), (3.9999, 0.25, 3)]:
            for tried in [t * 2**k for k in range(trials)]:
                meets = tried * a - (tried * a) ** 2 / 2 >= ARMIJO * tried * a
                assert meets == (tried == t)
            trace, x0, points = self.first_step(monkeypatch, a)
            assert trace == [pytest.approx(-0.5 * ((1 - t * a) * x0[0]) ** 2, rel=1e-9)]
            assert len(points) == len(SCHEDULE) + trials

    def test_a_stage_starts_at_the_last_accepted_step_length(self, monkeypatch):
        # with one iteration per stage (max_iters=4), stage 0 takes its
        # third trial, t = 1/4 of STEP_SIZE, as above; stage 1 has no pairs,
        # so its first trial goes along its gradient with that length,
        # STEP_SIZE / 4, and restart 1 starts again from STEP_SIZE
        x0, calls = self.scored(monkeypatch, 3.9999, OptimizerConfig(restarts=2, max_iters=4))
        temperatures = [c.temperature for c in calls]
        assert temperatures[:5] == [SCHEDULE[0]] * 4 + [SCHEDULE[1]]
        stage1_start, first_trial = calls[4].x, calls[5].x
        assert stage1_start[0] == pytest.approx((1 - 0.25 * 3.9999) * x0[0], rel=1e-9)
        assert first_trial - stage1_start == pytest.approx(
            -(STEP_SIZE / 4) * stage1_start / np.linalg.norm(stage1_start), rel=1e-12, abs=1e-15
        )
        # the first call of restart 1 is its first at SCHEDULE[0] after a
        # call at a colder temperature
        k = next(i for i in range(1, len(calls))
                 if temperatures[i] == SCHEDULE[0] and temperatures[i - 1] != SCHEDULE[0])
        start, trial = calls[k].x, calls[k + 1].x
        assert not np.array_equal(start, x0)
        assert trial - start == pytest.approx(
            -STEP_SIZE * start / np.linalg.norm(start), rel=1e-12, abs=1e-15
        )

    def test_a_direction_that_is_not_uphill_ends_the_stage(self, monkeypatch):
        # a model that turns the gradient around finds no Armijo step above
        # the floor, so each stage ends after its first, gradient step: the
        # one trial of the stage at which the ascent asks for a gradient,
        # where the next stage starts, and above every trial after it
        monkeypatch.setattr(optimize, "_two_loop", lambda g, pairs: -g)
        monkeypatch.setattr(optimize, "_Objective", QuadraticObjective)
        x0 = np.full(64, 0.1)
        cfg = OptimizerConfig(restarts=1, max_iters=8)
        _, calls = recorded_calls(
            monkeypatch, lambda: optimize_universal(cfg, init=x0), QuadraticObjective
        )
        stages = [[c for c in calls if c.temperature == t] for t in SCHEDULE]
        trace = []
        for k, (_, *trials) in enumerate(stages):
            (i,) = [i for i, c in enumerate(trials) if c.gradients]
            trace.append(trials[i].hard)
            assert all(c.hard < trace[-1] for c in trials[i + 1:])
            if k + 1 < len(stages):
                assert stages[k + 1][0].x.tobytes() == trials[i].x.tobytes()
        start = -0.5 * x0.dot(x0)
        assert trace[0] > start
        assert all(f >= start for f in trace)


class TestOptimizeUniversal:
    def test_short_run_reaches_band(self, monkeypatch):
        cfg = OptimizerConfig(restarts=2, seed=5)
        res, _, _ = check_ascent(monkeypatch, optimize_universal, cfg)
        assert 1 / 3 - 1e-3 <= res.best_eta <= 1 / 3 + 1e-6
        assert res.max_objective_seen <= TWO_THIRDS + 1e-6

    def test_seeded_at_optimum_stays_there(self, x_opt):
        res = optimize_universal(OptimizerConfig(restarts=1, seed=0), init=x_opt)
        assert res.best_eta >= 1 / 3 - 1e-9
        assert res.best_eta <= 1 / 3 + 1e-6
        assert res.max_objective_seen <= TWO_THIRDS + 1e-6

    def test_no_ancilla_cannot_beat_bound(self):
        res = optimize_universal(OptimizerConfig(restarts=4, seed=7, ancilla_dim=1))
        assert res.best_eta <= 1 / 3 + 1e-6
        assert res.max_objective_seen <= TWO_THIRDS + 1e-6

    def test_deterministic(self, monkeypatch):
        cfg = OptimizerConfig(restarts=1, max_iters=40, seed=3)
        a, calls_a = recorded_calls(monkeypatch, lambda: optimize_universal(cfg))
        b, calls_b = recorded_calls(monkeypatch, lambda: optimize_universal(cfg))
        assert a == b
        assert call_bytes(calls_a) == call_bytes(calls_b)

    def test_result_invariants(self, monkeypatch):
        cfg = OptimizerConfig(restarts=2, max_iters=40, seed=1)
        res, _, restarts = check_ascent(monkeypatch, optimize_universal, cfg)
        assert all(len(trace) >= 1 for _, trace, _ in restarts)
        assert abs(res.best_fidelity - 0.5 * (1 + res.best_eta)) < 1e-15

    @pytest.mark.parametrize("iters", [3, 5, 7, 13, 100])
    def test_no_stage_exceeds_its_share(self, monkeypatch, iters):
        cfg = OptimizerConfig(restarts=1, max_iters=iters, seed=0)
        _, _, restarts = check_ascent(monkeypatch, optimize_universal, cfg)
        assert all(n <= share for n, share in zip(restarts[0][2], stage_shares(iters)))
        assert sum(restarts[0][2]) <= iters

    def test_each_point_is_evaluated_once(self, monkeypatch):
        # a call scores one point, a stage start or a line-search trial; no
        # (temperature, point) is scored twice (``check_ascent``), and a
        # stage start scores the previous stage's last point at a new
        # temperature
        cfg = OptimizerConfig(restarts=1, seed=0)
        for run, nparams in ((optimize_universal, 64), (optimize_spinflip, 32)):
            _, calls, restarts = check_ascent(monkeypatch, run, cfg)
            assert all(c.x.shape == (nparams,) for c in calls)
            points = {c.x.tobytes() for c in calls}
            assert len(points) == len(calls) - (len(SCHEDULE) - 1)
            iterations = sum(restarts[0][2])
            assert len(SCHEDULE) + iterations <= len(calls)


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

        assert sorted(missing) == DELETED_LAYERS
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
        # every evaluate call passes the projection, the values layer and
        # the softmin once, the values layer with a stack of one isometry: a
        # step that bypassed a traced layer would leave the benchmark's
        # per-restart counts unequal with no layer missing
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from layers import LAYERS
        from tracer import Tracer, patched, self_times

        cfg = OptimizerConfig(restarts=1, seed=0)
        untraced, calls = recorded_calls(monkeypatch, lambda: run(cfg))
        tracer = Tracer()
        with patched(tracer, LAYERS):
            res, traced_calls = recorded_calls(monkeypatch, lambda: run(cfg))
        assert res == untraced
        assert call_bytes(traced_calls) == call_bytes(calls)
        per_layer = self_times(tracer.spans)
        for name in ("optimize._isometry_batch", "optimize._softmin", values_layer):
            assert per_layer[name][0] == len(calls), name
        rows = tracer.counts[f"{values_layer}.rows"]
        assert rows == len(calls)


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
