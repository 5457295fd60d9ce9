import numpy as np
import pytest

from anticlone.linalg import hermitian_eigenvalues, tensor
from anticlone.probclone import (
    SHOT_BLOCK,
    CopySpec,
    ProbCloner,
    StateSet,
    build_two_state_anticloner,
    max_feasible_f,
    run_prob_anticlone,
    two_state_efficiency,
)
from anticlone.qubit import QubitState, antiunitary_flip
from conftest import random_ket
from oracles import max_feasible_f_by_bisection

THETA_GRID = (np.pi / 6, np.pi / 4, np.pi / 3, np.pi / 2)


def pair_at_angle(theta):
    return StateSet([QubitState(1, 0), QubitState.normalized(np.cos(theta), np.sin(theta))])


def state(ket):
    return QubitState.normalized(*ket)


def ket_at_overlap(rng, a, c):
    """A random-phase ket b with |<a|b>| = c."""
    orth = np.array([-np.conj(a[1]), np.conj(a[0])])
    phases = np.exp(2j * np.pi * rng.uniform(size=2))
    return phases[0] * (c * a + np.sqrt(1.0 - c * c) * phases[1] * orth)


class TestMaxFeasibleF:
    def test_half_overlap_single_pair(self):
        res = max_feasible_f(pair_at_angle(np.pi / 3), CopySpec(1, 1))
        assert abs(res.f_max - 2 / 3) < 1e-9

    def test_orthogonal_states_clone_perfectly(self):
        res = max_feasible_f(StateSet([QubitState(1, 0), QubitState(0, 1)]), CopySpec(1, 1))
        assert res.f_max == 1.0

    def test_three_dependent_states_cannot_be_cloned(self):
        trio = StateSet([QubitState(1, 0), QubitState(0, 1), QubitState.normalized(1, 1)])
        res = max_feasible_f(trio, CopySpec(1, 1))
        assert res.f_max < 1e-9
        # independent certificate: the Gram null vector k = (1, 1, -sqrt(2))
        # has k H k^dag = 4 - 2 sqrt(2) > 0, forcing f = 0
        k = np.array([1.0, 1.0, -np.sqrt(2.0)])
        assert abs(k @ res.gram_G @ k) < 1e-12
        quad = float(np.real(k @ res.gram_H @ k))
        assert abs(quad - (4 - 2 * np.sqrt(2))) < 1e-12

    def test_many_copies_approach_distinguishability(self):
        res = max_feasible_f(pair_at_angle(np.pi / 3), CopySpec(10, 10))
        assert abs(res.f_max - 0.5) < 1e-5

    @pytest.mark.parametrize("theta", THETA_GRID)
    @pytest.mark.parametrize("mu", [(1, 1), (2, 1), (5, 5), (10, 10)])
    def test_bisection_matches_closed_form(self, theta, mu):
        c = np.cos(theta)
        res = max_feasible_f(pair_at_angle(theta), CopySpec(*mu))
        assert abs(res.f_max - two_state_efficiency(c, *mu)) < 1e-9

    def test_monotone_in_copy_counts(self):
        s = pair_at_angle(np.pi / 4)
        previous = 1.1
        for total in range(2, 10):
            f = max_feasible_f(s, CopySpec(total - 1, 1)).f_max
            assert f <= previous + 1e-12
            previous = f

    def test_certificate_is_psd_and_binding(self):
        for theta in THETA_GRID[:-1]:
            res = max_feasible_f(pair_at_angle(theta), CopySpec(1, 1))
            assert res.min_eigenvalue_at_f >= -1e-9
            pushed = res.gram_G - (res.f_max + 1e-6) * res.gram_H
            assert hermitian_eigenvalues(pushed)[0] < 0

    def test_phase_redefinition_handles_complex_overlaps(self):
        s1 = QubitState(1, 0)
        s2 = QubitState.normalized(0.5 * np.exp(1.3j), np.sqrt(3) / 2)
        res = max_feasible_f(StateSet([s1, s2]), CopySpec(1, 1))
        assert abs(res.f_max - 2 / 3) < 1e-9
        assert abs(res.gram_G[0, 1].imag) < 1e-14
        assert res.gram_G[0, 1].real >= 0

    def test_matches_bisection_oracle(self, rng):
        # The oracle's -1e-12 eigenvalue slack overshoots by up to ~5e-9 here.
        oracle_tol = 1e-8
        copy_specs = [CopySpec(*mu) for mu in ((1, 1), (2, 1), (0, 3), (2, 0), (5, 5))]
        for i, c in enumerate([*rng.uniform(0.0, 0.9999, 30), 0.999, 0.9999]):
            a = random_ket(rng, 2)
            pair = StateSet([state(a), state(ket_at_overlap(rng, a, c))])
            overlap = abs(np.vdot(pair.states[0].ket(), pair.states[1].ket()))
            mu = copy_specs[i % len(copy_specs)]
            res = max_feasible_f(pair, mu)
            assert res.rank == 2
            assert abs(res.f_max - two_state_efficiency(overlap, mu.L, mu.M)) <= 1e-12
            oracle = max_feasible_f_by_bisection(res.gram_G, res.gram_H)
            assert abs(res.f_max - oracle) <= oracle_tol

        for n in range(3, 17):
            states = StateSet([state(random_ket(rng, 2)) for _ in range(n)])
            res = max_feasible_f(states, CopySpec(*(int(k) for k in rng.integers(1, 3, size=2))))
            assert res.rank == 2
            assert res.f_max == 0.0
            assert max_feasible_f_by_bisection(res.gram_G, res.gram_H) <= 1e-9

        a = random_ket(rng, 2)
        b = ket_at_overlap(rng, a, 0.6)
        phase = np.exp(0.9j)
        pair_f = two_state_efficiency(0.6, 2, 1)
        for kets, expected in (
            ([a, phase * a], 1.0),
            ([a, phase * a, b], pair_f),
            ([a, b, phase * b, phase * a], pair_f),
            ([a, phase * a, b, random_ket(rng, 2)], 0.0),
        ):
            res = max_feasible_f(StateSet([state(k) for k in kets]), CopySpec(2, 1))
            assert abs(res.f_max - expected) <= 1e-12
            oracle = max_feasible_f_by_bisection(res.gram_G, res.gram_H)
            assert abs(res.f_max - oracle) <= oracle_tol

    def test_flipped_gram_is_conjugate(self):
        s2 = QubitState.normalized(0.3 + 0.4j, np.sqrt(0.75))
        res = max_feasible_f(StateSet([QubitState(1, 0), s2]), CopySpec(0, 1))
        # with L=0, H is exactly the anti-aligned Gram, which must equal
        # the conjugate of the input Gram for an anti-unitary flip
        assert np.allclose(res.gram_H, res.gram_G.conj(), atol=1e-14)


class TestTwoStateEfficiency:
    def test_matches_angle_formula(self):
        for theta in THETA_GRID:
            c = np.cos(theta)
            assert abs(two_state_efficiency(c) - (1 - c) / (1 - c**2)) < 1e-15

    def test_rejects_bad_overlap(self):
        with pytest.raises(ValueError):
            two_state_efficiency(1.5)


class TestBuildTwoStateAnticloner:
    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_unitary_on_grid(self, theta):
        pc = build_two_state_anticloner(theta)
        assert np.max(np.abs(pc.u.conj().T @ pc.u - np.eye(8))) < 1e-12

    def test_first_image_amplitude(self):
        pc = build_two_state_anticloner(np.pi / 3)
        assert abs(pc.u[0b010, 0] - np.sqrt(2 / 3)) < 1e-12

    def test_right_angle_is_deterministic(self):
        pc = build_two_state_anticloner(np.pi / 2)
        assert pc.f == 1.0
        expected = np.zeros(8)
        expected[0b010] = 1.0
        assert np.array_equal(pc.u[:, 0], expected.astype(complex))

    @pytest.mark.parametrize("theta", THETA_GRID)
    def test_images_hit_success_failure_decomposition(self, theta):
        pc = build_two_state_anticloner(theta)
        for which in (1, 2):
            m = pc.input_state(which)
            out = pc.u @ tensor(m.ket(), [1, 0], pc.probe_success_ket)
            target = np.sqrt(pc.f) * tensor(
                m.ket(), antiunitary_flip(m).ket(), pc.probe_success_ket
            ) + np.sqrt(1 - pc.f) * tensor(pc.garbage, pc.probe_fail_ket)
            assert np.linalg.norm(out - target) < 1e-10

    def test_rejects_theta_out_of_range(self):
        for theta in (0.0, -0.3, np.pi / 2 + 0.01):
            with pytest.raises(ValueError):
                build_two_state_anticloner(theta)

    def test_efficiency_bound_enforced(self):
        pc = build_two_state_anticloner(np.pi / 3)
        with pytest.raises(ValueError):
            ProbCloner(pc.u, pc.theta, 0.9, pc.probe_success_ket, pc.probe_fail_ket, pc.garbage)


class TestRunProbAnticlone:
    def test_exact_mode_matches_efficiency(self):
        pc = build_two_state_anticloner(np.pi / 3)
        for which in (1, 2):
            st = run_prob_anticlone(pc, which, shots=0)
            assert abs(st.success_probability - pc.f) < 1e-12
            assert abs(st.post_selected_fidelity - 1.0) < 1e-12
            assert st.shots == 0 and st.successes == 0

    def test_shot_frequency_within_three_sigma(self):
        pc = build_two_state_anticloner(np.pi / 3)
        shots = 10**5
        sigma = np.sqrt(pc.f * (1 - pc.f) / shots)
        for which in (1, 2):
            st = run_prob_anticlone(pc, which, shots=shots, seed=11)
            assert abs(st.successes / shots - pc.f) < 3 * sigma

    def test_right_angle_always_succeeds(self):
        pc = build_two_state_anticloner(np.pi / 2)
        st = run_prob_anticlone(pc, 1, shots=2000, seed=0)
        assert st.successes == st.shots == 2000

    def test_deterministic(self):
        pc = build_two_state_anticloner(np.pi / 4)
        a = run_prob_anticlone(pc, 2, shots=5000, seed=21)
        b = run_prob_anticlone(pc, 2, shots=5000, seed=21)
        assert a == b

    def test_blocks_draw_from_their_own_streams(self):
        # block b of SHOT_BLOCK shots draws its binomial from stream (seed, b)
        from anticlone.rng import philox_stream

        pc = build_two_state_anticloner(np.pi / 3)
        st = run_prob_anticlone(pc, 1, shots=SHOT_BLOCK + 100, seed=8)
        counts = [philox_stream(8, b).binomial(n, st.success_probability)
                  for b, n in enumerate((SHOT_BLOCK, 100))]
        assert st.successes == sum(counts)

    def test_variance_halves_when_shots_double(self):
        pc = build_two_state_anticloner(np.pi / 3)
        freqs = {n: [] for n in (4000, 8000)}
        for seed in range(120):
            for n in freqs:
                st = run_prob_anticlone(pc, 1, shots=n, seed=seed)
                freqs[n].append(st.successes / n)
        v1, v2 = (np.var(freqs[n]) for n in (4000, 8000))
        assert 1.4 < v1 / v2 < 2.9

    def test_rejects_bad_input_index(self):
        pc = build_two_state_anticloner(np.pi / 3)
        with pytest.raises(ValueError):
            run_prob_anticlone(pc, 3, shots=10)


class TestStateSetAndCopySpec:
    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            StateSet([])

    def test_copyspec_validation(self):
        with pytest.raises(ValueError):
            CopySpec(0, 0)
        assert CopySpec(0, 1).M == 1
