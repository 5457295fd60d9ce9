from fractions import Fraction

import numpy as np
import pytest

from anticlone.linalg import basis_ket
from anticlone.probclone import (
    COUNT_MAX,
    PROBE_SUCCESS,
    CopySpec,
    ProbCloner,
    build_two_state_anticloner,
    max_feasible_f,
    run_prob_anticlone,
    two_state_efficiency,
)
from anticlone.qubit import QubitState, antiunitary_flip
from conftest import SUBNORMAL_H_COPIES, SUBNORMAL_H_PAIR, random_ket
from oracles import (
    max_feasible_f_by_bisection,
    output_gram_by_flipped_kets,
    two_state_images,
    two_state_unitary_by_correspondence,
)

THETA_GRID = (np.pi / 6, np.pi / 4, np.pi / 3, np.pi / 2)
# The grid plus angles near 0, where the images' entries span six decades
COMPLETION_GRID = THETA_GRID + (1e-6, 1e-5, 3e-3)


def pair_at_angle(theta):
    return [QubitState(1, 0), QubitState.normalized(np.cos(theta), np.sin(theta))]


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
        res = max_feasible_f([QubitState(1, 0), QubitState(0, 1)], CopySpec(1, 1))
        assert res.f_max == 1.0

    def test_three_dependent_states_cannot_be_cloned(self):
        trio = [QubitState(1, 0), QubitState(0, 1), QubitState.normalized(1, 1)]
        res = max_feasible_f(trio, CopySpec(1, 1))
        assert res.f_max < 1e-9
        # independent certificate: the Gram null vector k = (1, 1, -sqrt(2))
        # has k H k^dag = 4 - 2 sqrt(2) > 0, forcing f = 0
        k = np.array([1.0, 1.0, -np.sqrt(2.0)])
        assert abs(k @ res.gram_G @ k) < 1e-12
        quad = float(np.real(k @ res.gram_H @ k))
        assert abs(quad - (4 - 2 * np.sqrt(2))) < 1e-12

    def test_subnormal_h_entry_keeps_the_closed_form(self):
        states = [QubitState.normalized(complex(*a), complex(*b)) for a, b in SUBNORMAL_H_PAIR]
        res = max_feasible_f(states, CopySpec(*SUBNORMAL_H_COPIES))
        c = abs(np.vdot(states[0].ket(), states[1].ket()))
        assert abs(res.f_max - two_state_efficiency(c, *SUBNORMAL_H_COPIES)) <= 1e-9

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
            assert np.linalg.eigvalsh(pushed)[0] < 0

    def test_phase_redefinition_handles_complex_overlaps(self):
        s1 = QubitState(1, 0)
        s2 = QubitState.normalized(0.5 * np.exp(1.3j), np.sqrt(3) / 2)
        res = max_feasible_f([s1, s2], CopySpec(1, 1))
        assert abs(res.f_max - 2 / 3) < 1e-9
        assert abs(res.gram_G[0, 1].imag) < 1e-14
        assert res.gram_G[0, 1].real >= 0

    def test_matches_bisection_oracle(self, rng):
        # The oracle's -1e-12 eigenvalue slack overshoots by up to ~5e-9 here.
        oracle_tol = 1e-8
        copy_specs = [CopySpec(*mu) for mu in ((1, 1), (2, 1), (0, 3), (2, 0), (5, 5))]
        for i, c in enumerate([*rng.uniform(0.0, 0.9999, 30), 0.999, 0.9999]):
            a = random_ket(rng, 2)
            pair = [state(a), state(ket_at_overlap(rng, a, c))]
            overlap = abs(np.vdot(pair[0].ket(), pair[1].ket()))
            mu = copy_specs[i % len(copy_specs)]
            res = max_feasible_f(pair, mu)
            assert res.rank == res.distinct == 2
            assert abs(res.f_max - two_state_efficiency(overlap, mu.L, mu.M)) <= 1e-12
            oracle = max_feasible_f_by_bisection(res.gram_G, res.gram_H)
            assert abs(res.f_max - oracle) <= oracle_tol

        for n in range(3, 17):
            states = [state(random_ket(rng, 2)) for _ in range(n)]
            res = max_feasible_f(states, CopySpec(*(int(k) for k in rng.integers(1, 3, size=2))))
            assert res.rank == 2
            assert res.distinct == n
            assert res.f_max == 0.0
            assert max_feasible_f_by_bisection(res.gram_G, res.gram_H) <= 1e-9

        a = random_ket(rng, 2)
        b = ket_at_overlap(rng, a, 0.6)
        phase = np.exp(0.9j)
        pair_f = two_state_efficiency(0.6, 2, 1)
        for kets, expected, distinct in (
            ([a, phase * a], 1.0, 1),
            ([a, phase * a, b], pair_f, 2),
            ([a, b, phase * b, phase * a], pair_f, 2),
            ([a, phase * a, b, random_ket(rng, 2)], 0.0, 3),
        ):
            res = max_feasible_f([state(k) for k in kets], CopySpec(2, 1))
            assert abs(res.f_max - expected) <= 1e-12
            assert res.distinct == distinct
            oracle = max_feasible_f_by_bisection(res.gram_G, res.gram_H)
            assert abs(res.f_max - oracle) <= oracle_tol

    def test_phase_equivalence_of_targets(self, rng):
        # H = D G D^† for a diagonal phase matrix D: always at (1, 0); at
        # (0, 1) exactly when the states lie on one great circle, so a
        # rotated real trio qualifies and a generic complex trio does not;
        # never for three distinct states at L + M >= 2
        r = np.sqrt(0.5)
        real_trio = [np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([r, r])]
        rotation = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        rotated = [rotation @ k for k in real_trio]
        complex_trio = [np.array([1.0, 0.0]), np.array([r, r]), np.array([r, 1j * r])]
        for kets, mu, expected in (
            (complex_trio, (1, 0), True),
            ([random_ket(rng, 2) for _ in range(5)], (1, 0), True),
            (real_trio, (0, 1), True),
            (rotated, (0, 1), True),
            (complex_trio, (0, 1), False),
            (real_trio, (1, 1), False),
            (real_trio, (2, 0), False),
            (complex_trio, (0, 2), False),
        ):
            res = max_feasible_f([state(k) for k in kets], CopySpec(*mu))
            assert res.phase_equivalent is expected, (mu, kets)

    @pytest.mark.parametrize("gap", [5e-11, 1e-12, 3e-14, 1e-14])
    def test_near_duplicate_pair_is_rejected(self, gap):
        # two distinct states whose Gram eigenvalue 1 - c falls under RANK_TOL
        c = 1.0 - gap
        pair = [QubitState(1, 0), QubitState.normalized(c, np.sqrt(1 - c * c))]
        with pytest.raises(ValueError, match="RANK_TOL"):
            max_feasible_f(pair, CopySpec(1, 1))

    @pytest.mark.parametrize(
        "mu", [(0, 1), (1, 1), (2, 1), (1, 3)], ids=lambda mu: "L{}M{}".format(*mu)
    )
    def test_output_gram_matches_flipped_kets(self, mu, rng):
        for n in (2, 3, 5):
            # Any set is an SU(2) rotation, which commutes with the flip, of
            # one that starts at |0>. Real non-negative first amplitudes make
            # the library's phase alignment leave every ket bit for bit.
            c = rng.uniform(size=n - 1)
            z = np.sqrt(1 - c * c) * np.exp(2j * np.pi * rng.uniform(size=n - 1))
            states = [QubitState(1, 0), *(QubitState(*k) for k in zip(c, z))]
            res = max_feasible_f(states, CopySpec(*mu))
            oracle = output_gram_by_flipped_kets(states, *mu)
            assert np.max(np.abs(res.gram_H - oracle)) <= 1e-15


class TestTwoStateEfficiency:
    def test_matches_angle_formula(self):
        for theta in THETA_GRID:
            c = np.cos(theta)
            assert abs(two_state_efficiency(c) - (1 - c) / (1 - c**2)) < 1e-15

    def test_rejects_bad_overlap(self):
        with pytest.raises(ValueError):
            two_state_efficiency(1.5)

    def test_matches_exact_sums(self, rng):
        # 1 / sum_{j<k} c^j in exact rationals, for k = L + M up to 12
        for c in np.concatenate([rng.random(200), 1 - rng.random(50) * 1e-6]):
            for L, M in [(1, 0), (1, 1), (2, 1), (3, 4), (6, 6)]:
                exact = 1 / sum(Fraction(float(c)) ** j for j in range(L + M))
                got = two_state_efficiency(c, L, M)
                assert abs(Fraction(got) - exact) <= Fraction(5e-16) * exact

    def test_end_points(self):
        for L, M in [(1, 0), (1, 1), (5, 2)]:
            assert two_state_efficiency(0.0, L, M) == 1.0
            assert two_state_efficiency(1.0, L, M) == 1.0 / (L + M)

    def test_huge_copy_counts_reach_the_discrimination_limit(self):
        # c^k underflows, leaving 1 - c; at c = 1 - 2^-40 and k = 2^41,
        # c^k = exp(-2) to 1e-12
        assert two_state_efficiency(0.5, 10**18, 1) == 0.5
        assert two_state_efficiency(0.5, COUNT_MAX, COUNT_MAX) == 0.5
        got = two_state_efficiency(1 - 2.0**-40, 2**41 - 1, 1)
        assert got == pytest.approx(2.0**-40 / (1 - np.exp(-2)), rel=1e-11)

    @pytest.mark.parametrize("L, M", [(-1, 3), (3, -1), (0, 0), (COUNT_MAX + 1, 0), (1, COUNT_MAX + 1)])
    def test_rejects_copy_counts_copyspec_rejects(self, L, M):
        with pytest.raises(ValueError):
            CopySpec(L, M)
        with pytest.raises(ValueError):
            two_state_efficiency(0.5, L, M)


class TestBuildTwoStateAnticloner:
    @pytest.mark.parametrize("theta", COMPLETION_GRID)
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
            out = pc.u @ np.kron(np.kron(m.ket(), [1, 0]), PROBE_SUCCESS)
            target = np.sqrt(pc.f) * np.kron(
                np.kron(m.ket(), antiunitary_flip(m).ket()), PROBE_SUCCESS
            ) + np.sqrt(1 - pc.f) * np.kron(basis_ket(4, 0), basis_ket(2, 1))
            assert np.linalg.norm(out - target) < 1e-10

    @pytest.mark.parametrize("theta", COMPLETION_GRID)
    def test_qr_completion_keeps_the_images(self, theta):
        pc = build_two_state_anticloner(theta)
        n1, n2 = two_state_images(theta)
        assert np.array_equal(pc.u[:, 0b000], n1)
        assert np.array_equal(pc.u[:, 0b100], n2)

    @pytest.mark.parametrize("theta", COMPLETION_GRID)
    def test_runs_match_the_correspondence_oracle(self, theta):
        pc = build_two_state_anticloner(theta)
        old = ProbCloner(two_state_unitary_by_correspondence(theta), pc.theta, pc.f)
        # the oracle keeps the images as given, so both machines hold n1 and
        # n2 bit for bit in the only columns an input reaches: the runs are
        # equal on any CPU
        for which in (1, 2):
            assert run_prob_anticlone(pc, which, shots=1000, seed=3) == run_prob_anticlone(
                old, which, shots=1000, seed=3
            )

    def test_rejects_theta_out_of_range(self):
        for theta in (0.0, -0.3, np.pi / 2 + 0.01):
            with pytest.raises(ValueError):
                build_two_state_anticloner(theta)

    def test_efficiency_bound_enforced(self):
        pc = build_two_state_anticloner(np.pi / 3)
        with pytest.raises(ValueError):
            ProbCloner(pc.u, pc.theta, 0.9)


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

    def test_each_input_draws_once_from_its_own_stream(self):
        # input i draws its one binomial from stream (seed, i)
        from anticlone.rng import philox_stream

        pc = build_two_state_anticloner(np.pi / 3)
        for which in (1, 2):
            st = run_prob_anticlone(pc, which, shots=(1 << 16) + 100, seed=8)
            assert st.successes == philox_stream(8, which).binomial(st.shots, st.success_probability)

    def test_the_two_inputs_draw_independent_counts(self):
        # both inputs succeed with the same probability; counts drawn from
        # one stream would agree on every seed
        pc = build_two_state_anticloner(np.pi / 3)
        same = sum(
            run_prob_anticlone(pc, 1, shots=10**5, seed=seed).successes
            == run_prob_anticlone(pc, 2, shots=10**5, seed=seed).successes
            for seed in range(50)
        )
        assert same <= 2

    def test_largest_shot_count_is_one_draw(self):
        pc = build_two_state_anticloner(np.pi / 3)
        st = run_prob_anticlone(pc, 1, shots=COUNT_MAX, seed=0)
        sigma = np.sqrt(pc.f * (1 - pc.f) / COUNT_MAX)
        assert abs(st.successes / COUNT_MAX - pc.f) < 3 * sigma
        with pytest.raises(ValueError, match="shots must lie in"):
            run_prob_anticlone(pc, 1, shots=COUNT_MAX + 1)

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
        with pytest.raises(ValueError, match="non-empty"):
            max_feasible_f([])

    def test_copyspec_validation(self):
        with pytest.raises(ValueError):
            CopySpec(0, 0)
        assert CopySpec(0, 1).M == 1
