import numpy as np
import pytest

from anticlone.qubit import (
    SIGMA_X,
    BlochVector,
    QubitState,
    antiunitary_flip,
    bloch_to_state,
    check_density_matrix,
    fidelity_direction,
    state_to_bloch,
)
from conftest import random_direction
from oracles import flip_density


def raw_flip(v):
    return np.array([-np.conj(v[1]), np.conj(v[0])])


def random_state(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    v /= np.linalg.norm(v)
    return QubitState(v[0], v[1])


class TestBlochVector:
    def test_rejects_norm_above_one(self):
        with pytest.raises(ValueError):
            BlochVector(1.0, 1.0, 0.0)

    def test_negation(self):
        n = BlochVector(0.6, 0.0, 0.8)
        assert (-n).as_array().tolist() == [-0.6, -0.0, -0.8]


class TestQubitState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            QubitState(1.0, 1.0)

    def test_normalized_constructor(self):
        s = QubitState.normalized(3.0, 4.0j)
        assert abs(abs(s.alpha) ** 2 + abs(s.beta) ** 2 - 1) < 1e-15


class TestBlochToState:
    def test_north_pole(self):
        s = bloch_to_state(BlochVector(0, 0, 1))
        assert s.alpha == 1 and s.beta == 0

    def test_x_axis(self):
        s = bloch_to_state(BlochVector(1, 0, 0))
        assert abs(s.alpha - 1 / np.sqrt(2)) < 1e-12
        assert abs(s.beta - 1 / np.sqrt(2)) < 1e-12

    def test_y_axis(self):
        s = bloch_to_state(BlochVector(0, 1, 0))
        assert abs(s.alpha - 1 / np.sqrt(2)) < 1e-12
        assert abs(s.beta - 1j / np.sqrt(2)) < 1e-12

    def test_south_pole_phase_convention(self):
        s = bloch_to_state(BlochVector(0, 0, -1))
        assert s.alpha == 0 and s.beta == 1

    def test_near_south_pole_keeps_beta_real(self):
        s = bloch_to_state(BlochVector(1e-13, 1e-13, -1.0))
        assert s.alpha == 0 and s.beta == 1

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            bloch_to_state(BlochVector(0.5, 0, 0))


class TestStateToBloch:
    def test_maximally_mixed(self):
        n = state_to_bloch(np.eye(2) / 2)
        assert n.norm() < 1e-14

    def test_ground_state(self):
        n = state_to_bloch(np.diag([1.0, 0.0]))
        assert np.allclose(n.as_array(), [0, 0, 1])

    def test_shrunk_output_direction(self):
        rho = 0.5 * (np.eye(2) + (1 / 3) * SIGMA_X)
        n = state_to_bloch(rho)
        assert np.allclose(n.as_array(), [1 / 3, 0, 0], atol=1e-14)

    def test_round_trip_on_pure_states(self, rng):
        for _ in range(50):
            n = BlochVector.from_array(random_direction(rng))
            s = bloch_to_state(n)
            back = state_to_bloch(s.density())
            assert np.max(np.abs(back.as_array() - n.as_array())) < 1e-10

    def test_rejects_non_density(self):
        with pytest.raises(ValueError):
            state_to_bloch(np.array([[1.2, 0], [0, -0.2]]))  # not PSD


NON_FINITE = [
    [[np.nan, 0], [0, 1]],
    [[np.inf, 0], [0, 1]],
    [[0.5, np.nan], [np.nan, 0.5]],
    [[0.5, np.inf], [np.inf, 0.5]],
    [[0.5, -np.inf], [-np.inf, 0.5]],
]


class TestCheckDensityMatrix:
    @pytest.mark.parametrize("rho", NON_FINITE)
    def test_rejects_non_finite_entries(self, rho):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            check_density_matrix(np.array(rho, dtype=complex))

    def test_fidelity_of_nan_matrix_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            fidelity_direction(np.array([[np.nan, 0], [0, 1.0]]), BlochVector(0.0, 0.0, 1.0))


class TestAntiunitaryFlip:
    def test_flips_ground_state(self):
        out = antiunitary_flip(QubitState(1, 0))
        assert out.alpha == 0 and out.beta == 1

    def test_equator_antipode(self):
        s = QubitState.normalized(1, 1)
        out = antiunitary_flip(s)
        assert abs(out.alpha + 1 / np.sqrt(2)) < 1e-12
        assert abs(out.beta - 1 / np.sqrt(2)) < 1e-12
        assert np.allclose(state_to_bloch(out.density()).as_array(), [-1, 0, 0], atol=1e-12)

    def test_double_flip_is_minus_identity(self, rng):
        for _ in range(20):
            s = random_state(rng)
            out = antiunitary_flip(antiunitary_flip(s))
            assert abs(out.alpha + s.alpha) < 1e-14
            assert abs(out.beta + s.beta) < 1e-14

    def test_preserves_overlap_modulus(self, rng):
        for _ in range(20):
            s, t = random_state(rng), random_state(rng)
            before = abs(np.vdot(s.ket(), t.ket()))
            after = abs(np.vdot(antiunitary_flip(s).ket(), antiunitary_flip(t).ket()))
            assert abs(before - after) < 1e-13

    def test_antilinearity(self, rng):
        for _ in range(20):
            s, t = random_state(rng), random_state(rng)
            a = complex(rng.standard_normal(), rng.standard_normal())
            b = complex(rng.standard_normal(), rng.standard_normal())
            combo = a * s.ket() + b * t.ket()
            norm = np.linalg.norm(combo)
            if norm < 1e-6:
                continue
            lhs = antiunitary_flip(QubitState(*(combo / norm))).ket()
            rhs = (np.conj(a) * raw_flip(s.ket()) + np.conj(b) * raw_flip(t.ket())) / norm
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_negates_bloch_vector(self, rng):
        for _ in range(30):
            s = random_state(rng)
            n = state_to_bloch(s.density()).as_array()
            m = state_to_bloch(antiunitary_flip(s).density()).as_array()
            assert np.max(np.abs(n + m)) < 1e-12

    def test_matches_density_flip_oracle(self, rng):
        for _ in range(20):
            s = random_state(rng)
            assert np.allclose(
                antiunitary_flip(s).density(), flip_density(s.density()), atol=1e-12
            )


class TestFidelityAndShrink:
    def test_pure_state_fidelity_one(self, rng):
        n = BlochVector.from_array(random_direction(rng))
        assert abs(fidelity_direction(bloch_to_state(n).density(), n) - 1) < 1e-12

    def test_maximally_mixed_half(self, rng):
        n = BlochVector.from_array(random_direction(rng))
        assert abs(fidelity_direction(np.eye(2) / 2, n) - 0.5) < 1e-14

    def test_one_third_shrunk_gives_two_thirds(self, rng):
        n = BlochVector.from_array(random_direction(rng))
        ns = sum(c * s for c, s in zip(n.as_array(), (SIGMA_X,
                 np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))))
        rho = 0.5 * (np.eye(2) + (1 / 3) * ns)
        assert abs(fidelity_direction(rho, n) - 2 / 3) < 1e-12

    def test_matches_bloch_formula(self, rng):
        from conftest import random_density

        for _ in range(20):
            rho = random_density(rng, 2)
            n = BlochVector.from_array(random_direction(rng))
            direct = fidelity_direction(rho, n)
            via_bloch = 0.5 * (1 + np.dot(n.as_array(), state_to_bloch(rho).as_array()))
            assert abs(direct - via_bloch) < 1e-12
