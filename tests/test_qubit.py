import numpy as np
import pytest

from anticlone.qubit import (
    SIGMA_X,
    BlochVector,
    QubitState,
    antiunitary_flip,
    bloch_to_state,
    check_density_matrix,
)
from conftest import random_direction
from oracles import bloch_vector_by_trace, fidelity_along, flip_density


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
    """The oracle ``bloch_vector_by_trace``, and ``bloch_to_state`` through it."""

    def test_maximally_mixed(self):
        n = bloch_vector_by_trace(np.eye(2) / 2)
        assert np.linalg.norm(n) < 1e-14

    def test_ground_state(self):
        n = bloch_vector_by_trace(np.diag([1.0, 0.0]))
        assert np.allclose(n, [0, 0, 1])

    def test_shrunk_output_direction(self):
        rho = 0.5 * (np.eye(2) + (1 / 3) * SIGMA_X)
        n = bloch_vector_by_trace(rho)
        assert np.allclose(n, [1 / 3, 0, 0], atol=1e-14)

    def test_round_trip_on_pure_states(self, rng):
        for _ in range(50):
            n = BlochVector.from_array(random_direction(rng))
            s = bloch_to_state(n)
            back = bloch_vector_by_trace(s.density())
            assert np.max(np.abs(back - n.as_array())) < 1e-10

    def test_rejects_non_density(self):
        with pytest.raises(ValueError):
            bloch_vector_by_trace(np.array([[1.2, 0], [0, -0.2]]))  # not PSD


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
        with pytest.raises(ValueError):
            check_density_matrix(np.array(rho, dtype=complex))

    def test_fidelity_of_nan_matrix_raises(self):
        with pytest.raises(ValueError):
            fidelity_along(np.array([[np.nan, 0], [0, 1.0]]), BlochVector(0.0, 0.0, 1.0))


class TestAntiunitaryFlip:
    def test_flips_ground_state(self):
        out = antiunitary_flip(QubitState(1, 0))
        assert out.alpha == 0 and out.beta == 1

    def test_equator_antipode(self):
        s = QubitState.normalized(1, 1)
        out = antiunitary_flip(s)
        assert abs(out.alpha + 1 / np.sqrt(2)) < 1e-12
        assert abs(out.beta - 1 / np.sqrt(2)) < 1e-12
        assert np.allclose(bloch_vector_by_trace(out.density()), [-1, 0, 0], atol=1e-12)

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
            n = bloch_vector_by_trace(s.density())
            m = bloch_vector_by_trace(antiunitary_flip(s).density())
            assert np.max(np.abs(n + m)) < 1e-12

    def test_matches_density_flip_oracle(self, rng):
        for _ in range(20):
            s = random_state(rng)
            assert np.allclose(
                antiunitary_flip(s).density(), flip_density(s.density()), atol=1e-12
            )


class TestFidelityAndShrink:
    """The oracle ``fidelity_along`` against closed forms and the Bloch formula."""

    def test_pure_state_fidelity_one(self, rng):
        n = BlochVector.from_array(random_direction(rng))
        assert abs(fidelity_along(bloch_to_state(n).density(), n) - 1) < 1e-12

    def test_maximally_mixed_half(self, rng):
        n = BlochVector.from_array(random_direction(rng))
        assert abs(fidelity_along(np.eye(2) / 2, n) - 0.5) < 1e-14

    def test_one_third_shrunk_gives_two_thirds(self, rng):
        n = BlochVector.from_array(random_direction(rng))
        ns = sum(c * s for c, s in zip(n.as_array(), (SIGMA_X,
                 np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0]))))
        rho = 0.5 * (np.eye(2) + (1 / 3) * ns)
        assert abs(fidelity_along(rho, n) - 2 / 3) < 1e-12

    def test_matches_bloch_formula(self, rng):
        from conftest import random_density

        for _ in range(20):
            rho = random_density(rng, 2)
            n = BlochVector.from_array(random_direction(rng))
            direct = fidelity_along(rho, n)
            via_bloch = 0.5 * (1 + np.dot(n.as_array(), bloch_vector_by_trace(rho)))
            assert abs(direct - via_bloch) < 1e-12
