import numpy as np
import pytest

from anticlone.machine import (
    COEFF_KEYS,
    OPTIMAL_ETA,
    AnticlonerParams,
    anticlone,
    build_isometry,
    constraint_residuals,
    haar_directions,
    measure_prepare_baseline,
    optimal_params,
    output_states,
    target_forms,
)
from anticlone.qubit import BlochVector, QubitState, bloch_to_state, state_to_bloch
from oracles import partial_trace_by_sum, reduced_outputs_from_coefficients

PHASE = np.exp(1j * np.arccos(1 / np.sqrt(3)))
ROOT6 = np.sqrt(1 / 6)


@pytest.fixture(scope="module")
def params():
    return optimal_params()


@pytest.fixture(scope="module")
def isometry(params):
    return build_isometry(params)


class TestOptimalParams:
    def test_moduli(self, params):
        c = params.coeffs
        assert abs(abs(c["b"]) ** 2 - 0.5) < 1e-15
        assert abs(abs(c["bt"]) ** 2 - 0.5) < 1e-15
        for k in ("a", "c", "d", "at", "ct", "dt"):
            assert abs(abs(c[k]) - ROOT6) < 1e-15

    def test_phases(self, params):
        c = params.coeffs
        assert abs(np.angle(c["c"]) - np.pi) < 1e-15
        assert abs(np.angle(c["b"]) - np.arccos(1 / np.sqrt(3))) < 1e-15
        for k in ("a", "d", "at", "dt"):
            assert abs(np.angle(c[k])) < 1e-15

    def test_all_residuals_vanish(self, params):
        assert constraint_residuals(params).max_residual < 1e-12

    def test_structural_validation(self):
        with pytest.raises(ValueError):
            AnticlonerParams({k: 0.1 for k in COEFF_KEYS}, {k: np.ones(4) for k in COEFF_KEYS})


class TestBuildIsometry:
    def test_column_zero_amplitudes(self, isometry):
        col = isometry[:, 0]
        expected = np.zeros(16, dtype=complex)
        expected[0b0000] = ROOT6
        expected[0b0101] = np.sqrt(0.5) * PHASE
        expected[0b1001] = -ROOT6
        expected[0b1110] = ROOT6
        assert np.max(np.abs(col - expected)) < 1e-15

    def test_column_one_amplitudes(self, isometry):
        col = isometry[:, 1]
        expected = np.zeros(16, dtype=complex)
        expected[0b1101] = ROOT6
        expected[0b1000] = np.sqrt(0.5) * PHASE
        expected[0b0100] = -ROOT6
        expected[0b0011] = ROOT6
        assert np.max(np.abs(col - expected)) < 1e-15

    def test_is_isometry(self, isometry):
        assert np.max(np.abs(isometry.conj().T @ isometry - np.eye(2))) < 1e-12

    def test_invalid_parameters_raise(self, params):
        broken = params.replace_coeff("a", 0.9)
        with pytest.raises(ValueError):
            build_isometry(broken)


class TestAnticlone:
    def test_ground_state_outputs(self, isometry):
        out = anticlone(QubitState(1, 0), isometry)
        assert np.max(np.abs(out.rho1 - np.diag([2 / 3, 1 / 3]))) < 1e-12
        assert np.max(np.abs(out.rho2 - np.diag([1 / 3, 2 / 3]))) < 1e-12

    def test_plus_state_off_diagonals(self, isometry):
        out = anticlone(QubitState.normalized(1, 1), isometry)
        assert abs(out.rho1[0, 1] - 1 / 6) < 1e-12
        assert abs(out.rho2[0, 1] + 1 / 6) < 1e-12

    def test_fidelities_two_thirds_everywhere(self, isometry, rng):
        for _ in range(50):
            v = rng.standard_normal(3)
            n = BlochVector.from_array(v / np.linalg.norm(v))
            out = anticlone(bloch_to_state(n), isometry)
            assert abs(out.f1 - 2 / 3) < 1e-10
            assert abs(out.f2 - 2 / 3) < 1e-10
            assert abs(out.eta1 - OPTIMAL_ETA) < 1e-10
            assert abs(out.eta2 - OPTIMAL_ETA) < 1e-10

    def test_reduced_matrices_match_brute_force(self, isometry, rng):
        for _ in range(10):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = QubitState(*(v / np.linalg.norm(v)))
            out = anticlone(psi, isometry)
            rho_joint = np.outer(out.joint, out.joint.conj())
            assert np.allclose(
                out.rho1, partial_trace_by_sum(rho_joint, [2, 2, 2, 2], [0]), atol=1e-12
            )
            assert np.allclose(
                out.rho2, partial_trace_by_sum(rho_joint, [2, 2, 2, 2], [1]), atol=1e-12
            )

    def test_reduced_matrices_match_closed_form(self, params, isometry, rng):
        for _ in range(10):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            v /= np.linalg.norm(v)
            psi = QubitState(*v)
            out = anticlone(psi, isometry)
            r1, r2 = reduced_outputs_from_coefficients(params, psi.alpha, psi.beta)
            assert np.allclose(out.rho1, r1, atol=1e-12)
            assert np.allclose(out.rho2, r2, atol=1e-12)

    def test_closed_form_oracle_on_generic_parameters(self, rng):
        # closed form must track the partial trace for any valid machine,
        # not just the optimal one: build a random isometry-compatible set
        qs = np.linalg.qr(rng.standard_normal((16, 16))
                          + 1j * rng.standard_normal((16, 16)))[0][:, :2]
        # decompose columns back into coefficients and normalized ancillas
        coeffs, ancillas = {}, {}
        order = ((0, "a"), (1, "b"), (2, "c"), (3, "d"))
        order_t = ((3, "at"), (2, "bt"), (1, "ct"), (0, "dt"))
        for block, key in order:
            chunk = qs[4 * block: 4 * block + 4, 0]
            coeffs[key] = np.linalg.norm(chunk)
            ancillas[key] = chunk / coeffs[key]
        for block, key in order_t:
            chunk = qs[4 * block: 4 * block + 4, 1]
            coeffs[key] = np.linalg.norm(chunk)
            ancillas[key] = chunk / coeffs[key]
        p = AnticlonerParams(coeffs, ancillas)
        v = build_isometry(p)
        psi = QubitState.normalized(0.6, 0.8j)
        out = anticlone(psi, v)
        r1, r2 = reduced_outputs_from_coefficients(p, psi.alpha, psi.beta)
        assert np.allclose(out.rho1, r1, atol=1e-12)
        assert np.allclose(out.rho2, r2, atol=1e-12)

    def test_bloch_vectors_opposite(self, isometry, rng):
        for _ in range(20):
            v = rng.standard_normal(3)
            n = BlochVector.from_array(v / np.linalg.norm(v))
            out = anticlone(bloch_to_state(n), isometry)
            b1 = state_to_bloch(out.rho1).as_array()
            b2 = state_to_bloch(out.rho2).as_array()
            assert np.max(np.abs(b1 + b2)) < 1e-10

    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError):
            anticlone(QubitState(1, 0), np.ones((16, 2)))


class TestOutputStates:
    def test_flip_channel_matches_brute_force(self, rng):
        v = np.linalg.qr(rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2)))[0]
        kets = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        (rho,) = output_states(v, kets, 1)
        assert rho.shape == (6, 2, 2)
        for k, r in zip(kets, rho):
            joint = v @ k
            expected = partial_trace_by_sum(np.outer(joint, joint.conj()), [2, 4], [0])
            assert np.allclose(r, expected, atol=1e-12)

    def test_batch_axis_matches_single_isometries(self, isometry):
        vb = np.stack([isometry, isometry[::-1]])
        kets = np.array([[1.0, 0.0], [0.6, 0.8j]])
        rho1, rho2 = output_states(vb, kets, 2)
        assert rho1.shape == rho2.shape == (2, 2, 2, 2)
        for b, v in enumerate(vb):
            s1, s2 = output_states(v, kets, 2)
            assert np.array_equal(rho1[b], s1) and np.array_equal(rho2[b], s2)

    def test_rejects_rows_that_do_not_split(self):
        with pytest.raises(ValueError):
            output_states(np.zeros((6, 2)), np.array([[1.0, 0.0]]), 2)


class TestTargetForms:
    def test_stack_matches_single_directions(self):
        dirs = haar_directions(5, seed=3)
        t1, t2 = target_forms(dirs, 1 / 3)
        assert t1.shape == t2.shape == (5, 2, 2)
        for d, a, b in zip(dirs, t1, t2):
            s1, s2 = target_forms(BlochVector.from_array(d), 1 / 3)
            assert np.array_equal(a, s1) and np.array_equal(b, s2)

    def test_eta_zero(self):
        t1, t2 = target_forms(BlochVector(0, 0, 1), 0.0)
        assert np.allclose(t1, np.eye(2) / 2)
        assert np.allclose(t2, np.eye(2) / 2)

    def test_eta_one_poles(self):
        t1, t2 = target_forms(BlochVector(0, 0, 1), 1.0)
        assert np.allclose(t1, np.diag([1.0, 0.0]))
        assert np.allclose(t2, np.diag([0.0, 1.0]))

    def test_optimal_eta(self):
        t1, t2 = target_forms(BlochVector(0, 0, 1), 1 / 3)
        assert np.allclose(t1, np.diag([2 / 3, 1 / 3]))
        assert np.allclose(t2, np.diag([1 / 3, 2 / 3]))

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            target_forms(BlochVector(0, 0, 1), 1.5)


class TestConstraintResiduals:
    def test_modified_modulus_hits_normalization(self, params):
        b = params.coeffs["b"]
        modified = params.replace_coeff("b", np.sqrt(0.6) * b / abs(b))
        rep = constraint_residuals(modified)
        # hand computation: 1/6 + 0.6 + 1/6 + 1/6 = 1.1
        assert abs(rep.residuals["norm_input0"] - 0.1) < 1e-12
        assert rep.residuals["norm_input1"] < 1e-12
        assert abs(rep.residuals["sym_b"] - abs(np.sqrt(0.6) - np.sqrt(0.5))) < 1e-12

    def test_all_zero_coefficients(self, params):
        p = AnticlonerParams({k: 0.0 for k in COEFF_KEYS}, params.ancillas)
        rep = constraint_residuals(p)
        assert abs(rep.residuals["norm_input0"] - 1.0) < 1e-15
        assert abs(rep.residuals["norm_input1"] - 1.0) < 1e-15

    @pytest.mark.parametrize("key", COEFF_KEYS)
    def test_real_perturbation_detected(self, params, key):
        rep = constraint_residuals(params.replace_coeff(key, params.coeffs[key] + 1e-3))
        assert rep.max_residual > 1e-4

    @pytest.mark.parametrize("key", ("a", "b", "c", "at", "bt", "ct"))
    def test_imaginary_perturbation_detected(self, params, key):
        # d and dt are excluded: their phases are gauge freedom (every cross
        # term involving them carries a vanishing ancilla overlap), so a pure
        # phase rotation of those two coefficients changes nothing physical.
        rep = constraint_residuals(params.replace_coeff(key, params.coeffs[key] + 1e-3j))
        assert rep.max_residual > 1e-4

    def test_eta_values_agree_at_optimum(self, params):
        vals = constraint_residuals(params).eta_values
        for v in vals.values():
            assert abs(v - 1 / 3) < 1e-12


class TestMeasurePrepareBaseline:
    def test_converges_to_two_thirds(self):
        rep = measure_prepare_baseline(10**6, seed=3)
        assert abs(rep.avg_fidelity_anticlone - 2 / 3) < 3 * rep.stderr
        assert abs(rep.avg_fidelity_anticlone - 2 / 3) < 0.002

    def test_deterministic(self):
        a = measure_prepare_baseline(20000, seed=9)
        b = measure_prepare_baseline(20000, seed=9)
        assert a == b

    def test_seed_changes_result(self):
        a = measure_prepare_baseline(20000, seed=9)
        b = measure_prepare_baseline(20000, seed=10)
        assert a.avg_fidelity_anticlone != b.avg_fidelity_anticlone

    def test_aligned_basis_diagnostic(self):
        rep = measure_prepare_baseline(5000, seed=1, align_with_input=True)
        assert rep.avg_fidelity_clone == 1.0
        assert rep.avg_fidelity_anticlone == 1.0

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            measure_prepare_baseline(0)

    def test_matches_scalar_recomputation(self):
        # recompute a small run sample-by-sample from the same streams
        from anticlone.rng import philox_stream

        samples = 257
        rep = measure_prepare_baseline(samples, seed=4, batch_size=64)
        total1 = total2 = 0.0
        done = 0
        batch = 0
        while done < samples:
            m = min(64, samples - done)
            g = philox_stream(4, batch)
            n = g.standard_normal((m, 3))
            n /= np.linalg.norm(n, axis=1)[:, None]
            md = g.standard_normal((m, 3))
            md /= np.linalg.norm(md, axis=1)[:, None]
            r = g.random(m)
            for i in range(m):
                p = 0.5 * (1 + np.dot(n[i], md[i]))
                outcome = md[i] if r[i] < p else -md[i]
                total1 += 0.5 * (1 + np.dot(n[i], outcome))
                total2 += 0.5 * (1 - np.dot(n[i], -outcome))
            done += m
            batch += 1
        assert abs(rep.avg_fidelity_clone - total1 / samples) < 1e-12
        assert abs(rep.avg_fidelity_anticlone - total2 / samples) < 1e-12


class TestHaarDirections:
    def test_unit_rows(self):
        d = haar_directions(500, seed=0)
        assert np.max(np.abs(np.linalg.norm(d, axis=1) - 1)) < 1e-12

    def test_mean_near_zero(self):
        d = haar_directions(20000, seed=1)
        assert np.max(np.abs(d.mean(axis=0))) < 0.02
