import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from itertools import groupby
from pathlib import Path

import numpy as np
import pytest

from anticlone import machine
from anticlone.machine import (
    BASELINE_BLOCK,
    BASELINE_ROUND,
    COEFF_KEYS,
    OPTIMAL_ETA,
    FidelityKernel,
    anticlone,
    anticlone_all,
    build_isometry,
    constraint_residuals,
    haar_directions,
    measure_prepare_baseline,
    measure_prepare_pole_average,
    optimal_params,
    output_states,
    target_forms,
)
from anticlone.rng import pcg_stream
from anticlone.qubit import (
    BlochVector,
    QubitState,
    antiunitary_flip,
    bloch_to_state,
    direction_kets,
)
from conftest import DELETED_LAYERS, coefficients, with_coefficient
from oracles import (
    bloch_vector_by_trace,
    fd_gradient,
    fidelities_adjoint_by_moved_axes,
    fidelities_by_bloch,
    fidelities_from_states,
    haar_pair_dots,
    kernel_fidelities,
    measure_prepare_baseline_serial,
    measure_prepare_by_directions,
    parameterize_isometry,
    partial_trace_by_sum,
    reduced_outputs_from_coefficients,
)

PHASE = np.exp(1j * np.arccos(1 / np.sqrt(3)))
ROOT6 = np.sqrt(1 / 6)


@pytest.fixture(scope="module")
def params():
    return optimal_params()


@pytest.fixture(scope="module")
def coeffs(params):
    return dict(zip(COEFF_KEYS, coefficients(params)))


@pytest.fixture(scope="module")
def isometry(params):
    return build_isometry(params)


class TestOptimalParams:
    def test_moduli(self, params):
        norms = dict(zip(COEFF_KEYS, np.linalg.norm(params, axis=1)))
        assert abs(norms["b"] ** 2 - 0.5) < 1e-15
        assert abs(norms["bt"] ** 2 - 0.5) < 1e-15
        for k in ("a", "c", "d", "at", "ct", "dt"):
            assert abs(norms[k] - ROOT6) < 1e-15

    def test_phases(self, coeffs):
        assert abs(np.angle(coeffs["c"]) - np.pi) < 1e-15
        assert abs(np.angle(coeffs["b"]) - np.arccos(1 / np.sqrt(3))) < 1e-15
        for k in ("a", "d", "at", "dt"):
            assert abs(np.angle(coeffs[k])) < 1e-15

    def test_all_residuals_vanish(self, params):
        assert constraint_residuals(params).max_residual < 1e-12

    def test_structural_validation(self, params):
        # one row per coefficient key, one column per ancilla basis ket
        for table in (params[:, :3], params[:7]):
            with pytest.raises(ValueError, match=r"expected an \(8, 4\) block table"):
                build_isometry(table)
            with pytest.raises(ValueError, match=r"expected an \(8, 4\) block table"):
                constraint_residuals(table)


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
        broken = with_coefficient(params, "a", 0.9)
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
            assert abs(2 * out.f1 - 1 - OPTIMAL_ETA) < 1e-10
            assert abs(2 * out.f2 - 1 - OPTIMAL_ETA) < 1e-10

    def test_reduced_matrices_match_brute_force(self, isometry, rng):
        for _ in range(10):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = QubitState(*(v / np.linalg.norm(v)))
            out = anticlone(psi, isometry)
            joint = isometry @ psi.ket()
            rho_joint = np.outer(joint, joint.conj())
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
        # not just the optimal one: a random isometry's 4-vector blocks, a,
        # b, c, d down column 0 and at, bt, ct, dt up column 1
        qs = np.linalg.qr(rng.standard_normal((16, 16))
                          + 1j * rng.standard_normal((16, 16)))[0][:, :2]
        blocks = np.concatenate([qs[:, 0].reshape(4, 4), qs[:, 1].reshape(4, 4)[::-1]])
        v = build_isometry(blocks)
        assert np.array_equal(v, qs)
        psi = QubitState.normalized(0.6, 0.8j)
        out = anticlone(psi, v)
        r1, r2 = reduced_outputs_from_coefficients(blocks, psi.alpha, psi.beta)
        assert np.allclose(out.rho1, r1, atol=1e-12)
        assert np.allclose(out.rho2, r2, atol=1e-12)

    def test_bloch_vectors_opposite(self, isometry, rng):
        for _ in range(20):
            v = rng.standard_normal(3)
            n = BlochVector.from_array(v / np.linalg.norm(v))
            out = anticlone(bloch_to_state(n), isometry)
            b1 = bloch_vector_by_trace(out.rho1)
            b2 = bloch_vector_by_trace(out.rho2)
            assert np.max(np.abs(b1 + b2)) < 1e-10

    @pytest.mark.parametrize("ancilla_dim", [1, 2, 4])
    def test_fidelities_match_bloch_round_trip(self, ancilla_dim, rng):
        for _ in range(10):
            shape = (4 * ancilla_dim, 2)
            v = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            psi = QubitState(*(a / np.linalg.norm(a)))
            out = anticlone(psi, v)
            k, k_opp = psi.ket(), antiunitary_flip(psi).ket()
            f1, f2 = fidelities_by_bloch(psi, out.rho1, out.rho2)
            # the round trip rounds more: 0.05% of 24000 random cases exceed
            # 1e-15, the worst by 4.4e-15
            assert abs(out.f1 - f1) < 1e-14
            assert abs(out.f2 - f2) < 1e-14
            g1, g2 = kernel_fidelities(v, k[None], (k[None], k_opp[None]))
            assert abs(out.f1 - g1) < 1e-14
            assert abs(out.f2 - g2) < 1e-14

    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError):
            anticlone(QubitState(1, 0), np.ones((16, 2)))


def _same_outputs(a, b) -> bool:
    def key(out):
        return out.rho1.tobytes(), out.rho2.tobytes(), out.f1, out.f2

    return key(a) == key(b)


class TestAnticloneAll:
    """One machine gate for many inputs; each input's output must equal, to
    the bit, what ``anticlone`` gives for that input alone."""

    def test_optimal_machine_over_haar_states_equals_one_at_a_time(self, isometry):
        states = [QubitState(*k) for k in direction_kets(haar_directions(200, seed=8))]
        outs = anticlone_all(states, isometry)
        assert len(outs) == len(states)
        assert all(_same_outputs(out, anticlone(psi, isometry)) for psi, out in zip(states, outs))

    @pytest.mark.parametrize("ancilla_dim", [1, 2, 4])
    def test_random_isometries_equal_one_at_a_time(self, ancilla_dim, rng):
        shape = (4 * ancilla_dim, 2)
        v = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
        kets = rng.standard_normal((30, 2)) + 1j * rng.standard_normal((30, 2))
        states = [QubitState(*(k / np.linalg.norm(k))) for k in kets]
        outs = anticlone_all(states, v)
        assert all(_same_outputs(out, anticlone(psi, v)) for psi, out in zip(states, outs))

    def test_empty_list_for_a_valid_machine(self, isometry):
        assert anticlone_all([], isometry) == []

    @pytest.mark.parametrize("states", [[], [QubitState(1, 0)]], ids=["empty", "one"])
    @pytest.mark.parametrize("v, message", [
        (np.ones((16, 2)), "the machine is not an isometry"),
        (np.eye(16)[:, :3], "expected an isometry with two columns"),
        (np.ones(16), "expected an isometry with two columns"),
    ], ids=["non-isometry", "three-columns", "one-axis"])
    def test_every_machine_goes_through_the_gate(self, states, v, message):
        with pytest.raises(ValueError, match=message):
            anticlone_all(states, v)


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


def _random_isometries(rng, rows, out_dim):
    return np.stack([parameterize_isometry(x, out_dim) for x in rng.standard_normal((rows, 4 * out_dim))])


class TestOutputFidelities:
    """``FidelityKernel``, the optimizer's project-then-norm kernel, against
    contractions of the reduced states."""

    @pytest.mark.parametrize("lead", [(), (1,), (7,), (128,)])
    @pytest.mark.parametrize("copies", [1, 2])
    @pytest.mark.parametrize("ancilla", [1, 2, 4])
    def test_matches_contracted_states(self, rng, lead, copies, ancilla):
        out_dim = 2**copies * ancilla
        v = _random_isometries(rng, int(np.prod(lead)), out_dim).reshape(lead + (out_dim, 2))
        kets = direction_kets(haar_directions(68, seed=2))
        targets = tuple(direction_kets(haar_directions(68, seed=5 + q)) for q in range(copies))
        got = kernel_fidelities(v, kets, targets)
        assert got.shape == lead + (copies * 68,)
        assert np.max(np.abs(got - fidelities_from_states(v, kets, targets))) <= 1e-14
        assert got.min() >= 0.0 and got.max() <= 1.0 + 1e-15

    def test_batch_rows_equal_single_isometries(self, rng):
        v = _random_isometries(rng, 128, 16)
        kets = direction_kets(haar_directions(68, seed=3))
        targets = (kets, direction_kets(haar_directions(68, seed=5)))
        batch = kernel_fidelities(v, kets, targets)
        for b in (0, 63, 127):
            assert np.array_equal(batch[b], kernel_fidelities(v[b], kets, targets))


def _adjoint(v, kets, targets, weights):
    """``FidelityKernel``'s adjoint at ``v`` from its forward amplitudes, as the
    optimizer takes it."""
    kernel = FidelityKernel(kets, targets, v.shape[-2])
    return kernel.adjoint(kernel.amplitudes(v), weights)


class TestOutputFidelitiesAdjoint:
    """The adjoint of the kernel against central differences of w . f in
    the real and imaginary parts of V."""

    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("copies", [1, 2])
    @pytest.mark.parametrize("ancilla", [1, 2, 4])
    def test_matches_finite_differences(self, rng, lead, copies, ancilla):
        out_dim = 2**copies * ancilla
        shape = lead + (out_dim, 2)
        v = _random_isometries(rng, int(np.prod(lead)), out_dim).reshape(shape)
        kets = direction_kets(haar_directions(20, seed=2))
        targets = tuple(direction_kets(haar_directions(20, seed=5 + q)) for q in range(copies))
        weights = rng.random(lead + (copies * 20,))

        def weighted(xb):
            vb = (xb[:, 0::2] + 1j * xb[:, 1::2]).reshape((-1,) + shape)
            per_point = weights * kernel_fidelities(vb, kets, targets)
            return per_point.reshape(len(xb), -1).sum(axis=1)

        x = np.stack([v.real, v.imag], axis=-1).ravel()
        want = fd_gradient(weighted, x)
        g = _adjoint(v, kets, targets, weights)
        got = np.stack([g.real, g.imag], axis=-1).ravel()
        assert np.linalg.norm(got - want) <= 1e-6 * np.linalg.norm(want)

    @pytest.mark.parametrize("copies", [1, 2])
    @pytest.mark.parametrize("ancilla", [1, 2, 4])
    def test_batch_rows_equal_single_isometries(self, rng, copies, ancilla):
        # the stacked product's per-qubit gradients are summed onto V's
        # entries through the inverse row maps: every batch row must be its
        # isometry's alone, and the sum that of per-qubit write-backs into
        # zeros, to the bit (sign of zero included)
        v = _random_isometries(rng, 32, 2**copies * ancilla)
        kets = direction_kets(haar_directions(68, seed=3))
        targets = tuple(direction_kets(haar_directions(68, seed=5 + q)) for q in range(copies))
        weights = rng.random((32, copies * 68))
        batch = _adjoint(v, kets, targets, weights)
        want = fidelities_adjoint_by_moved_axes(v, kets, targets, weights)
        assert batch.tobytes() == want.tobytes()
        for b in (0, 15, 31):
            single = _adjoint(v[b], kets, targets, weights[b])
            assert single.tobytes() == batch[b].tobytes()


class TestOutputStatesAcrossThreads:
    """A caller may split a stacked batch over its own threads; both kernels
    keep no shared state and treat each isometry on its own, so the parts
    must equal one whole-batch call to the bit."""

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("copies", [1, 2])
    @pytest.mark.parametrize("ancilla", [1, 2, 4])
    def test_bitwise_equal_to_one_thread(self, rng, workers, copies, ancilla):
        kets = direction_kets(haar_directions(68, seed=2))
        targets = tuple(direction_kets(haar_directions(68, seed=5 + q)) for q in range(copies))
        for rows in (1, 2, 7, 128):
            v = _random_isometries(rng, rows, 2**copies * ancilla)
            inline = output_states(v, kets, copies)
            inline_f = kernel_fidelities(v, kets, targets)
            chunks = np.array_split(v, min(workers, rows))
            with ThreadPoolExecutor(max_workers=workers) as pool:
                parts = list(pool.map(lambda c: output_states(c, kets, copies), chunks))
                parts_f = list(pool.map(lambda c: kernel_fidelities(c, kets, targets), chunks))
            split = tuple(np.concatenate(qubit) for qubit in zip(*parts))
            assert len(split) == len(inline) == copies
            for a, b in zip(inline, split):
                assert a.shape == b.shape == (rows, 68, 2, 2)
                assert np.array_equal(a.view(float), b.view(float))
            split_f = np.concatenate(parts_f)
            assert inline_f.shape == split_f.shape == (rows, copies * 68)
            assert np.array_equal(inline_f, split_f)


class TestTargetForms:
    def test_stack_matches_single_directions(self):
        dirs = haar_directions(5, seed=3)
        t1, t2 = target_forms(dirs, 1 / 3)
        assert t1.shape == t2.shape == (5, 2, 2)
        for d, a, b in zip(dirs, t1, t2):
            s1, s2 = target_forms(d, 1 / 3)
            assert np.array_equal(a, s1) and np.array_equal(b, s2)

    def test_eta_zero(self):
        t1, t2 = target_forms([0, 0, 1], 0.0)
        assert np.allclose(t1, np.eye(2) / 2)
        assert np.allclose(t2, np.eye(2) / 2)

    def test_eta_one_poles(self):
        t1, t2 = target_forms([0, 0, 1], 1.0)
        assert np.allclose(t1, np.diag([1.0, 0.0]))
        assert np.allclose(t2, np.diag([0.0, 1.0]))

    def test_optimal_eta(self):
        t1, t2 = target_forms([0, 0, 1], 1 / 3)
        assert np.allclose(t1, np.diag([2 / 3, 1 / 3]))
        assert np.allclose(t2, np.diag([1 / 3, 2 / 3]))

    def test_rejects_bad_eta(self):
        with pytest.raises(ValueError):
            target_forms([0, 0, 1], 1.5)


class TestConstraintResiduals:
    def test_modified_modulus_hits_normalization(self, params, coeffs):
        b = coeffs["b"]
        modified = with_coefficient(params, "b", np.sqrt(0.6) * b / abs(b))
        rep = constraint_residuals(modified)
        # hand computation: 1/6 + 0.6 + 1/6 + 1/6 = 1.1
        assert abs(rep.residuals["norm_input0"] - 0.1) < 1e-12
        assert rep.residuals["norm_input1"] < 1e-12
        assert abs(rep.residuals["sym_b"] - abs(np.sqrt(0.6) - np.sqrt(0.5))) < 1e-12

    def test_all_zero_coefficients(self, params):
        rep = constraint_residuals(np.zeros_like(params))
        assert abs(rep.residuals["norm_input0"] - 1.0) < 1e-15
        assert abs(rep.residuals["norm_input1"] - 1.0) < 1e-15

    @pytest.mark.parametrize("key", COEFF_KEYS)
    def test_real_perturbation_detected(self, params, coeffs, key):
        rep = constraint_residuals(with_coefficient(params, key, coeffs[key] + 1e-3))
        assert rep.max_residual > 1e-4

    @pytest.mark.parametrize("key", ("a", "b", "c", "at", "bt", "ct"))
    def test_imaginary_perturbation_detected(self, params, coeffs, key):
        # d and dt are excluded: their phases are gauge freedom (every cross
        # term involving them carries a vanishing ancilla overlap), so a pure
        # phase rotation of those two coefficients changes nothing physical.
        rep = constraint_residuals(with_coefficient(params, key, coeffs[key] + 1e-3j))
        assert rep.max_residual > 1e-4

    @pytest.mark.parametrize("key", COEFF_KEYS)
    def test_huge_coefficient_reports_inf_without_a_warning(self, params, key):
        # the squared norm of a block of 1e200 overflows, in the norms and
        # in the Gram product; it must read inf, with every warning an error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = constraint_residuals(with_coefficient(params, key, 1e200))
        norm = "norm_input1" if key.endswith("t") else "norm_input0"
        assert rep.residuals[norm] == np.inf
        # inf, or NaN where two eta expressions are both infinite
        assert not rep.max_residual <= 1e-12

    @pytest.mark.parametrize("key", COEFF_KEYS)
    def test_nan_coefficient_gives_nan_max_residual(self, params, key):
        rep = constraint_residuals(with_coefficient(params, key, float("nan")))
        assert np.isnan(rep.max_residual)

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

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            measure_prepare_baseline(0)

    def test_matches_scalar_recomputation(self):
        # recompute a two-block run sample by sample from the same streams:
        # block b draws its t = n.m values, then its outcome uniforms
        samples = BASELINE_BLOCK + 257
        rep = measure_prepare_baseline(samples, seed=4)
        total1 = total2 = 0.0
        for block, start in enumerate(range(0, samples, BASELINE_BLOCK)):
            m = min(BASELINE_BLOCK, samples - start)
            g = pcg_stream(4, block)
            u = g.random(m)
            r = g.random(m)
            for i in range(m):
                t = 2 * u[i] - 1
                s = 1 if r[i] < 0.5 * (1 + t) else -1
                # copy along s*m against n; anti-copy along -s*m against -n
                total1 += 0.5 * (1 + s * t)
                total2 += 0.5 * (1 - (-s) * t)
        # the one mean must match the copy's and the anti-copy's totals, each
        # scored on its own: the anti-copy is prepared opposite the copy and
        # judged against -n, so both score the same, sample for sample
        assert abs(rep.avg_fidelity_anticlone - total1 / samples) < 1e-12
        assert abs(rep.avg_fidelity_anticlone - total2 / samples) < 1e-12

    def test_agrees_with_direction_sampler(self):
        samples = 200_000
        rep = measure_prepare_baseline(samples, seed=11)
        mean, stderr = measure_prepare_by_directions(samples, seed=11)
        assert abs(rep.avg_fidelity_anticlone - mean) < 5 * np.hypot(rep.stderr, stderr)

    def test_haar_pair_dot_is_uniform(self):
        # Archimedes' hat-box theorem, which the sampler rests on: n.m of two
        # uniform directions is uniform on [-1, 1]. Kolmogorov-Smirnov at 1%.
        samples = 200_000
        t = haar_pair_dots(samples, np.random.default_rng(12))
        assert _ks_against_uniform(t) < 1.63 / np.sqrt(samples)

    def test_ks_rejects_non_uniform_directions(self):
        # normalized points of the cube crowd its corners: n.m is not uniform
        samples = 200_000
        rng = np.random.default_rng(12)
        n, m = (v / np.linalg.norm(v, axis=1)[:, None] for v in rng.uniform(-1, 1, (2, samples, 3)))
        assert _ks_against_uniform(np.sum(n * m, axis=1)) > 1.63 / np.sqrt(samples)


class TestBaselineAcrossThreads:
    """The blocks may be scored on any number of threads, in any order;
    the report must equal the one-thread, block-after-block loop to the bit."""

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_equals_serial_loop(self, monkeypatch, workers):
        monkeypatch.setattr(machine, "_usable_cpus", lambda: list(range(workers)))
        interval = sys.getswitchinterval()
        # more threads than cores, switching as often as the interpreter allows
        sys.setswitchinterval(1e-6)
        try:
            for samples in (1, 7, BASELINE_BLOCK, BASELINE_BLOCK + 1, 3 * BASELINE_BLOCK + 5, 10**6):
                for seed in (0, 5, 9):
                    rep = measure_prepare_baseline(samples, seed=seed)
                    assert rep == measure_prepare_baseline_serial(samples, seed=seed), (samples, seed)
        finally:
            sys.setswitchinterval(interval)

    def test_error_in_a_block_is_raised_and_threads_end(self, monkeypatch):
        class BrokenStream:
            def random(self, *args, **kwargs):
                raise RuntimeError("block 2 failed")

        monkeypatch.setattr(machine, "_usable_cpus", lambda: [0, 1])
        monkeypatch.setattr(
            machine, "pcg_stream",
            lambda seed, block: BrokenStream() if block == 2 else pcg_stream(seed, block),
        )
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block 2 failed"):
            measure_prepare_baseline(5 * BASELINE_BLOCK, seed=1)
        assert threading.active_count() == before


class TestBaselineRounds:
    """Only one round of ``BASELINE_ROUND`` block streams exists at a time,
    so memory does not grow with the sample count."""

    def test_the_benchmark_call_is_one_round(self):
        assert BASELINE_ROUND >= 64
        assert -(-10**6 // BASELINE_BLOCK) <= BASELINE_ROUND

    def test_a_round_is_scored_before_the_next_is_built(self, monkeypatch):
        monkeypatch.setattr(machine, "BASELINE_ROUND", 4)
        events = []

        class Recorded:
            def __init__(self, block, stream):
                self.block, self.stream = block, stream

            def random(self, *args, **kwargs):
                events.append(("draw", self.block))
                return self.stream.random(*args, **kwargs)

        def stream(seed, block):
            events.append(("build", block))
            return Recorded(block, pcg_stream(seed, block))

        monkeypatch.setattr(machine, "_usable_cpus", lambda: [0, 1])
        monkeypatch.setattr(machine, "pcg_stream", stream)
        samples = 8 * BASELINE_BLOCK + 5
        rep = measure_prepare_baseline(samples, seed=3)
        assert rep == measure_prepare_baseline_serial(samples, seed=3)

        # three rounds of 4, 4 and 1 blocks: every stream of a round is
        # built, then every block of it drawn, before the next round
        assert len(events) == 2 * 9
        rounds = [key for key, _ in groupby((kind, block // 4) for kind, block in events)]
        assert rounds == [(kind, r) for r in range(3) for kind in ("build", "draw")]

    def test_a_stream_that_fails_to_build_in_a_later_round_is_raised(self, monkeypatch):
        def stream(seed, block):
            if block == 6:
                raise RuntimeError("block 6 failed")
            return pcg_stream(seed, block)

        monkeypatch.setattr(machine, "BASELINE_ROUND", 4)
        monkeypatch.setattr(machine, "_usable_cpus", lambda: [0, 1])
        monkeypatch.setattr(machine, "pcg_stream", stream)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block 6 failed"):
            measure_prepare_baseline(8 * BASELINE_BLOCK, seed=1)
        assert threading.active_count() == before


class TestTracedBaseline:
    """The benchmark's tracer keeps one span stack, so no traced layer may
    run on a scoring thread. The baseline's PCG64DXSM block streams are not
    a traced layer, and it builds no Philox stream."""

    def test_spans_nest_in_the_call_and_account_for_the_wall_time(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        from layers import LAYERS
        from tracer import NAME, PARENT, Tracer, check_nesting, patched, root_time, self_times

        monkeypatch.setattr(machine, "_usable_cpus", lambda: [0, 1])
        tracer = Tracer()
        start = time.perf_counter()
        with patched(tracer, LAYERS) as (_, missing):
            machine.measure_prepare_baseline(3 * BASELINE_BLOCK + 5, seed=2)
        wall = time.perf_counter() - start

        assert sorted(missing) == DELETED_LAYERS
        check_nesting(tracer.spans)
        assert [s[NAME] for s in tracer.spans if s[NAME] == "rng.philox_stream"] == []
        calls = [i for i, s in enumerate(tracer.spans) if s[NAME] == "machine.measure_prepare_baseline"]
        assert len(calls) == 1
        assert all(s[PARENT] == calls[0] for s in tracer.spans if s[PARENT] >= 0)
        unspanned = wall - root_time(tracer.spans)
        assert unspanned >= 0
        self_total = sum(t for _, t in self_times(tracer.spans).values())
        assert abs(self_total + unspanned - wall) <= 1e-6 * max(1.0, wall)


def _ks_against_uniform(t: np.ndarray) -> float:
    """Kolmogorov-Smirnov statistic of the sample ``t`` against U[-1, 1]."""
    cdf = 0.5 * (1 + np.sort(t))
    i = np.arange(1, len(t) + 1)
    return max(np.max(i / len(t) - cdf), np.max(cdf - (i - 1) / len(t)))


class TestMeasurePreparePoleAverage:
    def test_two_thirds_for_any_axis(self):
        axes = haar_directions(50, seed=6)
        for m in np.vstack([axes, np.eye(3), [[1 / 3, 2 / 3, 2 / 3]]]):
            assert abs(measure_prepare_pole_average(m) - 2 / 3) <= 1e-15

    @pytest.mark.parametrize("axis", [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0]])
    def test_rejects_non_unit_axis(self, axis):
        with pytest.raises(ValueError):
            measure_prepare_pole_average(np.array(axis))


class TestHaarDirections:
    def test_unit_rows(self):
        d = haar_directions(500, seed=0)
        assert np.max(np.abs(np.linalg.norm(d, axis=1) - 1)) < 1e-12

    def test_mean_near_zero(self):
        d = haar_directions(20000, seed=1)
        assert np.max(np.abs(d.mean(axis=0))) < 0.02
