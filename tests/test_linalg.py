"""Tests of the partial trace and the Gram-Schmidt in ``oracles`` that
other tests check the library against."""

import numpy as np
import pytest

from conftest import random_ket
from oracles import (
    orthonormal_complete,
    partial_trace_by_sum,
    tensor_by_kron,
    unitary_by_correspondence,
)

E0 = np.array([1, 0], dtype=complex)
E1 = np.array([0, 1], dtype=complex)


class TestPartialTrace:
    def test_product_state(self):
        rho = tensor_by_kron(np.outer(E0, E0.conj()), np.outer(E1, E1.conj()))
        assert np.allclose(partial_trace_by_sum(rho, [2, 2], [0]), np.outer(E0, E0.conj()))

    def test_bell_state(self):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        assert np.allclose(partial_trace_by_sum(rho, [2, 2], [0]), np.eye(2) / 2, atol=1e-14)

    def test_three_qubit_keep_first_matches_index_sum(self, rng):
        psi = random_ket(rng, 8)
        rho = np.outer(psi, psi.conj())
        red = partial_trace_by_sum(rho, [2, 2, 2], [0])
        # explicit double sum over the traced-out indices
        t = psi.reshape(2, 2, 2)
        expect = np.zeros((2, 2), dtype=complex)
        for i in range(2):
            for ip in range(2):
                expect[i, ip] = sum(
                    t[i, j, k] * np.conj(t[ip, j, k]) for j in range(2) for k in range(2)
                )
        assert np.allclose(red, expect, atol=1e-14)

    @pytest.mark.parametrize("keep", [[0], [1], [2], [0, 1], [0, 2], [1, 2]])
    def test_matches_brute_force_oracle(self, rng, keep):
        # the defining identity Tr(rho_K X) = Tr(rho (X x 1)), for product
        # operators X on the kept factors and identities on the others
        dims = [2, 3, 2]
        m = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        red = partial_trace_by_sum(rho, dims, keep)
        for _ in range(5):
            ops = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)) for d in dims]
            x = tensor_by_kron(*(ops[k] for k in keep))
            embedded = tensor_by_kron(*(op if k in keep else np.eye(len(op)) for k, op in enumerate(ops)))
            assert abs(np.trace(red @ x) - np.trace(rho @ embedded)) < 1e-12

    def test_preserves_trace_and_hermiticity(self, rng):
        m = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        red = partial_trace_by_sum(rho, [2, 2, 2], [1])
        assert abs(np.trace(red) - 1) < 1e-12
        assert np.allclose(red, red.conj().T, atol=1e-14)

    def test_keep_all_returns_input(self, rng):
        m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = m @ m.conj().T
        assert np.allclose(partial_trace_by_sum(rho, [2, 2], [0, 1]), rho)


class TestOrthonormalComplete:
    def test_single_basis_ket(self):
        basis = orthonormal_complete([E0], 2)
        assert len(basis) == 2
        assert abs(abs(np.vdot(basis[1], E1)) - 1) < 1e-12

    def test_gram_identity_random(self, rng):
        vs = [random_ket(rng, 5) for _ in range(3)]
        basis = orthonormal_complete(vs, 5)
        g = np.array([[np.vdot(u, w) for w in basis] for u in basis])
        assert np.max(np.abs(g - np.eye(5))) < 1e-12

    def test_orthonormal_inputs_unchanged(self, rng):
        vs = orthonormal_complete([random_ket(rng, 4) for _ in range(2)], 4)[:2]
        again = orthonormal_complete(vs, 4)
        assert np.allclose(again[0], vs[0], atol=1e-12)
        assert np.allclose(again[1], vs[1], atol=1e-12)

    def test_two_state_images_complete_to_eight(self):
        # images of the explicit two-state anti-cloner at theta = pi/3
        ct, st = 0.5, np.sqrt(3) / 2
        root = np.sqrt(1 + ct)
        t2 = (1 - ct) / st
        n1 = np.zeros(8, dtype=complex)
        n1[0b010] = 1 / root
        n1[0b001] = np.sqrt(ct) / root
        n2 = np.zeros(8, dtype=complex)
        n2[0b000] = -ct / root
        n2[0b010] = -ct * t2 / root
        n2[0b100] = -st / root
        n2[0b110] = ct / root
        n2[0b001] = np.sqrt(ct) * t2 / root
        basis = orthonormal_complete([n1, n2], 8)
        assert len(basis) == 8
        g = np.array([[np.vdot(u, w) for w in basis] for u in basis])
        assert np.max(np.abs(g - np.eye(8))) < 1e-12

    def test_dependent_inputs_raise(self, rng):
        v = random_ket(rng, 4)
        with pytest.raises(ValueError, match="dependent"):
            orthonormal_complete([v, 1j * v], 4)

    def test_too_many_vectors(self, rng):
        with pytest.raises(ValueError, match="dependent"):
            orthonormal_complete([random_ket(rng, 2) for _ in range(3)], 2)


class TestUnitaryFromCorrespondence:
    def test_identity(self):
        u = unitary_by_correspondence([E0, E1], [E0, E1])
        assert np.allclose(u, np.eye(2), atol=1e-12)

    def test_random_matched_gram(self, rng):
        dim = 6
        ins = [random_ket(rng, dim) * (1 + 0.3 * rng.standard_normal()) for _ in range(3)]
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        outs = [q @ v for v in ins]
        u = unitary_by_correspondence(ins, outs)
        assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-10
        for v, w in zip(ins, outs):
            assert np.linalg.norm(u @ v - w) < 1e-10

    def test_gram_mismatch_raises(self):
        with pytest.raises(ValueError, match="Gram matrices differ"):
            unitary_by_correspondence([E0], [E0 * 0.5])

    def test_consistent_dependence_is_allowed(self, rng):
        v = random_ket(rng, 4)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        u = unitary_by_correspondence([v, (0.5 + 0.5j) * v], [q @ v, (0.5 + 0.5j) * (q @ v)])
        assert np.linalg.norm(u @ v - q @ v) < 1e-10

    def test_rank_mismatch_raises(self, rng):
        # same Gram cannot happen with mismatched rank unless overlaps differ,
        # so force the Gram check to pass with orthonormal lists of equal size
        v1, v2 = orthonormal_complete([random_ket(rng, 4)], 4)[:2]
        with pytest.raises(ValueError, match="Gram matrices differ"):
            unitary_by_correspondence([v1, v1], [v1, v2])
