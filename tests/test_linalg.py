import math

import numpy as np
import pytest

from ewlgames import EntanglementParam, entangler
from ewlgames.linalg import (
    ALGEBRA_TOL,
    IDENTITY_2,
    IDENTITY_4,
    PAULI_X,
    approx_equal,
    dagger,
    is_unitary,
    kron,
)


def random_unitary(rng) -> np.ndarray:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestKron:
    def test_identity_identity(self):
        np.testing.assert_array_equal(kron(IDENTITY_2, IDENTITY_2), IDENTITY_4)

    def test_identity_x_block_structure(self):
        m = kron(IDENTITY_2, PAULI_X)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0:2, 0:2] = PAULI_X
        expected[2:4, 2:4] = PAULI_X
        np.testing.assert_array_equal(m, expected)

    def test_x_identity_permutes_basis(self):
        v = np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_array_equal(kron(PAULI_X, IDENTITY_2) @ v, [0, 0, 1, 0])

    def test_entry_layout(self):
        a = np.arange(4, dtype=complex).reshape(2, 2)
        b = np.arange(4, 8, dtype=complex).reshape(2, 2)
        m = kron(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert m[2 * i + k, 2 * j + l] == a[i, j] * b[k, l]

    def test_mixed_product_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b, c, d = (random_unitary(rng) for _ in range(4))
            lhs = kron(a, b) @ kron(c, d)
            rhs = kron(a @ c, b @ d)
            assert approx_equal(lhs, rhs, 1e-12)

    def test_dagger_distributes(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a, b = random_unitary(rng), random_unitary(rng)
            assert approx_equal(dagger(kron(a, b)), kron(dagger(a), dagger(b)), 1e-12)


class TestApply:
    def test_entangler_at_zero_is_identity_on_00(self):
        v = np.array([1, 0, 0, 0], dtype=complex)
        np.testing.assert_allclose(entangler(EntanglementParam(0.0)) @ v, v, atol=1e-15)

    def test_unitary_preserves_norm(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = np.kron(random_unitary(rng), random_unitary(rng))
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert abs(np.linalg.norm(u @ v) - np.linalg.norm(v)) <= 1e-10


class TestDagger:
    def test_identity(self):
        np.testing.assert_array_equal(dagger(IDENTITY_4), IDENTITY_4)

    def test_involution_exact(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        np.testing.assert_array_equal(dagger(dagger(m)), m)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, math.pi / 2])
    def test_entangler_unitary(self, gamma):
        j = entangler(EntanglementParam(gamma))
        assert approx_equal(dagger(j) @ j, IDENTITY_4, 1e-12)
        assert is_unitary(j, ALGEBRA_TOL)


class TestApproxEqual:
    def test_reflexive_at_zero_tol(self):
        m = np.array([[1.5, 2j], [0, -1]], dtype=complex)
        assert approx_equal(m, m, 0.0)

    def test_sign_flip_fails(self):
        assert not approx_equal(IDENTITY_2, -IDENTITY_2, 1e-12)

    def test_shape_mismatch(self):
        assert not approx_equal(IDENTITY_2, IDENTITY_4, 1.0)

    def test_phi_is_inert_at_theta_pi(self):
        # U(pi, 0, 0) and U(pi, 2pi, 0) both evaluate to [[0,1],[-1,0]]
        from ewlgames import StrategyParams, strategy_matrix

        expected = np.array([[0, 1], [-1, 0]], dtype=complex)
        m1 = strategy_matrix(StrategyParams(math.pi, 0.0, 0.0))
        m2 = strategy_matrix(StrategyParams(math.pi, 2 * math.pi, 0.0))
        assert approx_equal(m1, expected, 1e-12)
        assert approx_equal(m2, expected, 1e-12)
        assert approx_equal(m1, m2, 1e-12)
