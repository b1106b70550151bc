import math

import numpy as np
import pytest

from ewlgames import (
    DEFECT_STRATEGY,
    IDENTITY_STRATEGY,
    EntanglementParam,
    GameDefinition,
    StrategyParams,
    entangler,
    expected_payoffs,
    final_state,
    final_state_from_matrices,
    outcome_probs,
    pairwise_payoffs,
    strategy_matrix,
)
from ewlgames.sweep import default_gamma_grid

from oracles import circuit_probs, u_matrix


def is_unitary(m, tol: float) -> bool:
    return float(np.max(np.abs(m.conj().T @ m - np.eye(len(m))))) <= tol


def random_params(rng) -> StrategyParams:
    return StrategyParams(
        rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
    )


class TestParamValidation:
    @pytest.mark.parametrize("bad", [-0.1, math.pi + 0.1, float("nan"), float("inf")])
    def test_theta_rejected(self, bad):
        with pytest.raises(ValueError):
            StrategyParams(bad, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [-1e-9, 2 * math.pi + 1e-6])
    def test_phi_alpha_rejected(self, bad):
        with pytest.raises(ValueError):
            StrategyParams(0.0, bad, 0.0)
        with pytest.raises(ValueError):
            StrategyParams(0.0, 0.0, bad)

    @pytest.mark.parametrize("bad", [-0.01, math.pi / 2 + 0.01, float("nan")])
    def test_gamma_rejected(self, bad):
        with pytest.raises(ValueError):
            EntanglementParam(bad)

    def test_game_needs_four_finite_payoffs(self):
        with pytest.raises(ValueError):
            GameDefinition("g", (1, 2, 3), (1, 2, 3, 4))
        with pytest.raises(ValueError):
            GameDefinition("g", (1, 2, 3, float("nan")), (1, 2, 3, 4))


class TestEntangler:
    def test_zero_is_identity(self):
        np.testing.assert_allclose(entangler(EntanglementParam(0.0)), np.eye(4), atol=1e-15)

    def test_maximal_makes_bell_state(self):
        state = entangler(EntanglementParam(math.pi / 2)) @ np.array([1, 0, 0, 0], complex)
        np.testing.assert_allclose(outcome_probs(state), [0.5, 0, 0, 0.5], atol=1e-12)

    def test_first_column(self):
        gamma = 0.6
        state = entangler(EntanglementParam(gamma)) @ np.array([1, 0, 0, 0], complex)
        expected = [math.cos(gamma / 2), 0, 0, 1j * math.sin(gamma / 2)]
        np.testing.assert_allclose(state, expected, atol=1e-15)

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0, math.pi / 2])
    def test_unitary(self, gamma):
        assert is_unitary(entangler(EntanglementParam(gamma)), 1e-12)


class TestStrategyMatrix:
    def test_identity(self):
        np.testing.assert_allclose(strategy_matrix(StrategyParams(0, 0, 0)), np.eye(2), atol=1e-15)

    def test_defect_embedding(self):
        m = strategy_matrix(DEFECT_STRATEGY)
        np.testing.assert_allclose(m, [[0, 1j], [1j, 0]], atol=1e-15)

    def test_phase_rotation(self):
        m = strategy_matrix(StrategyParams(0, math.pi / 2, 0))
        np.testing.assert_allclose(m, [[-1j, 0], [0, 1j]], atol=1e-15)

    def test_unitary_for_random_params(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            assert is_unitary(strategy_matrix(random_params(rng)), 1e-12)

    def test_phi_is_inert_at_theta_pi(self):
        # U(pi, 0, 0) and U(pi, 2pi, 0) both evaluate to [[0,1],[-1,0]]
        m1 = strategy_matrix(StrategyParams(math.pi, 0.0, 0.0))
        m2 = strategy_matrix(StrategyParams(math.pi, 2 * math.pi, 0.0))
        np.testing.assert_allclose(m1, [[0, 1], [-1, 0]], rtol=0, atol=1e-12)
        np.testing.assert_allclose(m2, [[0, 1], [-1, 0]], rtol=0, atol=1e-12)
        np.testing.assert_allclose(m1, m2, rtol=0, atol=1e-12)

    def test_matches_reference_formula(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            p = random_params(rng)
            np.testing.assert_allclose(
                strategy_matrix(p), np.array(u_matrix(*p.astuple())), atol=1e-15
            )


class TestFinalState:
    @pytest.mark.parametrize("gamma", [0.0, 0.4, math.pi / 2])
    def test_identity_players_leave_00(self, gamma):
        state = final_state(EntanglementParam(gamma), IDENTITY_STRATEGY, IDENTITY_STRATEGY)
        np.testing.assert_allclose(state, [1, 0, 0, 0], atol=1e-12)

    def test_one_sided_flip_at_zero_entanglement(self):
        state = final_state(
            EntanglementParam(0.0), StrategyParams(math.pi, 0, 0), IDENTITY_STRATEGY
        )
        np.testing.assert_allclose(outcome_probs(state), [0, 0, 1, 0], atol=1e-12)

    def test_double_defect_at_maximal_entanglement(self):
        # (i sx) (x) (i sx) commutes with the entangler: the state is -|11>
        state = final_state(EntanglementParam(math.pi / 2), DEFECT_STRATEGY, DEFECT_STRATEGY)
        np.testing.assert_allclose(state, [0, 0, 0, -1], atol=1e-12)

    def test_norm_one(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            state = final_state(
                EntanglementParam(rng.uniform(0, math.pi / 2)),
                random_params(rng),
                random_params(rng),
            )
            assert abs(np.linalg.norm(state) - 1.0) <= 1e-10

    def test_matches_pure_python_reference(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            gamma = rng.uniform(0, math.pi / 2)
            pa, pb = random_params(rng), random_params(rng)
            probs = outcome_probs(final_state(EntanglementParam(gamma), pa, pb))
            ref = circuit_probs(gamma, u_matrix(*pa.astuple()), u_matrix(*pb.astuple()))
            np.testing.assert_allclose(probs, ref, atol=1e-12)


class TestOutcomeProbs:
    def test_basis_state(self):
        np.testing.assert_array_equal(outcome_probs([1, 0, 0, 0]), [1, 0, 0, 0])

    def test_bell_state(self):
        s = 1 / math.sqrt(2)
        np.testing.assert_allclose(outcome_probs([s, 0, 0, 1j * s]), [0.5, 0, 0, 0.5], atol=1e-15)

    def test_zero_entanglement_distribution_is_product(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            pa, pb = random_params(rng), random_params(rng)
            probs = outcome_probs(final_state(EntanglementParam(0.0), pa, pb))
            da = [math.cos(pa.theta / 2) ** 2, math.sin(pa.theta / 2) ** 2]
            db = [math.cos(pb.theta / 2) ** 2, math.sin(pb.theta / 2) ** 2]
            np.testing.assert_allclose(probs, np.outer(da, db).ravel(), atol=1e-10)

    def test_sums_to_one(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            state = final_state(
                EntanglementParam(rng.uniform(0, math.pi / 2)),
                random_params(rng),
                random_params(rng),
            )
            assert abs(outcome_probs(state).sum() - 1.0) <= 1e-10


class TestExpectedPayoffs:
    def test_pure_outcomes(self, prisoners_dilemma):
        assert expected_payoffs([0, 0, 0, 1], prisoners_dilemma) == (1, 1)
        assert expected_payoffs([0, 1, 0, 0], prisoners_dilemma) == (0, 5)

    def test_even_mixture(self, prisoners_dilemma):
        assert expected_payoffs([0.5, 0, 0, 0.5], prisoners_dilemma) == (2, 2)

    def test_linear_in_payoff_vectors(self, prisoners_dilemma):
        doubled = GameDefinition(
            "pd2",
            tuple(2 * x for x in prisoners_dilemma.payoff_a),
            tuple(2 * x for x in prisoners_dilemma.payoff_b),
        )
        rng = np.random.default_rng(17)
        probs = rng.dirichlet(np.ones(4))
        base = expected_payoffs(probs, prisoners_dilemma)
        twice = expected_payoffs(probs, doubled)
        assert twice == (2 * base[0], 2 * base[1])


class TestClassicalEmbedding:
    def test_table_cells_at_every_gamma(self, prisoners_dilemma):
        cells = {
            (0, 0): (3.0, 3.0),
            (0, 1): (0.0, 5.0),
            (1, 0): (5.0, 0.0),
            (1, 1): (1.0, 1.0),
        }
        moves = {0: IDENTITY_STRATEGY, 1: DEFECT_STRATEGY}
        for gamma in default_gamma_grid():
            for (ma, mb), expected in cells.items():
                state = final_state(EntanglementParam(gamma), moves[ma], moves[mb])
                got = expected_payoffs(outcome_probs(state), prisoners_dilemma)
                assert got == pytest.approx(expected, abs=1e-9)

    def test_global_phase_invariance(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            gamma = EntanglementParam(rng.uniform(0, math.pi / 2))
            ua = strategy_matrix(random_params(rng))
            ub = strategy_matrix(random_params(rng))
            phase = np.exp(1j * rng.uniform(0, 2 * math.pi))
            base = outcome_probs(final_state_from_matrices(gamma, ua, ub))
            shifted_a = outcome_probs(final_state_from_matrices(gamma, phase * ua, ub))
            shifted_b = outcome_probs(final_state_from_matrices(gamma, ua, phase * ub))
            np.testing.assert_allclose(shifted_a, base, atol=1e-12)
            np.testing.assert_allclose(shifted_b, base, atol=1e-12)
        # The payoff kernel: random phases on the rows and the columns, and -U, whose
        # rotation features equal U's bit for bit.
        for gamma in (0.0, 0.6, math.pi / 2):
            gamma = EntanglementParam(gamma)
            game = GameDefinition("rnd", tuple(rng.uniform(-3, 5, 4)), tuple(rng.uniform(-3, 5, 4)))
            mats = np.array([strategy_matrix(random_params(rng)) for _ in range(12)])
            phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=(2, 12, 1, 1)))
            base = pairwise_payoffs(mats, mats, gamma, game)
            shifted = pairwise_payoffs(phases[0] * mats, phases[1] * mats, gamma, game)
            np.testing.assert_allclose(shifted, base, atol=1e-12)
            for rows, cols in ((-mats, mats), (mats, -mats)):
                negated = pairwise_payoffs(rows, cols, gamma, game)
                assert all(np.array_equal(n, b) for n, b in zip(negated, base))
