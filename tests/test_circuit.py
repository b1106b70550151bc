import math

import numpy as np
import pytest

from ewlgames import GameDefinition, SteppingParams, StrategyParams, build_grid, circuit, load_default_catalogue
from ewlgames.circuit import (
    _ROTATION,
    EntanglementParam,
    _pauli_form,
    entangler,
    payoff_forms,
    rotation_features,
    strategy_matrix,
)
from ewlgames.sweep import default_gamma_grid

from oracles import circuit_probs, u_matrix


def is_unitary(m, tol: float) -> bool:
    return float(np.max(np.abs(m.conj().T @ m - np.eye(len(m))))) <= tol


IDENTITY = strategy_matrix(StrategyParams(0, 0, 0))
DEFECT = strategy_matrix(StrategyParams(math.pi, 0, math.pi / 2))


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
        np.testing.assert_allclose(np.abs(state) ** 2, [0.5, 0, 0, 0.5], atol=1e-12)

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
        np.testing.assert_allclose(DEFECT, [[0, 1j], [1j, 0]], atol=1e-15)

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
    def test_identity_players_leave_00(self, kernel_probs, gamma):
        probs = kernel_probs(gamma, IDENTITY[None], IDENTITY[None])[0, 0]
        np.testing.assert_allclose(probs, [1, 0, 0, 0], atol=1e-12)

    def test_one_sided_flip_at_zero_entanglement(self, kernel_probs):
        flip = strategy_matrix(StrategyParams(math.pi, 0, 0))
        probs = kernel_probs(0.0, flip[None], IDENTITY[None])[0, 0]
        np.testing.assert_allclose(probs, [0, 0, 1, 0], atol=1e-12)

    def test_double_defect_at_maximal_entanglement(self, kernel_probs):
        # (i sx) (x) (i sx) commutes with the entangler: the state is |11> up to a global phase
        probs = kernel_probs(math.pi / 2, DEFECT[None], DEFECT[None])[0, 0]
        np.testing.assert_allclose(probs, [0, 0, 0, 1], atol=1e-12)

    def test_norm_one(self, kernel_payoffs):
        # a constant payoff vector scores its constant: the outcome probabilities sum to 1
        rng = np.random.default_rng(13)
        mats = np.array([strategy_matrix(random_params(rng)) for _ in range(20)])
        const = GameDefinition("const", (1, 1, 1, 1), (-3, -3, -3, -3))
        for gamma in rng.uniform(0, math.pi / 2, size=5):
            pa, pb = kernel_payoffs(mats, mats, EntanglementParam(gamma), const)
            np.testing.assert_allclose(pa, 1.0, rtol=0, atol=1e-10)
            np.testing.assert_allclose(pb, -3.0, rtol=0, atol=1e-10)

    def test_matches_pure_python_reference(self, kernel_probs):
        rng = np.random.default_rng(14)
        for _ in range(50):
            gamma = rng.uniform(0, math.pi / 2)
            pa, pb = random_params(rng), random_params(rng)
            probs = kernel_probs(gamma, strategy_matrix(pa)[None], strategy_matrix(pb)[None])[0, 0]
            ref = circuit_probs(gamma, u_matrix(*pa.astuple()), u_matrix(*pb.astuple()))
            np.testing.assert_allclose(probs, ref, atol=1e-12)


    def test_phase_rotation_mixes_00_and_11_at_maximal_entanglement(
        self, kernel_payoffs, kernel_probs, prisoners_dilemma
    ):
        # U(0, alpha, 0) against the identity: P = (cos^2 alpha, 0, 0, sin^2 alpha) at gamma = pi/2,
        # while at gamma = 0 the phase is unobservable and the state stays |00>
        alphas = np.linspace(0, math.pi, 9)
        mats = np.array([strategy_matrix(StrategyParams(0, a, 0)) for a in alphas])
        probs = kernel_probs(math.pi / 2, mats, IDENTITY[None])[:, 0]
        expected = np.zeros((len(alphas), 4))
        expected[:, 0], expected[:, 3] = np.cos(alphas) ** 2, np.sin(alphas) ** 2
        np.testing.assert_allclose(probs, expected, atol=1e-12)
        np.testing.assert_allclose(kernel_probs(0.0, mats, IDENTITY[None])[:, 0], [[1, 0, 0, 0]] * 9, atol=1e-12)
        # alpha = pi/4 splits |00> and |11> evenly: the prisoner's dilemma pays (3 + 1)/2 to each
        pa, pb = kernel_payoffs(mats[2:3], IDENTITY[None], EntanglementParam(math.pi / 2), prisoners_dilemma)
        assert (pa[0, 0], pb[0, 0]) == pytest.approx((2.0, 2.0), abs=1e-12)


class TestOutcomeProbs:
    def test_zero_entanglement_distribution_is_product(self, kernel_probs):
        rng = np.random.default_rng(15)
        params = [random_params(rng) for _ in range(100)]
        mats = np.array([strategy_matrix(p) for p in params])
        probs = kernel_probs(0.0, mats, mats)
        flip = np.array([[math.cos(p.theta / 2) ** 2, math.sin(p.theta / 2) ** 2] for p in params])
        product = np.einsum("ia,jb->ijab", flip, flip).reshape(100, 100, 4)
        np.testing.assert_allclose(probs, product, atol=1e-10)

    def test_sums_to_one(self, kernel_probs):
        rng = np.random.default_rng(16)
        for _ in range(5):
            mats = np.array([strategy_matrix(random_params(rng)) for _ in range(10)])
            probs = kernel_probs(rng.uniform(0, math.pi / 2), mats, mats)
            assert np.abs(probs.sum(axis=-1) - 1.0).max() <= 1e-10


class TestClassicalEmbedding:
    def test_table_cells_at_every_gamma(self, kernel_payoffs, prisoners_dilemma):
        cells = {
            (0, 0): (3.0, 3.0),
            (0, 1): (0.0, 5.0),
            (1, 0): (5.0, 0.0),
            (1, 1): (1.0, 1.0),
        }
        mats = np.array([IDENTITY, DEFECT])
        for gamma in default_gamma_grid():
            got = kernel_payoffs(mats, mats, EntanglementParam(gamma), prisoners_dilemma)
            for (ma, mb), expected in cells.items():
                assert (got[0][ma, mb], got[1][ma, mb]) == pytest.approx(expected, abs=1e-9)

    def test_global_phase_invariance(self, kernel_payoffs):
        rng = np.random.default_rng(18)

        def phased(m, phase):
            return [[phase * x for x in row] for row in m]

        # The pure-Python circuit: U and e^(i chi) U give the same outcome distribution.
        for _ in range(50):
            gamma = rng.uniform(0, math.pi / 2)
            ua = u_matrix(*random_params(rng).astuple())
            ub = u_matrix(*random_params(rng).astuple())
            phase = complex(np.exp(1j * rng.uniform(0, 2 * math.pi)))
            base = circuit_probs(gamma, ua, ub)
            np.testing.assert_allclose(circuit_probs(gamma, phased(ua, phase), ub), base, atol=1e-12)
            np.testing.assert_allclose(circuit_probs(gamma, ua, phased(ub, phase)), base, atol=1e-12)
        # The payoff kernel: random phases on the rows and the columns, and -U, whose
        # rotation features equal U's bit for bit.
        for gamma in (0.0, 0.6, math.pi / 2):
            gamma = EntanglementParam(gamma)
            game = GameDefinition("rnd", tuple(rng.uniform(-3, 5, 4)), tuple(rng.uniform(-3, 5, 4)))
            mats = np.array([strategy_matrix(random_params(rng)) for _ in range(12)])
            phases = np.exp(1j * rng.uniform(0, 2 * math.pi, size=(2, 12, 1, 1)))
            base = kernel_payoffs(mats, mats, gamma, game)
            shifted = kernel_payoffs(phases[0] * mats, phases[1] * mats, gamma, game)
            np.testing.assert_allclose(shifted, base, atol=1e-12)
            for rows, cols in ((-mats, mats), (mats, -mats)):
                negated = kernel_payoffs(rows, cols, gamma, game)
                assert all(np.array_equal(n, b) for n, b in zip(negated, base))


class TestPayoffForms:
    """`payoff_forms` multiplies only the 10 x 10 feature positions of q and r;
    the full Kronecker product, indexed at those positions, is the oracle."""

    @staticmethod
    def kron_forms(gamma, game):
        j = entangler(gamma)
        r = _pauli_form(np.outer(j[:, 0], j[:, 0].conj())).reshape(4, 4)
        forms = []
        for pay in (game.payoff_a, game.payoff_b):
            q = _pauli_form((j * np.asarray(pay, dtype=np.float64)) @ j.conj().T).reshape(4, 4)
            forms.append(0.25 * np.kron(q, r)[np.ix_(_ROTATION, _ROTATION)])
        return forms

    @pytest.mark.parametrize("name", load_default_catalogue().names)
    def test_bits_equal_the_kronecker_product(self, name):
        game = load_default_catalogue().get(name)
        for gamma in [0.0, math.pi / 2, *default_gamma_grid(65)]:
            gamma = EntanglementParam(gamma)
            got, want = payoff_forms(gamma, game), self.kron_forms(gamma, game)
            for k, w in zip(got, want, strict=True):
                assert k.shape == (10, 10) and k.dtype == w.dtype
                assert k.tobytes() == w.tobytes(), (name, gamma.gamma)


def whole_stack_features(mats) -> np.ndarray:
    """The rotation features of a whole (N, 2, 2) stack as one expression,
    with every complex temporary the size of the stack."""
    return 0.5 * _pauli_form(np.einsum("nbc,nad->nbdac", mats, mats.conj()))[:, _ROTATION]


class TestRotationFeatures:
    """`rotation_features` takes its stack in blocks of _FEATURE_BLOCK
    matrices, into one Fortran-ordered output, with the bits of the
    whole-stack expression."""

    BLOCK = circuit._FEATURE_BLOCK

    @staticmethod
    def assert_whole_stack_bits(mats):
        got = rotation_features(mats)
        assert got.shape == (len(mats), 10) and got.dtype == np.float64
        assert got.flags.f_contiguous and got.T.flags.c_contiguous
        assert got.tobytes() == whole_stack_features(mats).tobytes(), len(mats)

    @pytest.mark.parametrize("count", [0, 1, 2, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_stacks_give_the_whole_stack_bits(self, count):
        rng = np.random.default_rng(count)
        mats = np.array([strategy_matrix(random_params(rng)) for _ in range(count)]).reshape(count, 2, 2)
        self.assert_whole_stack_bits(mats)

    def test_every_tail_gives_the_whole_stack_bits(self, monkeypatch):
        # 4-matrix blocks: full blocks, tails of 2 and 3, and a 1-matrix tail,
        # which joins the block before it
        monkeypatch.setattr(circuit, "_FEATURE_BLOCK", 4)
        assert circuit._blocks(9, 4) == [(0, 4), (4, 9)]
        assert circuit._blocks(10, 4) == [(0, 4), (4, 8), (8, 10)]
        rng = np.random.default_rng(7)
        for count in range(1, 14):
            self.assert_whole_stack_bits(np.array([strategy_matrix(random_params(rng)) for _ in range(count)]))

    @pytest.mark.parametrize("steps", [(8, 8, 8), (32, 8, 8)], ids=["1824", "7968"])
    def test_grid_representatives_give_the_whole_stack_bits(self, steps):
        grid = build_grid(SteppingParams(*(math.pi / d for d in steps)))
        own = np.array([strategy_matrix(grid.params[i]) for i in grid.members[:, 0]])
        self.assert_whole_stack_bits(own)
        assert grid.features.tobytes() == whole_stack_features(own).tobytes()
