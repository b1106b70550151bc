import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from ewlgames import (
    GameDefinition,
    StrategyParams,
    bayes_sweep,
    default_gamma_grid,
    default_p_grid,
    gamma_sweep,
    load_default_catalogue,
)
from ewlgames import equilibrium
from ewlgames.circuit import PAYOFF_LIMIT, EntanglementParam, strategy_matrix
from ewlgames.equilibrium import PriorProbability, nash_bayesian, nash_two_player, payoff_tensor
from ewlgames.grid import SteppingParams, build_grid

from oracles import (
    brute_force_bayes,
    brute_force_nash,
    circuit_payoffs,
    passes_deviation,
    phase_partners,
    u_matrix,
)

PI = math.pi


def random_game(rng, name="rnd") -> GameDefinition:
    return GameDefinition(
        name, tuple(rng.uniform(-3, 5, size=4)), tuple(rng.uniform(-3, 5, size=4))
    )


def integer_game(rng, name) -> GameDefinition:
    return GameDefinition(
        name,
        tuple(float(v) for v in rng.integers(0, 10, size=4)),
        tuple(float(v) for v in rng.integers(0, 10, size=4)),
    )


class TestPayoffTensor:
    def test_identity_pair_scores_outcome_00(self, coarse_grid):
        rng = np.random.default_rng(30)
        game = random_game(rng)
        t = payoff_tensor(game, coarse_grid, EntanglementParam(0.77))
        assert (t.payoff_a[0, 0], t.payoff_b[0, 0]) == pytest.approx(
            (game.payoff_a[0], game.payoff_b[0]), abs=1e-10
        )

    def test_classical_cells_at_zero_entanglement(self, coarse_grid, prisoners_dilemma):
        t = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(0.0))
        defect = coarse_grid.params.index(StrategyParams(PI, 0, PI / 2))
        assert (t.payoff_a[0, 0], t.payoff_b[0, 0]) == pytest.approx((3, 3), abs=1e-10)
        assert (t.payoff_a[defect, 0], t.payoff_b[defect, 0]) == pytest.approx((5, 0), abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, 0.45, PI / 2])
    def test_entries_match_naive_path(self, coarse_grid, prisoners_dilemma, gamma):
        t = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(gamma))
        rng = np.random.default_rng(31)
        for _ in range(20):
            i, j = rng.integers(0, len(coarse_grid), size=2)
            naive = circuit_payoffs(
                gamma,
                u_matrix(*coarse_grid.params[i].astuple()),
                u_matrix(*coarse_grid.params[j].astuple()),
                prisoners_dilemma.payoff_a,
                prisoners_dilemma.payoff_b,
            )
            assert (t.payoff_a[i, j], t.payoff_b[i, j]) == pytest.approx(naive, abs=1e-10)

    def test_zero_sum_conservation(self, coarse_grid, matching_pennies):
        t = payoff_tensor(matching_pennies, coarse_grid, EntanglementParam(0.9))
        np.testing.assert_allclose(t.payoff_a + t.payoff_b, 0.0, atol=1e-10)

    def test_global_phase_classes_share_rows(self, coarse_grid, strategy_matrices, prisoners_dilemma):
        # entries 0/2 are +-identity and 4/6 are +-[[0,1],[-1,0]]
        mats = strategy_matrices(coarse_grid)
        np.testing.assert_allclose(mats[2], -mats[0], atol=1e-12)
        np.testing.assert_allclose(mats[6], -mats[4], atol=1e-12)
        t = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(0.8))
        for a, b in [(0, 2), (4, 6)]:
            np.testing.assert_allclose(t.payoff_a[a], t.payoff_a[b], atol=1e-12)
            np.testing.assert_allclose(t.payoff_a[:, a], t.payoff_a[:, b], atol=1e-12)

    def test_rectangular_kernel_matches_naive(self, kernel_payoffs, coarse_grid, strategy_matrices, prisoners_dilemma):
        rng = np.random.default_rng(35)
        mats_a = strategy_matrices(coarse_grid)[:3]
        mats_b = strategy_matrices(coarse_grid)[3:]
        for game in (prisoners_dilemma, random_game(rng)):
            for gamma in (EntanglementParam(0.0), EntanglementParam(0.7), EntanglementParam(PI / 2)):
                pa, pb = kernel_payoffs(mats_a, mats_b, gamma, game)
                assert pa.shape == pb.shape == (3, 5)
                for i in range(3):
                    for j in range(5):
                        naive = circuit_payoffs(
                            gamma.gamma, mats_a[i].tolist(), mats_b[j].tolist(), game.payoff_a, game.payoff_b
                        )
                        assert (pa[i, j], pb[i, j]) == pytest.approx(naive, abs=1e-12)

    # The largest scale keeps every moved payoff (|w| <= 5 before the move) within PAYOFF_LIMIT.
    @pytest.mark.parametrize("scale", [0.5, 3.0, 1e8, PAYOFF_LIMIT / 8])
    @pytest.mark.parametrize("shift", [-2.0, 5.0])
    def test_kernel_tables_follow_affine_payoff_change(self, kernel_payoffs, request, scale, shift):
        # w -> scale * w + shift must give scale * P + shift; the shift reaches
        # the tables only through the R[0, 0] rotation feature.
        rng = np.random.default_rng(36)
        angles = rng.uniform(0, 1, size=(40, 3)) * (PI, 2 * PI, 2 * PI)
        mats = np.array([strategy_matrix(StrategyParams(*row)) for row in angles])
        names = ["prisoners_dilemma", "deadlock", "stag_hunt", "matching_pennies"]
        for game in [request.getfixturevalue(name) for name in names] + [random_game(rng)]:
            moved = GameDefinition(
                "moved",
                tuple(scale * w + shift for w in game.payoff_a),
                tuple(scale * w + shift for w in game.payoff_b),
            )
            for gamma in (0.0, 0.9, PI / 2):
                base = kernel_payoffs(mats[:25], mats[15:], EntanglementParam(gamma), game)
                got = kernel_payoffs(mats[:25], mats[15:], EntanglementParam(gamma), moved)
                for table, want, weights in zip(got, base, (moved.payoff_a, moved.payoff_b)):
                    size = max(abs(w) for w in weights)
                    np.testing.assert_allclose(table, scale * want + shift, rtol=0, atol=1e-12 * size)

    def test_kernel_rejects_bad_shapes(self, kernel_payoffs, prisoners_dilemma):
        with pytest.raises(ValueError):
            kernel_payoffs(
                np.eye(2, dtype=complex),
                np.eye(2, dtype=complex)[None],
                EntanglementParam(0.0),
                prisoners_dilemma,
            )


class TestBestResponses:
    """Best-response semantics of the Nash reduction.

    A constant B-payoff makes B indifferent (every column ties), so the
    equilibria are exactly A's argmax-with-ties sets, column by column.
    """

    @staticmethod
    def a_best_sets(t, epsilon=1e-9):
        sets = {j: [] for j in range(len(t))}
        for eq in nash_two_player(t, epsilon):
            i, j = eq.strategy_indices
            sets[j].append(i)
        return sets

    @staticmethod
    def with_indifferent_b(game):
        return GameDefinition(game.name, game.payoff_a, (1.0, 1.0, 1.0, 1.0))

    def test_pd_defection_dominates_classically(self, coarse_grid, prisoners_dilemma):
        t = payoff_tensor(
            self.with_indifferent_b(prisoners_dilemma), coarse_grid, EntanglementParam(0.0)
        )
        defect = coarse_grid.params.index(StrategyParams(PI, 0, PI / 2))
        vs_identity = self.a_best_sets(t)[0]
        assert defect in vs_identity
        assert 0 not in vs_identity
        assert t.payoff_a[vs_identity, 0] == pytest.approx([5.0] * len(vs_identity), abs=1e-12)

    def test_constant_game_full_tie(self, coarse_grid):
        const = GameDefinition("const", (2, 2, 2, 2), (2, 2, 2, 2))
        t = payoff_tensor(const, coarse_grid, EntanglementParam(0.5))
        eqs = nash_two_player(t)
        assert [eq.strategy_indices for eq in eqs] == [(i, j) for i in range(8) for j in range(8)]

    def test_pennies_best_response_matches_brute_force(self, coarse_grid, matching_pennies):
        t = payoff_tensor(
            self.with_indifferent_b(matching_pennies), coarse_grid, EntanglementParam(0.0)
        )
        vs_identity = self.a_best_sets(t)[0]
        col = t.payoff_a[:, 0]
        expected = [int(k) for k in np.nonzero(col >= col.max() - 1e-9)[0]]
        assert vs_identity == expected
        # classically, matching the identity (confess class) wins for A
        assert set(vs_identity) == {0, 1, 2, 3}

    def test_set_invariants_on_random_games(self, coarse_grid):
        eps = 1e-9
        rng = np.random.default_rng(34)
        for _ in range(10):
            t = payoff_tensor(
                self.with_indifferent_b(random_game(rng)),
                coarse_grid,
                EntanglementParam(rng.uniform(0, PI / 2)),
            )
            for j, best in self.a_best_sets(t, eps).items():
                col = t.payoff_a[:, j]
                assert best and int(np.argmax(col)) in best
                for k in range(len(col)):
                    assert (col[k] >= col.max() - eps) == (k in best)

    @pytest.mark.parametrize("shape", [(1, 1), (7, 7), (40, 40), (5, 13), (13, 5), (1, 9), (9, 1)])
    @pytest.mark.parametrize("epsilon", [0.0, 1e-9, 0.5])
    def test_cells_are_the_2d_nonzero_of_the_row_mask(self, shape, epsilon):
        # the Bayesian candidate triples are built on this row-major order
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        table = rng.integers(0, 4, size=shape).astype(float)  # many exact ties
        table[rng.random(shape) < 0.3] += 1e-10  # ties within 1e-9 but not exact
        rows, cols = equilibrium._best_responses(table, epsilon)
        expected_rows, expected_cols = np.nonzero(table >= table.max(axis=1, keepdims=True) - epsilon)
        for got, expected in ((rows, expected_rows), (cols, expected_cols)):
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)


class TestNashTwoPlayer:
    def test_pd_classical_equilibria(self, coarse_grid, prisoners_dilemma):
        t = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(0.0))
        eqs = nash_two_player(t)
        assert len(eqs) == 16
        for eq in eqs:
            assert eq.payoffs == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_pd_maximal_entanglement_empty(self, coarse_grid, prisoners_dilemma):
        t = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(PI / 2))
        assert nash_two_player(t) == []

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.61, 1.0, PI / 2])
    def test_pennies_always_empty(self, coarse_grid, matching_pennies, gamma):
        t = payoff_tensor(matching_pennies, coarse_grid, EntanglementParam(gamma))
        assert nash_two_player(t) == []

    def test_quantum_pd_payoff_grows(self, coarse_grid, prisoners_dilemma):
        gamma = 0.5
        t = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(gamma))
        eqs = nash_two_player(t)
        expected = 1 + 2 * math.sin(gamma) ** 2
        assert len(eqs) == 8
        for eq in eqs:
            assert eq.payoffs == pytest.approx((expected, expected), abs=1e-10)

    def test_matches_deviation_oracle_on_random_games(self, coarse_grid):
        rng = np.random.default_rng(32)
        for _ in range(20):
            game = random_game(rng)
            gamma = EntanglementParam(rng.uniform(0, PI / 2))
            t = payoff_tensor(game, coarse_grid, gamma)
            got = [eq.strategy_indices for eq in nash_two_player(t)]
            expected = brute_force_nash(t.payoff_a.tolist(), t.payoff_b.tolist(), 1e-9)
            assert got == expected

    def test_every_equilibrium_survives_deviation_check(self, coarse_grid, prisoners_dilemma):
        t = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(0.4))
        pa, pb = t.payoff_a.tolist(), t.payoff_b.tolist()
        for eq in nash_two_player(t):
            i, j = eq.strategy_indices
            assert passes_deviation(pa, pb, i, j, 1e-9)

    @pytest.mark.parametrize("name", ["prisoners_dilemma", "deadlock", "stag_hunt"])
    def test_symmetric_game_mirror(self, request, coarse_grid, eighth_grid, name):
        game = request.getfixturevalue(name)
        # payoff_b is payoff_a with outcomes 01 and 10 swapped
        assert game.payoff_b == (game.payoff_a[0], game.payoff_a[2], game.payoff_a[1], game.payoff_a[3])
        t = payoff_tensor(game, coarse_grid, EntanglementParam(0.7))
        pairs = {eq.strategy_indices for eq in nash_two_player(t)}
        assert pairs == {(j, i) for i, j in pairs}

        # Swapping the players maps the game onto itself: every equilibrium
        # (a, b) has its mirror (b, a), with the payoffs swapped.
        gammas = default_gamma_grid(17)
        cols = gamma_sweep(game, eighth_grid, gammas).columns
        assert len(cols["gamma"]) > 0
        for gamma in gammas:
            at = cols["gamma"] == gamma
            indices = zip(cols["a_index"][at].tolist(), cols["b_index"][at].tolist())
            rows = dict(zip(indices, zip(cols["payoff_a"][at].tolist(), cols["payoff_b"][at].tolist())))
            for (a, b), (pay_a, pay_b) in rows.items():
                assert (b, a) in rows, (name, gamma, a, b)
                mirror_a, mirror_b = rows[b, a]
                assert abs(pay_a - mirror_b) <= 1e-12 and abs(pay_b - mirror_a) <= 1e-12
            t = payoff_tensor(game, eighth_grid, EntanglementParam(gamma))
            assert np.abs(t.class_b - t.class_a.T).max() <= 1e-12, (name, gamma)


@pytest.fixture(scope="module")
def tensors(coarse_grid, prisoners_dilemma, deadlock):
    gamma = EntanglementParam(0.35)
    return (
        payoff_tensor(prisoners_dilemma, coarse_grid, gamma),
        payoff_tensor(deadlock, coarse_grid, gamma),
    )


class TestBayesian:
    def test_payoff_at_boundary_priors(self, tensors):
        t1, t2 = tensors
        for p, table, slot in ((1.0, t1, 1), (0.0, t2, 2)):
            eqs = nash_bayesian(t1, t2, PriorProbability(p))
            assert eqs
            for eq in eqs:
                a, b = eq.strategy_indices[0], eq.strategy_indices[slot]
                assert eq.payoffs[0] == pytest.approx(table.payoff_a[a, b], abs=1e-12)

    def test_payoff_degenerate_mixture(self, tensors):
        t1, _ = tensors
        for p in (0.0, 0.25, 0.8, 1.0):
            eqs = nash_bayesian(t1, t1, PriorProbability(p))
            assert eqs
            for eq in eqs:
                a, b1, b2 = eq.strategy_indices
                expected = p * t1.payoff_a[a, b1] + (1 - p) * t1.payoff_a[a, b2]
                assert eq.payoffs == pytest.approx(
                    (expected, t1.payoff_b[a, b1], t1.payoff_b[a, b2]), abs=1e-12
                )
                if b1 == b2:
                    assert eq.payoffs[0] == pytest.approx(t1.payoff_a[a, b1], abs=1e-12)

    def test_mismatched_gamma_rejected(self, coarse_grid, prisoners_dilemma):
        t1 = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(0.1))
        t2 = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(0.2))
        with pytest.raises(ValueError):
            nash_bayesian(t1, t2, PriorProbability(0.5))

    def test_mismatched_grid_rejected(self, coarse_grid, prisoners_dilemma):
        gamma, prior = EntanglementParam(0.1), PriorProbability(0.5)
        other = build_grid(SteppingParams(PI / 2, PI / 2, PI / 2))
        t1 = payoff_tensor(prisoners_dilemma, coarse_grid, gamma)
        t2 = payoff_tensor(prisoners_dilemma, other, gamma)
        with pytest.raises(ValueError):
            nash_bayesian(t1, t2, prior)
        # a grid built separately from equal steps is the same strategy set
        twin = build_grid(coarse_grid.source_steps)
        assert twin is not coarse_grid
        same = nash_bayesian(t1, payoff_tensor(prisoners_dilemma, twin, gamma), prior)
        assert same == nash_bayesian(t1, t1, prior)
        # same length, different steps: caught by the steps, and by the angles alone
        a, b = build_grid(SteppingParams(PI, PI / 2, 1.8)), build_grid(SteppingParams(PI, PI / 2, 2.0))
        assert len(a) == len(b) and not np.array_equal(a.angles, b.angles)
        for grid in (b, dataclasses.replace(b, source_steps=a.source_steps)):
            with pytest.raises(ValueError, match="different strategy grids"):
                nash_bayesian(
                    payoff_tensor(prisoners_dilemma, a, gamma), payoff_tensor(prisoners_dilemma, grid, gamma), prior
                )

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            PriorProbability(1.2)
        with pytest.raises(ValueError):
            PriorProbability(-0.01)

    def test_classical_pd_pair_mixture(self, coarse_grid, prisoners_dilemma):
        t = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(0.0))
        eqs = nash_bayesian(t, t, PriorProbability(0.5))
        assert len(eqs) == 64  # every defect-class triple
        for eq in eqs:
            assert eq.payoffs == pytest.approx((1.0, 1.0, 1.0), abs=1e-9)

    def test_p_one_projects_to_two_player(self, tensors):
        t1, t2 = tensors
        triples = nash_bayesian(t1, t2, PriorProbability(1.0))
        pairs = {eq.strategy_indices[:2] for eq in triples}
        expected = {eq.strategy_indices for eq in nash_two_player(t1)}
        assert pairs == expected
        # b2 ranges over B2's best responses to a
        b2_best = t2.payoff_b >= t2.payoff_b.max(axis=1, keepdims=True) - 1e-9
        for eq in triples:
            a, _, b2 = eq.strategy_indices
            assert b2_best[a, b2]

    def test_identical_games_diagonal_matches_two_player(self, tensors):
        t1, _ = tensors
        for p in (0.3, 0.5, 0.9):
            triples = nash_bayesian(t1, t1, PriorProbability(p))
            diagonal = {
                (a, b1) for a, b1, b2 in (eq.strategy_indices for eq in triples) if b1 == b2
            }
            assert diagonal == {eq.strategy_indices for eq in nash_two_player(t1)}

    def test_matches_brute_force_on_random_games(self, coarse_grid):
        rng = np.random.default_rng(33)
        for _ in range(8):
            g1, g2 = random_game(rng, "g1"), random_game(rng, "g2")
            gamma = EntanglementParam(rng.uniform(0, PI / 2))
            p = float(rng.uniform(0, 1))
            t1 = payoff_tensor(g1, coarse_grid, gamma)
            t2 = payoff_tensor(g2, coarse_grid, gamma)
            got = [eq.strategy_indices for eq in nash_bayesian(t1, t2, PriorProbability(p))]
            expected = brute_force_bayes(
                t1.payoff_a.tolist(), t1.payoff_b.tolist(),
                t2.payoff_a.tolist(), t2.payoff_b.tolist(), p, 1e-9,
            )
            assert sorted(got) == expected

    @pytest.mark.parametrize("epsilon", [0.0, 1e-9])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("pair", ["pd-deadlock", "random-integer"])
    def test_order_and_ties_at_zero_entanglement(
        self, coarse_grid, prisoners_dilemma, deadlock, pair, p, epsilon
    ):
        # At gamma = 0 B's best-response sets are wide (every row has at
        # least a phase twin), so the emitted order is not trivially sorted.
        if pair == "pd-deadlock":
            g1, g2 = prisoners_dilemma, deadlock
        else:
            rng = np.random.default_rng(36)
            g1, g2 = integer_game(rng, "i1"), integer_game(rng, "i2")
        gamma = EntanglementParam(0.0)
        t1, t2 = payoff_tensor(g1, coarse_grid, gamma), payoff_tensor(g2, coarse_grid, gamma)
        for t in (t1, t2):
            best = t.payoff_b >= t.payoff_b.max(axis=1, keepdims=True) - epsilon
            assert best.sum(axis=1).min() >= 2
        eqs = nash_bayesian(t1, t2, PriorProbability(p), epsilon)
        expected = brute_force_bayes(
            t1.payoff_a.tolist(), t1.payoff_b.tolist(),
            t2.payoff_a.tolist(), t2.payoff_b.tolist(), p, epsilon,
        )
        assert expected
        assert [eq.strategy_indices for eq in eqs] == expected
        for eq in eqs:
            a, b1, b2 = eq.strategy_indices
            assert eq.payoffs == (
                p * t1.payoff_a[a, b1] + (1 - p) * t2.payoff_a[a, b2],
                t1.payoff_b[a, b1],
                t2.payoff_b[a, b2],
            )

    @pytest.mark.parametrize("column_block", [1, 3])
    def test_column_blocking_does_not_change_result(self, monkeypatch, tensors, column_block):
        t1, t2 = tensors
        priors = [PriorProbability(p) for p in (0.0, 0.3, 1.0)]
        whole = [nash_bayesian(t1, t2, prior) for prior in priors]
        zero = [payoff_tensor(t.game, t.grid, EntanglementParam(0.0)) for t in (t1, t2)]
        whole_zero = nash_bayesian(*zero, priors[1])
        assert all(whole) and whole_zero
        monkeypatch.setattr(equilibrium, "_COLUMN_BLOCK", column_block)
        assert [nash_bayesian(t1, t2, prior) for prior in priors] == whole
        assert nash_bayesian(*zero, priors[1]) == whole_zero

    def test_b1_is_always_a_best_response(self, tensors):
        t1, t2 = tensors
        b1_best = t1.payoff_b >= t1.payoff_b.max(axis=1, keepdims=True) - 1e-9
        for p in (0.2, 0.6):
            for eq in nash_bayesian(t1, t2, PriorProbability(p)):
                a, b1, _ = eq.strategy_indices
                assert b1_best[a, b1]


@pytest.mark.parametrize("epsilon", [-1.0, -1e-12, math.nan, math.inf])
def test_bad_epsilon_rejected(tensors, epsilon):
    t1, t2 = tensors
    with pytest.raises(ValueError, match="epsilon"):
        nash_two_player(t1, epsilon)
    with pytest.raises(ValueError, match="epsilon"):
        nash_bayesian(t1, t2, PriorProbability(0.5), epsilon)
    # with no gammas the reductions never run, and the sweeps still refuse
    with pytest.raises(ValueError, match="epsilon"):
        gamma_sweep(t1.game, t1.grid, [], epsilon)
    with pytest.raises(ValueError, match="epsilon"):
        bayes_sweep(t1.game, t2.game, t1.grid, [], [0.5], epsilon)


def test_zero_epsilon_accepted(tensors):
    t1, t2 = tensors
    nash_two_player(t1, 0.0)
    nash_bayesian(t1, t2, PriorProbability(0.5), 0.0)


def partner_swaps(indices, partners):
    """Each index tuple reached by swapping one strategy for its -U partner."""
    for k, i in enumerate(indices):
        for j in partners.get(i, []):
            yield indices[:k] + (j,) + indices[k + 1:]


@pytest.fixture(scope="module")
def quarter_grid():
    return build_grid(SteppingParams(PI / 4, PI / 4, PI / 4))


@pytest.fixture(scope="module")
def quarter_partners(quarter_grid):
    return phase_partners(p.astuple() for p in quarter_grid.params)


class TestPhaseClasses:
    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.8])
    @pytest.mark.parametrize("game", ["prisoners_dilemma", "stag_hunt"])
    def test_two_player_set_is_closed_under_partner_swap(
        self, request, quarter_grid, quarter_partners, game, gamma
    ):
        assert len(quarter_partners) == len(quarter_grid)
        t = payoff_tensor(request.getfixturevalue(game), quarter_grid, EntanglementParam(gamma))
        eqs = {eq.strategy_indices: eq.payoffs for eq in nash_two_player(t, 0.0)}
        for indices, payoffs in eqs.items():
            for swapped in partner_swaps(indices, quarter_partners):
                assert eqs[swapped] == payoffs

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.8])
    def test_bayesian_set_is_closed_under_partner_swap(
        self, quarter_grid, quarter_partners, prisoners_dilemma, deadlock, gamma
    ):
        t1 = payoff_tensor(prisoners_dilemma, quarter_grid, EntanglementParam(gamma))
        t2 = payoff_tensor(deadlock, quarter_grid, EntanglementParam(gamma))
        for p in (0.0, 0.3, 1.0):
            eqs = {eq.strategy_indices: eq.payoffs for eq in nash_bayesian(t1, t2, PriorProbability(p), 0.0)}
            for indices, payoffs in eqs.items():
                for swapped in partner_swaps(indices, quarter_partners):
                    assert eqs[swapped] == payoffs

    @pytest.mark.parametrize("epsilon", [0.0, 1e-9])
    @pytest.mark.parametrize(
        "steps",
        [
            SteppingParams(PI / 2, 2 * PI / 3, 2 * PI / 3),  # no strategy has a partner
            SteppingParams(PI / 2, PI / 2, 2 * PI / 3),  # partners only at theta = 0
        ],
    )
    def test_singleton_classes_match_brute_force(
        self, prisoners_dilemma, deadlock, stag_hunt, steps, epsilon
    ):
        grid = build_grid(steps)
        assert len(phase_partners(p.astuple() for p in grid.params)) < len(grid)
        for g1, g2 in ((prisoners_dilemma, deadlock), (stag_hunt, prisoners_dilemma)):
            for gamma in (0.0, 0.3):
                t1 = payoff_tensor(g1, grid, EntanglementParam(gamma))
                t2 = payoff_tensor(g2, grid, EntanglementParam(gamma))
                a1, b1, a2, b2 = (t.tolist() for t in (t1.payoff_a, t1.payoff_b, t2.payoff_a, t2.payoff_b))
                pairs = nash_two_player(t1, epsilon)
                assert pairs and [eq.strategy_indices for eq in pairs] == brute_force_nash(a1, b1, epsilon)
                assert len({eq.strategy_indices for eq in pairs}) == len(pairs)
                assert all(eq.payoffs == (a1[i][j], b1[i][j]) for eq in pairs for i, j in [eq.strategy_indices])
                triples = nash_bayesian(t1, t2, PriorProbability(0.3), epsilon)
                assert triples
                assert [eq.strategy_indices for eq in triples] == brute_force_bayes(a1, b1, a2, b2, 0.3, epsilon)
                assert len({eq.strategy_indices for eq in triples}) == len(triples)


class TestColumnAdapters:
    """nash_two_player and nash_bayesian are the reductions' columns as objects."""

    @staticmethod
    def as_rows(columns):
        players = len(columns) // 2
        return [(row[:players], row[players:]) for row in zip(*(c.tolist() for c in columns))]

    @pytest.mark.parametrize("gamma", [0.0, 0.35, PI / 2])
    def test_two_player(self, coarse_grid, stag_hunt, gamma):
        tensor = payoff_tensor(stag_hunt, coarse_grid, EntanglementParam(gamma))
        columns = equilibrium._two_player_columns(tensor, 1e-9)
        assert len(columns) == 4 and len(columns[0]) > 0
        eqs = nash_two_player(tensor, 1e-9)
        assert [(eq.strategy_indices, eq.payoffs) for eq in eqs] == self.as_rows(columns)
        assert all(type(i) is int for eq in eqs for i in eq.strategy_indices)
        assert all(type(x) is float for eq in eqs for x in eq.payoffs)

    def test_bayesian(self, tensors):
        priors = [PriorProbability(p) for p in (0.0, 0.4, 1.0)]
        per_prior = equilibrium._bayes_equilibria(*tensors, priors, 1e-9)
        for prior, columns in zip(priors, per_prior, strict=True):
            assert len(columns) == 6 and len(columns[0]) > 0
            eqs = nash_bayesian(*tensors, prior)
            assert [(eq.strategy_indices, eq.payoffs) for eq in eqs] == self.as_rows(columns)


CATALOGUE = load_default_catalogue()


@pytest.fixture(scope="module")
def eighth_grid():
    """The 1824-strategy grid (912 classes), wide enough for real tie sets."""
    return build_grid(SteppingParams(PI / 8, PI / 8, PI / 8))


@pytest.fixture(scope="module")
def open_grid():
    """A grid the orbit maps do not close: phi and alpha steps miss pi/2."""
    return build_grid(SteppingParams(PI / 8, PI / 5, PI / 4))


@pytest.fixture(scope="module")
def lone_class_grid():
    """293 strategies in 289 classes, 4 of them with a partner, and G = {e}:
    nearly every class the expansion meets has a single member."""
    grid = build_grid(SteppingParams(PI / 8, 2 * PI / 5, PI / 4))
    assert len(grid) == 293 and grid.orbit_maps.shape == (1, 289)
    assert (grid.members[:, 1] >= 0).sum() == 4
    return grid


MEMBER_GAMMAS = [(0.0, "0"), (PI / 8, "pi/8"), (PI / 2, "pi/2")]
MEMBER_CASES = [
    pytest.param(grid, name, gamma, id=f"{name}-{gamma_id}{suffix}")
    for grid, suffix in (("eighth_grid", ""), ("open_grid", "-open"))
    for gamma, gamma_id in MEMBER_GAMMAS
    for name in CATALOGUE.names
]


class TestPayoffBuffers:
    """`_tables` writes every gamma's pass into one set of buffers, one per
    player per game; a lone `payoff_tensor` call owns its tables, read-only."""

    GAMMAS = [EntanglementParam(0.0), EntanglementParam(PI / 8)]

    def test_sweep_steps_share_their_buffers(self, monkeypatch, eighth_grid, stag_hunt, deadlock):
        rows, classes = len(eighth_grid.orbit_images[0]), len(eighth_grid.features)
        monkeypatch.setattr(equilibrium, "_ROW_BLOCK", 100 * 8 * classes)
        row_blocks = equilibrium._row_blocks(rows, classes)
        assert row_blocks == [(0, 100), (100, 200), (200, rows)]
        lone = {game: payoff_tensor(game, eighth_grid, self.GAMMAS[1]) for game in (stag_hunt, deadlock)}
        # a two-player sweep's row blocks, and a two-game whole-table pass
        for games, blocks in (((stag_hunt,), row_blocks), ((stag_hunt, deadlock), [(0, rows)])):
            passes = [
                [(start, tables, [t.copy() for t in tables]) for start, tables in filled]
                for filled in equilibrium._tables(games, eighth_grid, self.GAMMAS, blocks)
            ]
            assert [len(p) for p in passes] == [len(blocks)] * 2
            buffers = passes[0][0][1]
            assert len(buffers) == 2 * len(games)
            for x, y in itertools.combinations(buffers, 2):
                assert not np.shares_memory(x, y)
            for _, tables, _ in itertools.chain.from_iterable(passes):
                assert all(np.shares_memory(t, b) for t, b in zip(tables, buffers, strict=True))
            # the latest gamma's tables, written block by block and left in the buffers
            want = [table for game in games for table in (lone[game].rows_a, lone[game].rows_b)]
            written = [np.concatenate(parts) for parts in zip(*(copies for _, _, copies in passes[-1]))]
            assert all(np.array_equal(w, t) for w, t in zip(want, written, strict=True))
            start, tables, _ = passes[-1][-1]
            assert all(np.array_equal(w[start:], t) for w, t in zip(want, tables, strict=True))

    def test_tables_are_read_only(self, eighth_grid, stag_hunt, deadlock):
        for game, gamma in itertools.product((stag_hunt, deadlock), self.GAMMAS):
            t = payoff_tensor(game, eighth_grid, gamma)
            for rows in (t.rows_a, t.rows_b):
                assert not rows.flags.writeable
                with pytest.raises(ValueError):
                    rows[0, 0] = 0.0

    def test_lone_calls_own_their_tables(self, eighth_grid, stag_hunt):
        first, second = (payoff_tensor(stag_hunt, eighth_grid, self.GAMMAS[0]) for _ in range(2))
        for x, y in itertools.product((first.rows_a, first.rows_b), (second.rows_a, second.rows_b)):
            assert not np.shares_memory(x, y)
        assert np.array_equal(first.rows_a, second.rows_a) and np.array_equal(first.rows_b, second.rows_b)


class TestTwoPlayerOnEighthGrid:
    @pytest.mark.parametrize("grid, name, gamma", MEMBER_CASES)
    def test_matches_member_level_definition(self, request, grid, name, gamma):
        t = payoff_tensor(CATALOGUE.get(name), request.getfixturevalue(grid), EntanglementParam(gamma))
        a, b = t.payoff_a, t.payoff_b
        a_max, b_max = a.max(0), b.max(1, keepdims=True)
        for epsilon in (0.0, 1e-9, 0.5):
            i, j = np.nonzero((a >= a_max - epsilon) & (b >= b_max - epsilon))
            columns = equilibrium._two_player_columns(t, epsilon)
            assert len(columns) == 4
            for got, want in zip(columns, (i, j, a[i, j], b[i, j]), strict=True):
                assert np.array_equal(got, want), (name, gamma, epsilon)

    # At gamma = 0 the B tie sets of das_brother and matching_pennies are
    # wide (15% of the class cells); their bounds are the peaks, in units of
    # classes**2 bytes, of the reduction on full class tables.
    @pytest.mark.parametrize(
        "name, gamma, classes_squared",
        [pytest.param(name, PI / 8, None, id=name) for name in CATALOGUE.names]
        + [
            pytest.param("das_brother", 0.0, 4.9, id="das_brother-gamma0"),
            pytest.param("matching_pennies", 0.0, 8.4, id="matching_pennies-gamma0"),
        ],
    )
    def test_scratch_stays_under_two_class_tables_of_bytes(self, eighth_grid, name, gamma, classes_squared):
        # one boolean orbit-row table for B's tie test, and no full-size mask for A
        t = payoff_tensor(CATALOGUE.get(name), eighth_grid, EntanglementParam(gamma))
        rows, n = t.rows_a.shape
        assert rows == 232 and n == 912
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            columns = equilibrium._two_player_columns(t, 1e-9)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(columns) == 4
        bound = 2 * rows * n if classes_squared is None else classes_squared * n * n
        assert peak < bound, (name, gamma, peak / n**2)


class TestBayesOnEighthGrid:
    # Bounds, in units of classes**2 bytes, are the peaks of the reduction
    # before the cells were expanded in one step, rounded up.
    @pytest.mark.parametrize(
        "names, gamma, classes_squared",
        [
            pytest.param(("prisoners_dilemma", "deadlock"), 0.0, 6.86, id="pd-deadlock-0"),
            pytest.param(("prisoners_dilemma", "deadlock"), 0.35, 2.45, id="pd-deadlock-0.35"),
            pytest.param(("prisoners_dilemma", "deadlock"), 1.2, 2.54, id="pd-deadlock-1.2"),
            pytest.param(("stag_hunt", "das_brother"), 0.35, 2.48, id="stag-das-0.35"),
            pytest.param(("stag_hunt", "das_brother"), 0.7, 5.01, id="stag-das-0.7"),
        ],
    )
    def test_scratch_over_21_priors_stays_under_its_recorded_peak(self, eighth_grid, names, gamma, classes_squared):
        t1, t2 = (payoff_tensor(CATALOGUE.get(name), eighth_grid, EntanglementParam(gamma)) for name in names)
        priors = [PriorProbability(p) for p in default_p_grid(21)]
        n = t1.rows_a.shape[1]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            per_prior = equilibrium._bayes_equilibria(t1, t2, priors, 1e-9)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(per_prior) == 21
        assert peak < classes_squared * n * n, (names, gamma, peak / n**2)


def member_tuples(grid, class_tuples, payoffs):
    """Every member index tuple of the class tuples, in lexicographic order,
    each with its class tuple's payoffs: a plain-Python expansion that reads
    nothing of the grid but `grid.classes`."""
    members = {}
    for index, c in enumerate(grid.classes.tolist()):
        members.setdefault(c, []).append(index)
    rows = sorted(
        (member, pays)
        for classes, pays in zip(zip(*(c.tolist() for c in class_tuples)), zip(*(p.tolist() for p in payoffs)))
        for member in itertools.product(*(members[c] for c in classes))
    )
    indices = [np.array([row[0][k] for row in rows], dtype=np.intp) for k in range(len(class_tuples))]
    return (*indices, *(np.array([row[1][k] for row in rows], dtype=float) for k in range(len(payoffs))))


def full_two_player(grid, pa, pb, epsilon):
    """The two-player reduction rule on full class tables."""
    ca, cb = np.nonzero(pb >= pb.max(axis=1, keepdims=True) - epsilon)
    keep = pa[ca, cb] >= (pa.max(axis=0) - epsilon)[cb]
    ca, cb = ca[keep], cb[keep]
    return member_tuples(grid, (ca, cb), (pa[ca, cb], pb[ca, cb]))


def full_bayes(grid, x, xb, y, yb, p, epsilon):
    """The Bayesian reduction rule on full class tables, one prior."""
    best1 = xb >= xb.max(axis=1, keepdims=True) - epsilon
    best2 = yb >= yb.max(axis=1, keepdims=True) - epsilon
    triples = []  # (a, b1, b2) in lexicographic order
    for a, (row1, row2) in enumerate(zip(best1, best2)):
        c1, c2 = np.flatnonzero(row1), np.flatnonzero(row2)
        triples.append((np.full(len(c1) * len(c2), a), np.repeat(c1, len(c2)), np.tile(c2, len(c1))))
    a, b1, b2 = (np.concatenate(part) for part in zip(*triples))
    pairs, column = np.unique(b1 * len(x) + b2, return_inverse=True)
    u1, u2 = np.divmod(pairs, len(x))
    colmax = np.concatenate([
        (p * x[:, u1[k:k + 256]] + (1.0 - p) * y[:, u2[k:k + 256]]).max(axis=0)
        for k in range(0, len(pairs), 256)
    ])
    mixed = p * x[a, b1] + (1.0 - p) * y[a, b2]
    ok = mixed >= (colmax - epsilon)[column]
    a, b1, b2 = a[ok], b1[ok], b2[ok]
    return member_tuples(grid, (a, b1, b2), (mixed[ok], xb[a, b1], yb[a, b2]))


def assert_same_equilibria(got, want, players):
    assert len(got) == len(want) == 2 * players
    for g, w in zip(got[:players], want[:players]):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    for g, w in zip(got[players:], want[players:]):
        assert np.abs(g - w).max(initial=0.0) <= 1e-12


class TestOrbitSolve:
    """The orbit solve gives the equilibria of the full class tables.

    Against tables computed every class by every class, index columns are
    equal and payoffs agree within 1e-12 (the row products round
    differently). Its own expanded class tables are invariant under every
    map bit for bit, and on them it is the same rule on the same floats, so
    it agrees exactly, at epsilon 0 as well.
    """

    @pytest.mark.parametrize("name", CATALOGUE.names)
    def test_two_player_on_the_1824_grid(self, full_class_tables, eighth_grid, lone_class_grid, name):
        # the 1824 grid, and a G = {e} grid whose classes mostly have one member
        game = CATALOGUE.get(name)
        for grid, gamma in itertools.product((eighth_grid, lone_class_grid), default_gamma_grid(17)):
            t = payoff_tensor(game, grid, EntanglementParam(gamma))
            want = full_two_player(grid, *full_class_tables(game, grid, gamma), 1e-9)
            assert_same_equilibria(equilibrium._two_player_columns(t, 1e-9), want, 2)
            own_tables = t.class_a, t.class_b
            for table in own_tables:  # folded rows make the expansion exactly invariant
                for row in grid.orbit_maps[1:]:
                    assert table[np.ix_(row, row)].tobytes() == table.tobytes(), (name, gamma)
            for epsilon in (0.0, 1e-9):
                own = full_two_player(grid, *own_tables, epsilon)
                for g, w in zip(equilibrium._two_player_columns(t, epsilon), own, strict=True):
                    assert g.tobytes() == w.tobytes(), (name, len(grid), gamma, epsilon)

    def test_stag_hunt_on_the_7968_grid(self, full_class_tables, stag_hunt):
        grid = build_grid(SteppingParams(PI / 32, PI / 8, PI / 8))
        t = payoff_tensor(stag_hunt, grid, EntanglementParam(PI / 8))
        got = equilibrium._two_player_columns(t, 1e-9)
        assert len(got[0]) > 0
        assert_same_equilibria(got, full_two_player(grid, *full_class_tables(stag_hunt, grid, PI / 8), 1e-9), 2)

    @pytest.mark.parametrize(
        "names", [("prisoners_dilemma", "deadlock"), ("stag_hunt", "das_brother")], ids=["pd-deadlock", "stag-das"]
    )
    @pytest.mark.parametrize("gamma", [0.0, 0.35, 0.7])
    def test_bayes_on_the_1824_grid(self, full_class_tables, eighth_grid, lone_class_grid, names, gamma):
        # the 1824 grid, and a G = {e} grid whose classes mostly have one member
        games = [CATALOGUE.get(name) for name in names]
        priors = (0.0, 0.3, 1.0)
        for grid in (eighth_grid, lone_class_grid):
            t1, t2 = (payoff_tensor(game, grid, EntanglementParam(gamma)) for game in games)
            (x, xb), (y, yb) = (full_class_tables(game, grid, gamma) for game in games)
            per_prior = equilibrium._bayes_equilibria(t1, t2, [PriorProbability(p) for p in priors], 1e-9)
            assert any(len(got[0]) for got in per_prior)
            for p, got in zip(priors, per_prior, strict=True):
                assert_same_equilibria(got, full_bayes(grid, x, xb, y, yb, p, 1e-9), 3)


def tail_row_block(rows):
    """The smallest block of at least 4 rows that leaves a 1-row tail."""
    return next(size for size in range(4, rows) if rows % size == 1)


class TestStreamedReduction:
    """A two-player sweep computes and reduces its tables in blocks of orbit
    rows; every block size gives `_two_player_columns` of the whole tables,
    bit for bit."""

    def test_row_blocks(self, monkeypatch):
        # the shipped size keeps the 1824 grid's 232 x 912 rows one block
        assert equilibrium._row_blocks(232, 912) == [(0, 232)]
        assert equilibrium._row_blocks(1, 912) == [(0, 1)]
        monkeypatch.setattr(equilibrium, "_ROW_BLOCK", 1)  # under one row: 2-row blocks
        assert equilibrium._row_blocks(6, 10) == [(0, 2), (2, 4), (4, 6)]
        assert equilibrium._row_blocks(7, 10) == [(0, 2), (2, 4), (4, 7)]
        monkeypatch.setattr(equilibrium, "_ROW_BLOCK", 3 * 8 * 10)
        assert equilibrium._row_blocks(8, 10) == [(0, 3), (3, 6), (6, 8)]
        assert equilibrium._row_blocks(7, 10) == [(0, 3), (3, 7)]
        assert equilibrium._row_blocks(2, 10) == [(0, 2)]

    @pytest.mark.parametrize("rows_per_block", [2, 3, "tail"])
    @pytest.mark.parametrize("grid", ["eighth_grid", "lone_class_grid"])
    @pytest.mark.parametrize("name", CATALOGUE.names)
    def test_blocks_give_the_whole_tables_columns(self, request, monkeypatch, grid, name, rows_per_block):
        grid = request.getfixturevalue(grid)
        game = CATALOGUE.get(name)
        rows, classes = len(grid.orbit_images[0]), len(grid.features)
        size = tail_row_block(rows) if rows_per_block == "tail" else rows_per_block
        monkeypatch.setattr(equilibrium, "_ROW_BLOCK", size * 8 * classes)
        blocks = equilibrium._row_blocks(rows, classes)
        assert len(blocks) > 1 and blocks[0] == (0, size)
        assert all(stop - start >= 2 for start, stop in blocks)
        gammas = [g for g, _ in MEMBER_GAMMAS]
        tensors = [payoff_tensor(game, grid, EntanglementParam(g)) for g in gammas]
        records = 0
        for epsilon in (0.0, 1e-9, 0.5):
            table = gamma_sweep(game, grid, gammas, epsilon)
            whole = [equilibrium._two_player_columns(t, epsilon) for t in tensors]
            records += len(table)
            names = ("a_index", "b_index", "payoff_a", "payoff_b")
            for column, parts in zip(names, zip(*whole), strict=True):
                got, want = table.columns[column], np.concatenate(parts)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (column, epsilon)
            sizes = [len(cols[0]) for cols in whole]
            assert table.columns["gamma"].tobytes() == np.repeat(gammas, sizes).tobytes()
        assert records > 0

    def test_a_7968_sweep_holds_no_whole_table(self, stag_hunt):
        grid = build_grid(SteppingParams(PI / 32, PI / 8, PI / 8))
        rows, classes = len(grid.orbit_images[0]), len(grid.features)
        assert 2 * rows * classes * 8 > 60e6  # the two whole tables
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            table = gamma_sweep(stag_hunt, grid, [PI / 8])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(table) == 576
        assert peak < 12e6, peak
