import math
import tracemalloc

import numpy as np
import pytest

from ewlgames import GameDefinition, StrategyParams, load_default_catalogue
from ewlgames import equilibrium
from ewlgames.circuit import (
    DEFECT_STRATEGY,
    EntanglementParam,
    expected_payoffs,
    final_state,
    final_state_from_matrices,
    outcome_probs,
    strategy_matrix,
)
from ewlgames.equilibrium import PriorProbability, nash_bayesian, nash_two_player, pairwise_payoffs, payoff_tensor
from ewlgames.grid import SteppingParams, build_grid

from oracles import brute_force_bayes, brute_force_nash, passes_deviation, phase_partners

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
        defect = coarse_grid.params.index(DEFECT_STRATEGY)
        assert (t.payoff_a[0, 0], t.payoff_b[0, 0]) == pytest.approx((3, 3), abs=1e-10)
        assert (t.payoff_a[defect, 0], t.payoff_b[defect, 0]) == pytest.approx((5, 0), abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, 0.45, PI / 2])
    def test_entries_match_naive_path(self, coarse_grid, prisoners_dilemma, gamma):
        t = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(gamma))
        rng = np.random.default_rng(31)
        for _ in range(20):
            i, j = rng.integers(0, len(coarse_grid), size=2)
            state = final_state(
                EntanglementParam(gamma), coarse_grid.params[i], coarse_grid.params[j]
            )
            naive = expected_payoffs(outcome_probs(state), prisoners_dilemma)
            assert (t.payoff_a[i, j], t.payoff_b[i, j]) == pytest.approx(naive, abs=1e-10)

    def test_zero_sum_conservation(self, coarse_grid, matching_pennies):
        t = payoff_tensor(matching_pennies, coarse_grid, EntanglementParam(0.9))
        np.testing.assert_allclose(t.payoff_a + t.payoff_b, 0.0, atol=1e-10)

    def test_global_phase_classes_share_rows(self, coarse_grid, prisoners_dilemma):
        # entries 0/2 are +-identity and 4/6 are +-[[0,1],[-1,0]]
        np.testing.assert_allclose(coarse_grid.matrices[2], -coarse_grid.matrices[0], atol=1e-12)
        np.testing.assert_allclose(coarse_grid.matrices[6], -coarse_grid.matrices[4], atol=1e-12)
        t = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(0.8))
        for a, b in [(0, 2), (4, 6)]:
            np.testing.assert_allclose(t.payoff_a[a], t.payoff_a[b], atol=1e-12)
            np.testing.assert_allclose(t.payoff_a[:, a], t.payoff_a[:, b], atol=1e-12)

    def test_rectangular_kernel_matches_naive(self, coarse_grid, prisoners_dilemma):
        rng = np.random.default_rng(35)
        mats_a = coarse_grid.matrices[:3]
        mats_b = coarse_grid.matrices[3:]
        for game in (prisoners_dilemma, random_game(rng)):
            for gamma in (EntanglementParam(0.0), EntanglementParam(0.7), EntanglementParam(PI / 2)):
                pa, pb = pairwise_payoffs(mats_a, mats_b, gamma, game)
                assert pa.shape == pb.shape == (3, 5)
                for i in range(3):
                    for j in range(5):
                        probs = outcome_probs(
                            final_state_from_matrices(gamma, mats_a[i], mats_b[j])
                        )
                        naive = expected_payoffs(probs, game)
                        assert (pa[i, j], pb[i, j]) == pytest.approx(naive, abs=1e-12)

    @pytest.mark.parametrize("scale", [0.5, 3.0, 1e8])
    @pytest.mark.parametrize("shift", [-2.0, 5.0])
    def test_kernel_tables_follow_affine_payoff_change(self, request, scale, shift):
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
                base = pairwise_payoffs(mats[:25], mats[15:], EntanglementParam(gamma), game)
                got = pairwise_payoffs(mats[:25], mats[15:], EntanglementParam(gamma), moved)
                for table, want, weights in zip(got, base, (moved.payoff_a, moved.payoff_b)):
                    size = max(abs(w) for w in weights)
                    np.testing.assert_allclose(table, scale * want + shift, rtol=0, atol=1e-12 * size)

    def test_kernel_rejects_bad_shapes(self, prisoners_dilemma):
        with pytest.raises(ValueError):
            pairwise_payoffs(
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
        defect = coarse_grid.params.index(DEFECT_STRATEGY)
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

    def test_symmetric_game_mirror(self, coarse_grid, stag_hunt):
        # payoff_b is payoff_a with outcomes 01 and 10 swapped
        assert stag_hunt.payoff_b == (
            stag_hunt.payoff_a[0],
            stag_hunt.payoff_a[2],
            stag_hunt.payoff_a[1],
            stag_hunt.payoff_a[3],
        )
        t = payoff_tensor(stag_hunt, coarse_grid, EntanglementParam(0.7))
        pairs = {eq.strategy_indices for eq in nash_two_player(t)}
        assert pairs == {(j, i) for i, j in pairs}


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
        other = build_grid(SteppingParams(PI / 2, PI / 2, PI / 2))
        t1 = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(0.1))
        t2 = payoff_tensor(prisoners_dilemma, other, EntanglementParam(0.1))
        with pytest.raises(ValueError):
            nash_bayesian(t1, t2, PriorProbability(0.5))

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


class TestTwoPlayerOnEighthGrid:
    @pytest.mark.parametrize("gamma", [0.0, PI / 8, PI / 2], ids=["0", "pi/8", "pi/2"])
    @pytest.mark.parametrize("name", CATALOGUE.names)
    def test_matches_member_level_definition(self, eighth_grid, name, gamma):
        t = payoff_tensor(CATALOGUE.get(name), eighth_grid, EntanglementParam(gamma))
        a, b = t.payoff_a, t.payoff_b
        a_max, b_max = a.max(0), b.max(1, keepdims=True)
        for epsilon in (0.0, 1e-9, 0.5):
            i, j = np.nonzero((a >= a_max - epsilon) & (b >= b_max - epsilon))
            columns = equilibrium._two_player_columns(t, epsilon)
            assert len(columns) == 4
            for got, want in zip(columns, (i, j, a[i, j], b[i, j]), strict=True):
                assert np.array_equal(got, want), (name, gamma, epsilon)

    @pytest.mark.parametrize("name", CATALOGUE.names)
    def test_scratch_stays_under_two_class_tables_of_bytes(self, eighth_grid, name):
        # one boolean class table for B's tie test, and no full-size mask for A
        t = payoff_tensor(CATALOGUE.get(name), eighth_grid, EntanglementParam(PI / 8))
        n = len(t.class_a)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            columns = equilibrium._two_player_columns(t, 1e-9)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(columns) == 4
        assert peak < 2 * n * n, (name, peak / n**2)
