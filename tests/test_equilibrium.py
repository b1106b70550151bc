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
from ewlgames.equilibrium import PriorProbability
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


def equilibria(table) -> list[tuple[tuple, tuple]]:
    """(index tuple, payoff tuple) of each record of a sweep table, in record order."""
    roles = ("a", "b1", "b2") if table.bayes else ("a", "b")
    indices = zip(*(table.columns[f"{role}_index"].tolist() for role in roles))
    payoffs = zip(*(table.columns[f"payoff_{role}"].tolist() for role in roles))
    return list(zip(indices, payoffs))


def at_prior(table, p) -> list[tuple[tuple, tuple]]:
    """`equilibria` of the records of a one-gamma Bayesian table at prior p."""
    return [eq for eq, prior in zip(equilibria(table), table.columns["p"].tolist()) if prior == p]


class TestPayoffTensor:
    def test_identity_pair_scores_outcome_00(self, coarse_grid, solver_tables):
        rng = np.random.default_rng(30)
        game = random_game(rng)
        pa, pb = solver_tables([game], coarse_grid, 0.77, "members")
        assert (pa[0, 0], pb[0, 0]) == pytest.approx((game.payoff_a[0], game.payoff_b[0]), abs=1e-10)

    def test_classical_cells_at_zero_entanglement(self, coarse_grid, prisoners_dilemma, solver_tables):
        pa, pb = solver_tables([prisoners_dilemma], coarse_grid, 0.0, "members")
        defect = coarse_grid.params.index(StrategyParams(PI, 0, PI / 2))
        assert (pa[0, 0], pb[0, 0]) == pytest.approx((3, 3), abs=1e-10)
        assert (pa[defect, 0], pb[defect, 0]) == pytest.approx((5, 0), abs=1e-10)

    @pytest.mark.parametrize("gamma", [0.0, 0.45, PI / 2])
    def test_entries_match_naive_path(self, coarse_grid, prisoners_dilemma, solver_tables, gamma):
        pa, pb = solver_tables([prisoners_dilemma], coarse_grid, gamma, "members")
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
            assert (pa[i, j], pb[i, j]) == pytest.approx(naive, abs=1e-10)

    def test_zero_sum_conservation(self, coarse_grid, matching_pennies, solver_tables):
        pa, pb = solver_tables([matching_pennies], coarse_grid, 0.9, "members")
        np.testing.assert_allclose(pa + pb, 0.0, atol=1e-10)

    def test_global_phase_classes_share_rows(self, coarse_grid, strategy_matrices, prisoners_dilemma, solver_tables):
        # entries 0/2 are +-identity and 4/6 are +-[[0,1],[-1,0]]
        mats = strategy_matrices(coarse_grid)
        np.testing.assert_allclose(mats[2], -mats[0], atol=1e-12)
        np.testing.assert_allclose(mats[6], -mats[4], atol=1e-12)
        pa, _ = solver_tables([prisoners_dilemma], coarse_grid, 0.8, "members")
        for a, b in [(0, 2), (4, 6)]:
            np.testing.assert_allclose(pa[a], pa[b], atol=1e-12)
            np.testing.assert_allclose(pa[:, a], pa[:, b], atol=1e-12)

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
    def a_best_sets(game, grid, gamma, epsilon=1e-9):
        sets = {j: [] for j in range(len(grid))}
        for (i, j), _ in equilibria(gamma_sweep(game, grid, [gamma], epsilon)):
            sets[j].append(i)
        return sets

    @staticmethod
    def with_indifferent_b(game):
        return GameDefinition(game.name, game.payoff_a, (1.0, 1.0, 1.0, 1.0))

    def test_pd_defection_dominates_classically(self, coarse_grid, prisoners_dilemma, solver_tables):
        game = self.with_indifferent_b(prisoners_dilemma)
        pa, _ = solver_tables([game], coarse_grid, 0.0, "members")
        defect = coarse_grid.params.index(StrategyParams(PI, 0, PI / 2))
        vs_identity = self.a_best_sets(game, coarse_grid, 0.0)[0]
        assert defect in vs_identity
        assert 0 not in vs_identity
        assert pa[vs_identity, 0] == pytest.approx([5.0] * len(vs_identity), abs=1e-12)

    def test_constant_game_full_tie(self, coarse_grid):
        const = GameDefinition("const", (2, 2, 2, 2), (2, 2, 2, 2))
        eqs = equilibria(gamma_sweep(const, coarse_grid, [0.5]))
        assert [ij for ij, _ in eqs] == [(i, j) for i in range(8) for j in range(8)]

    def test_pennies_best_response_matches_brute_force(self, coarse_grid, matching_pennies, solver_tables):
        game = self.with_indifferent_b(matching_pennies)
        pa, _ = solver_tables([game], coarse_grid, 0.0, "members")
        vs_identity = self.a_best_sets(game, coarse_grid, 0.0)[0]
        col = pa[:, 0]
        expected = [int(k) for k in np.nonzero(col >= col.max() - 1e-9)[0]]
        assert vs_identity == expected
        # classically, matching the identity (confess class) wins for A
        assert set(vs_identity) == {0, 1, 2, 3}

    def test_set_invariants_on_random_games(self, coarse_grid, solver_tables):
        eps = 1e-9
        rng = np.random.default_rng(34)
        for _ in range(10):
            game, gamma = self.with_indifferent_b(random_game(rng)), rng.uniform(0, PI / 2)
            pa, _ = solver_tables([game], coarse_grid, gamma, "members")
            for j, best in self.a_best_sets(game, coarse_grid, gamma, eps).items():
                col = pa[:, j]
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
        eqs = equilibria(gamma_sweep(prisoners_dilemma, coarse_grid, [0.0]))
        assert len(eqs) == 16
        for _, payoffs in eqs:
            assert payoffs == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_pd_maximal_entanglement_empty(self, coarse_grid, prisoners_dilemma):
        assert len(gamma_sweep(prisoners_dilemma, coarse_grid, [PI / 2])) == 0

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.61, 1.0, PI / 2])
    def test_pennies_always_empty(self, coarse_grid, matching_pennies, gamma):
        assert len(gamma_sweep(matching_pennies, coarse_grid, [gamma])) == 0

    def test_quantum_pd_payoff_grows(self, coarse_grid, prisoners_dilemma):
        gamma = 0.5
        eqs = equilibria(gamma_sweep(prisoners_dilemma, coarse_grid, [gamma]))
        expected = 1 + 2 * math.sin(gamma) ** 2
        assert len(eqs) == 8
        for _, payoffs in eqs:
            assert payoffs == pytest.approx((expected, expected), abs=1e-10)

    def test_matches_deviation_oracle_on_random_games(self, coarse_grid, solver_tables):
        rng = np.random.default_rng(32)
        for _ in range(20):
            game = random_game(rng)
            gamma = rng.uniform(0, PI / 2)
            pa, pb = solver_tables([game], coarse_grid, gamma, "members")
            got = [ij for ij, _ in equilibria(gamma_sweep(game, coarse_grid, [gamma]))]
            expected = brute_force_nash(pa.tolist(), pb.tolist(), 1e-9)
            assert got == expected

    def test_every_equilibrium_survives_deviation_check(self, coarse_grid, prisoners_dilemma, solver_tables):
        pa, pb = (t.tolist() for t in solver_tables([prisoners_dilemma], coarse_grid, 0.4, "members"))
        eqs = equilibria(gamma_sweep(prisoners_dilemma, coarse_grid, [0.4]))
        assert eqs
        for (i, j), _ in eqs:
            assert passes_deviation(pa, pb, i, j, 1e-9)

    @pytest.mark.parametrize("name", ["prisoners_dilemma", "deadlock", "stag_hunt"])
    def test_symmetric_game_mirror(self, request, coarse_grid, eighth_grid, solver_tables, name):
        game = request.getfixturevalue(name)
        # payoff_b is payoff_a with outcomes 01 and 10 swapped
        assert game.payoff_b == (game.payoff_a[0], game.payoff_a[2], game.payoff_a[1], game.payoff_a[3])
        pairs = {ij for ij, _ in equilibria(gamma_sweep(game, coarse_grid, [0.7]))}
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
            class_a, class_b = solver_tables([game], eighth_grid, gamma, "classes")
            assert np.abs(class_b - class_a.T).max() <= 1e-12, (name, gamma)


BAYES_GAMMA = 0.35


@pytest.fixture(scope="module")
def pd_deadlock(coarse_grid, prisoners_dilemma, deadlock, solver_tables):
    """The dilemma and the deadlock on the coarse grid at BAYES_GAMMA, with
    their member tables (x, xb, y, yb): A's and B1's, then A's and B2's."""
    tables = solver_tables([prisoners_dilemma, deadlock], coarse_grid, BAYES_GAMMA, "members")
    return prisoners_dilemma, deadlock, tables


class TestBayesian:
    def test_payoff_at_boundary_priors(self, coarse_grid, pd_deadlock):
        g1, g2, (x, _, y, _) = pd_deadlock
        for p, table, slot in ((1.0, x, 1), (0.0, y, 2)):
            eqs = equilibria(bayes_sweep(g1, g2, coarse_grid, [BAYES_GAMMA], [p]))
            assert eqs
            for indices, payoffs in eqs:
                a, b = indices[0], indices[slot]
                assert payoffs[0] == pytest.approx(table[a, b], abs=1e-12)

    def test_payoff_degenerate_mixture(self, coarse_grid, pd_deadlock):
        g1, _, (x, xb, _, _) = pd_deadlock
        for p in (0.0, 0.25, 0.8, 1.0):
            eqs = equilibria(bayes_sweep(g1, g1, coarse_grid, [BAYES_GAMMA], [p]))
            assert eqs
            for (a, b1, b2), payoffs in eqs:
                expected = p * x[a, b1] + (1 - p) * x[a, b2]
                assert payoffs == pytest.approx((expected, xb[a, b1], xb[a, b2]), abs=1e-12)
                if b1 == b2:
                    assert payoffs[0] == pytest.approx(x[a, b1], abs=1e-12)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            PriorProbability(1.2)
        with pytest.raises(ValueError):
            PriorProbability(-0.01)

    def test_classical_pd_pair_mixture(self, coarse_grid, prisoners_dilemma):
        eqs = equilibria(bayes_sweep(prisoners_dilemma, prisoners_dilemma, coarse_grid, [0.0], [0.5]))
        assert len(eqs) == 64  # every defect-class triple
        for _, payoffs in eqs:
            assert payoffs == pytest.approx((1.0, 1.0, 1.0), abs=1e-9)

    def test_p_one_projects_to_two_player(self, coarse_grid, pd_deadlock):
        g1, g2, (_, _, _, yb) = pd_deadlock
        triples = [abc for abc, _ in equilibria(bayes_sweep(g1, g2, coarse_grid, [BAYES_GAMMA], [1.0]))]
        pairs = {abc[:2] for abc in triples}
        expected = {ij for ij, _ in equilibria(gamma_sweep(g1, coarse_grid, [BAYES_GAMMA]))}
        assert pairs == expected
        # b2 ranges over B2's best responses to a
        b2_best = yb >= yb.max(axis=1, keepdims=True) - 1e-9
        for a, _, b2 in triples:
            assert b2_best[a, b2]

    def test_identical_games_diagonal_matches_two_player(self, coarse_grid, pd_deadlock):
        g1 = pd_deadlock[0]
        two_player = {ij for ij, _ in equilibria(gamma_sweep(g1, coarse_grid, [BAYES_GAMMA]))}
        for p in (0.3, 0.5, 0.9):
            triples = equilibria(bayes_sweep(g1, g1, coarse_grid, [BAYES_GAMMA], [p]))
            diagonal = {(a, b1) for (a, b1, b2), _ in triples if b1 == b2}
            assert diagonal == two_player

    def test_matches_brute_force_on_random_games(self, coarse_grid, solver_tables):
        rng = np.random.default_rng(33)
        for _ in range(8):
            g1, g2 = random_game(rng, "g1"), random_game(rng, "g2")
            gamma = rng.uniform(0, PI / 2)
            p = float(rng.uniform(0, 1))
            tables = solver_tables([g1, g2], coarse_grid, gamma, "members")
            got = [abc for abc, _ in equilibria(bayes_sweep(g1, g2, coarse_grid, [gamma], [p]))]
            expected = brute_force_bayes(*(t.tolist() for t in tables), p, 1e-9)
            assert sorted(got) == expected

    @pytest.mark.parametrize("epsilon", [0.0, 1e-9])
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("pair", ["pd-deadlock", "random-integer"])
    def test_order_and_ties_at_zero_entanglement(
        self, coarse_grid, prisoners_dilemma, deadlock, solver_tables, pair, p, epsilon
    ):
        # At gamma = 0 B's best-response sets are wide (every row has at
        # least a phase twin), so the emitted order is not trivially sorted.
        if pair == "pd-deadlock":
            g1, g2 = prisoners_dilemma, deadlock
        else:
            rng = np.random.default_rng(36)
            g1, g2 = integer_game(rng, "i1"), integer_game(rng, "i2")
        x, xb, y, yb = solver_tables([g1, g2], coarse_grid, 0.0, "members")
        for b_table in (xb, yb):
            best = b_table >= b_table.max(axis=1, keepdims=True) - epsilon
            assert best.sum(axis=1).min() >= 2
        eqs = equilibria(bayes_sweep(g1, g2, coarse_grid, [0.0], [p], epsilon))
        expected = brute_force_bayes(x.tolist(), xb.tolist(), y.tolist(), yb.tolist(), p, epsilon)
        assert expected
        assert [abc for abc, _ in eqs] == expected
        for (a, b1, b2), payoffs in eqs:
            assert payoffs == (p * x[a, b1] + (1 - p) * y[a, b2], xb[a, b1], yb[a, b2])

    @pytest.mark.parametrize("column_block", [1, 3])
    def test_column_blocking_does_not_change_result(self, monkeypatch, coarse_grid, pd_deadlock, column_block):
        g1, g2, _ = pd_deadlock
        priors = [0.0, 0.3, 1.0]

        def sweeps():
            return (
                bayes_sweep(g1, g2, coarse_grid, [BAYES_GAMMA], priors),
                bayes_sweep(g1, g2, coarse_grid, [0.0], priors[1:2]),
            )

        whole = sweeps()
        assert all(len(at_prior(whole[0], p)) for p in priors) and len(whole[1])
        monkeypatch.setattr(equilibrium, "_COLUMN_BLOCK", column_block)
        for got, want in zip(sweeps(), whole, strict=True):
            assert equilibria(got) == equilibria(want)

    def test_b1_is_always_a_best_response(self, coarse_grid, pd_deadlock):
        g1, g2, (_, xb, _, _) = pd_deadlock
        b1_best = xb >= xb.max(axis=1, keepdims=True) - 1e-9
        for p in (0.2, 0.6):
            for (a, b1, _), _ in equilibria(bayes_sweep(g1, g2, coarse_grid, [BAYES_GAMMA], [p])):
                assert b1_best[a, b1]


@pytest.mark.parametrize("epsilon", [-1.0, -1e-12, math.nan, math.inf])
def test_bad_epsilon_rejected(coarse_grid, pd_deadlock, epsilon):
    g1, g2, _ = pd_deadlock
    # with no gammas the reductions never run, and the sweeps still refuse
    for gammas in ([BAYES_GAMMA], []):
        with pytest.raises(ValueError, match="epsilon"):
            gamma_sweep(g1, coarse_grid, gammas, epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            bayes_sweep(g1, g2, coarse_grid, gammas, [0.5], epsilon)


def test_zero_epsilon_accepted(coarse_grid, pd_deadlock):
    g1, g2, _ = pd_deadlock
    gamma_sweep(g1, coarse_grid, [BAYES_GAMMA], 0.0)
    bayes_sweep(g1, g2, coarse_grid, [BAYES_GAMMA], [0.5], 0.0)


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
        eqs = dict(equilibria(gamma_sweep(request.getfixturevalue(game), quarter_grid, [gamma], 0.0)))
        for indices, payoffs in eqs.items():
            for swapped in partner_swaps(indices, quarter_partners):
                assert eqs[swapped] == payoffs

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 0.8])
    def test_bayesian_set_is_closed_under_partner_swap(
        self, quarter_grid, quarter_partners, prisoners_dilemma, deadlock, gamma
    ):
        priors = (0.0, 0.3, 1.0)
        table = bayes_sweep(prisoners_dilemma, deadlock, quarter_grid, [gamma], priors, 0.0)
        for p in priors:
            eqs = dict(at_prior(table, p))
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
        self, prisoners_dilemma, deadlock, stag_hunt, solver_tables, steps, epsilon
    ):
        grid = build_grid(steps)
        assert len(phase_partners(p.astuple() for p in grid.params)) < len(grid)
        for g1, g2 in ((prisoners_dilemma, deadlock), (stag_hunt, prisoners_dilemma)):
            for gamma in (0.0, 0.3):
                a1, b1, a2, b2 = (t.tolist() for t in solver_tables([g1, g2], grid, gamma, "members"))
                pairs = equilibria(gamma_sweep(g1, grid, [gamma], epsilon))
                assert pairs and [ij for ij, _ in pairs] == brute_force_nash(a1, b1, epsilon)
                assert len({ij for ij, _ in pairs}) == len(pairs)
                assert all(payoffs == (a1[i][j], b1[i][j]) for (i, j), payoffs in pairs)
                triples = equilibria(bayes_sweep(g1, g2, grid, [gamma], [0.3], epsilon))
                assert triples
                assert [abc for abc, _ in triples] == brute_force_bayes(a1, b1, a2, b2, 0.3, epsilon)
                assert len({abc for abc, _ in triples}) == len(triples)


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
    player per game."""

    GAMMAS = [EntanglementParam(0.0), EntanglementParam(PI / 8)]

    def test_sweep_steps_share_their_buffers(self, monkeypatch, eighth_grid, stag_hunt, deadlock, solver_tables):
        rows, classes = len(eighth_grid.orbit_images[0]), len(eighth_grid.features)
        monkeypatch.setattr(equilibrium, "_ROW_BLOCK", 100 * 8 * classes)
        row_blocks = equilibrium._row_blocks(rows, classes)
        assert row_blocks == [(0, 100), (100, 200), (200, rows)]
        # each game's tables of the latest gamma, from a whole-table pass of their own
        lone = {game: solver_tables([game], eighth_grid, PI / 8) for game in (stag_hunt, deadlock)}
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
            want = [table for game in games for table in lone[game]]
            written = [np.concatenate(parts) for parts in zip(*(copies for _, _, copies in passes[-1]))]
            assert all(np.array_equal(w, t) for w, t in zip(want, written, strict=True))
            start, tables, _ = passes[-1][-1]
            assert all(np.array_equal(w[start:], t) for w, t in zip(want, tables, strict=True))


class TestTwoPlayerOnEighthGrid:
    @pytest.mark.parametrize("grid, name, gamma", MEMBER_CASES)
    def test_matches_member_level_definition(self, request, solver_tables, grid, name, gamma):
        game, grid = CATALOGUE.get(name), request.getfixturevalue(grid)
        a, b = solver_tables([game], grid, gamma, "members")
        a_max, b_max = a.max(0), b.max(1, keepdims=True)
        for epsilon in (0.0, 1e-9, 0.5):
            i, j = np.nonzero((a >= a_max - epsilon) & (b >= b_max - epsilon))
            columns = gamma_sweep(game, grid, [gamma], epsilon).columns
            names = ("a_index", "b_index", "payoff_a", "payoff_b")
            for got, want in zip((columns[name] for name in names), (i, j, a[i, j], b[i, j]), strict=True):
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
    def test_scratch_stays_under_two_class_tables_of_bytes(
        self, eighth_grid, solver_tables, name, gamma, classes_squared
    ):
        # one boolean orbit-row table for B's tie test, and no full-size mask for A
        tables = solver_tables([CATALOGUE.get(name)], eighth_grid, gamma)
        rows, n = tables[0].shape
        assert rows == 232 and n == 912
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            columns = equilibrium._two_player_reduction(eighth_grid, [(0, tables)], 1e-9)
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
    def test_scratch_over_21_priors_stays_under_its_recorded_peak(
        self, eighth_grid, solver_tables, names, gamma, classes_squared
    ):
        tables = solver_tables([CATALOGUE.get(name) for name in names], eighth_grid, gamma)
        priors = [PriorProbability(p) for p in default_p_grid(21)]
        n = tables[0].shape[1]
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            per_prior = equilibrium._bayes_reduction(eighth_grid, tables, priors, 1e-9)
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


def whole_reduction(grid, tables, epsilon):
    """The two-player reduction of whole orbit-row tables, as one block."""
    return equilibrium._two_player_reduction(grid, [(0, tables)], epsilon)


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
    def test_two_player_on_the_1824_grid(self, full_class_tables, solver_tables, eighth_grid, lone_class_grid, name):
        # the 1824 grid, and a G = {e} grid whose classes mostly have one member
        game = CATALOGUE.get(name)
        for grid, gamma in itertools.product((eighth_grid, lone_class_grid), default_gamma_grid(17)):
            tables = solver_tables([game], grid, gamma)
            want = full_two_player(grid, *full_class_tables(game, grid, gamma), 1e-9)
            assert_same_equilibria(whole_reduction(grid, tables, 1e-9), want, 2)
            own_tables = solver_tables([game], grid, gamma, "classes")
            for table in own_tables:  # folded rows make the expansion exactly invariant
                for row in grid.orbit_maps[1:]:
                    assert table[np.ix_(row, row)].tobytes() == table.tobytes(), (name, gamma)
            for epsilon in (0.0, 1e-9):
                own = full_two_player(grid, *own_tables, epsilon)
                for g, w in zip(whole_reduction(grid, tables, epsilon), own, strict=True):
                    assert g.tobytes() == w.tobytes(), (name, len(grid), gamma, epsilon)

    def test_stag_hunt_on_the_7968_grid(self, full_class_tables, stag_hunt):
        # the sweep's path: 16 row blocks, reduced as they are written
        grid = build_grid(SteppingParams(PI / 32, PI / 8, PI / 8))
        columns = gamma_sweep(stag_hunt, grid, [PI / 8]).columns
        got = [columns[name] for name in ("a_index", "b_index", "payoff_a", "payoff_b")]
        assert len(got[0]) > 0
        assert_same_equilibria(got, full_two_player(grid, *full_class_tables(stag_hunt, grid, PI / 8), 1e-9), 2)

    @pytest.mark.parametrize(
        "names", [("prisoners_dilemma", "deadlock"), ("stag_hunt", "das_brother")], ids=["pd-deadlock", "stag-das"]
    )
    @pytest.mark.parametrize("gamma", [0.0, 0.35, 0.7])
    def test_bayes_on_the_1824_grid(
        self, full_class_tables, solver_tables, eighth_grid, lone_class_grid, names, gamma
    ):
        # the 1824 grid, and a G = {e} grid whose classes mostly have one member
        games = [CATALOGUE.get(name) for name in names]
        priors = (0.0, 0.3, 1.0)
        for grid in (eighth_grid, lone_class_grid):
            tables = solver_tables(games, grid, gamma)
            (x, xb), (y, yb) = (full_class_tables(game, grid, gamma) for game in games)
            per_prior = equilibrium._bayes_reduction(grid, tables, [PriorProbability(p) for p in priors], 1e-9)
            assert any(len(got[0]) for got in per_prior)
            for p, got in zip(priors, per_prior, strict=True):
                assert_same_equilibria(got, full_bayes(grid, x, xb, y, yb, p, 1e-9), 3)


def tail_row_block(rows):
    """The smallest block of at least 4 rows that leaves a 1-row tail."""
    return next(size for size in range(4, rows) if rows % size == 1)


class TestStreamedReduction:
    """A two-player sweep computes and reduces its tables in blocks of orbit
    rows; every block size gives the reduction of the whole tables, bit for
    bit."""

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
    def test_blocks_give_the_whole_tables_columns(self, request, monkeypatch, solver_tables, grid, name, rows_per_block):
        grid = request.getfixturevalue(grid)
        game = CATALOGUE.get(name)
        rows, classes = len(grid.orbit_images[0]), len(grid.features)
        size = tail_row_block(rows) if rows_per_block == "tail" else rows_per_block
        monkeypatch.setattr(equilibrium, "_ROW_BLOCK", size * 8 * classes)
        blocks = equilibrium._row_blocks(rows, classes)
        assert len(blocks) > 1 and blocks[0] == (0, size)
        assert all(stop - start >= 2 for start, stop in blocks)
        gammas = [g for g, _ in MEMBER_GAMMAS]
        tables = [solver_tables([game], grid, g) for g in gammas]
        records = 0
        for epsilon in (0.0, 1e-9, 0.5):
            table = gamma_sweep(game, grid, gammas, epsilon)
            whole = [whole_reduction(grid, t, epsilon) for t in tables]
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
