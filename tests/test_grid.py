import math

import numpy as np
import pytest

from ewlgames import GameDefinition, SteppingParams, StrategyParams, build_grid, gamma_sweep
from ewlgames.circuit import strategy_matrix

from oracles import phase_partners

PI = math.pi


class TestSteppingValidation:
    @pytest.mark.parametrize("bad", [0.0, -0.5, float("nan")])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            SteppingParams(bad, PI / 2, PI / 2)

    def test_oversized_steps_rejected(self):
        with pytest.raises(ValueError):
            SteppingParams(PI + 0.1, PI / 2, PI / 2)
        with pytest.raises(ValueError):
            SteppingParams(PI, 2 * PI + 0.1, PI / 2)


class TestCounts:
    def test_coarse_grid_has_8(self, coarse_grid):
        assert len(coarse_grid) == 8

    def test_eighth_steps_yield_1824(self):
        assert len(build_grid(SteppingParams(PI / 8, PI / 8, PI / 8))) == 1824

    def test_fine_theta_steps_yield_7968(self):
        assert len(build_grid(SteppingParams(PI / 32, PI / 8, PI / 8))) == 7968

    def test_fine_phi_alpha_steps_yield_114944(self):
        grid = build_grid(SteppingParams(PI / 8, PI / 64, PI / 64))
        assert len(grid) == 114944
        assert len(grid.representatives) == 57472


class TestContents:
    def test_identity_is_entry_zero(self):
        for steps in [
            SteppingParams(PI, PI / 2, PI / 2),
            SteppingParams(PI / 4, PI / 4, PI / 4),
            SteppingParams(1.0, 1.5, 2.0),
        ]:
            grid = build_grid(steps)
            assert grid.params[0] == StrategyParams(0.0, 0.0, 0.0)
            np.testing.assert_allclose(grid.matrices[0], np.eye(2), atol=1e-15)

    def test_matrices_match_their_params(self, coarse_grid):
        for p, m in zip(coarse_grid.params, coarse_grid.matrices):
            np.testing.assert_allclose(m, strategy_matrix(p), atol=1e-12)

    @pytest.mark.parametrize(
        "steps",
        [
            SteppingParams(PI, PI / 2, PI / 2),
            SteppingParams(PI / 8, PI / 8, PI / 8),
            SteppingParams(PI / 32, PI / 8, PI / 8),
            SteppingParams(1.0, 1.5, 2.0),
        ],
    )
    def test_representatives_are_bitwise_strategy_matrices(self, steps):
        # every downstream byte relies on the grid and strategy_matrix
        # sharing one entry formula
        grid = build_grid(steps)
        for i in grid.representatives:
            assert grid.matrices[i].tobytes() == strategy_matrix(grid.params[i]).tobytes()

    def test_lexicographic_order(self, coarse_grid):
        triples = [p.astuple() for p in coarse_grid.params]
        assert triples == sorted(triples)

    def test_endpoints_included(self):
        grid = build_grid(SteppingParams(PI, PI / 2, PI / 2))
        thetas = {p.theta for p in grid.params}
        assert PI in thetas

    def test_dedup_exhaustive_on_coarse(self, coarse_grid):
        mats = coarse_grid.matrices
        n = len(mats)
        for i in range(n):
            for j in range(i + 1, n):
                assert np.abs(mats[i] - mats[j]).max() > 1e-9

    def test_dedup_sampled_on_1824(self):
        grid = build_grid(SteppingParams(PI / 8, PI / 8, PI / 8))
        rng = np.random.default_rng(21)
        idx = rng.choice(len(grid), size=400, replace=False)
        sub = grid.matrices[idx]
        dist = np.abs(sub[:, None] - sub[None, :]).max(axis=(2, 3))
        dist[np.arange(len(idx)), np.arange(len(idx))] = 1.0
        assert dist.min() > 1e-9

    def test_deterministic_rebuild(self):
        steps = SteppingParams(PI / 4, PI / 2, PI / 2)
        g1, g2 = build_grid(steps), build_grid(steps)
        assert g1.params == g2.params
        np.testing.assert_array_equal(g1.matrices, g2.matrices)

    @pytest.mark.parametrize(
        "steps",
        [
            SteppingParams(PI / 2, PI, PI),
            SteppingParams(1.0, 1.5, 2.0),
            SteppingParams(PI / 3, 2 * PI / 3, PI / 2),
            # at theta = pi - 2e-9 neighbouring phis match but phi 0 and 2
            # do not; the greedy rule keeps phi in {0, 2, 4}
            SteppingParams((PI - 2e-9) / 2, 1.0, 2.0),
        ],
    )
    def test_matches_brute_force_dedup(self, steps):
        # independent O(n^2) reference: enumerate every in-bounds multiple
        # and keep the first matrix no earlier one equals entrywise
        def multiples(step, bound):
            out, j = [], 0
            while j * step <= bound + 1e-9:
                out.append(min(j * step, bound))
                j += 1
            return out

        reference = []
        for t in multiples(steps.d_theta, PI):
            for f in multiples(steps.d_phi, 2 * PI):
                for a in multiples(steps.d_alpha, 2 * PI):
                    m = strategy_matrix(StrategyParams(t, f, a))
                    if all(np.abs(m - kept).max() > 1e-9 for kept in reference):
                        reference.append(m)
        grid = build_grid(steps)
        assert len(grid) == len(reference)
        for got, expected in zip(grid.matrices, reference):
            np.testing.assert_allclose(got, expected, atol=1e-12)


class TestPhaseClasses:
    def test_eighth_grid_has_912_classes_of_negations(self):
        grid = build_grid(SteppingParams(PI / 8, PI / 8, PI / 8))
        assert len(grid.representatives) == 912
        np.testing.assert_array_equal(grid.representatives, np.unique(grid.classes, return_index=True)[1])
        reps = grid.representatives[grid.classes]
        partners = np.nonzero(reps != np.arange(len(grid)))[0]
        assert len(partners) == 912
        own = np.array([strategy_matrix(p) for p in grid.params])
        assert grid.matrices.tobytes() == own.tobytes()  # bitwise, partners and representatives
        assert np.abs(grid.matrices[partners] + grid.matrices[reps[partners]]).max() <= 1e-9

    @pytest.mark.parametrize(
        "steps",
        [
            SteppingParams(PI, PI / 2, PI / 2),
            SteppingParams(PI / 4, PI / 4, PI / 4),
            SteppingParams(PI / 2, 2 * PI / 3, 2 * PI / 3),
            SteppingParams(PI / 2, PI / 2, 2 * PI / 3),
            SteppingParams(1.0, 1.5, 2.0),
        ],
    )
    def test_classes_are_exactly_the_negation_pairs(self, steps):
        grid = build_grid(steps)
        same_class = {
            (i, j)
            for i in range(len(grid))
            for j in range(i + 1, len(grid))
            if grid.classes[i] == grid.classes[j]
        }
        partners = phase_partners(p.astuple() for p in grid.params)
        assert same_class == {(i, j) for i, js in partners.items() for j in js if i < j}
        assert np.bincount(grid.classes).max() <= 2
        np.testing.assert_array_equal(grid.representatives, np.unique(grid.classes, return_index=True)[1])

    # Near theta = pi the negation match chains: one strategy can be the
    # first earlier negation of another while being a partner itself.
    @pytest.mark.parametrize(
        "steps",
        [
            SteppingParams((PI - 1.2e-9) / 3, 0.5, PI / 2),
            SteppingParams((PI - 2e-9) / 2, 1.0, PI / 2),
            SteppingParams(PI / 8, PI / 8, PI / 8),
        ],
    )
    def test_classes_have_at_most_two_members(self, steps):
        grid = build_grid(steps)
        assert np.bincount(grid.classes).max() <= 2
        reps = grid.representatives[grid.classes]
        partners = np.nonzero(reps != np.arange(len(grid)))[0]
        assert len(partners) > 0
        own = np.array([strategy_matrix(p) for p in grid.params])
        assert grid.matrices.tobytes() == own.tobytes()  # bitwise, partners and representatives
        assert np.abs(grid.matrices[partners] + grid.matrices[reps[partners]]).max() <= 1e-9
        for j in partners:
            assert np.abs(grid.matrices[j] - strategy_matrix(grid.params[j])).max() <= 1e-9

    # The 1824 grid's zero-game sweep would hold 3.3M records, so only the
    # near-pi grids run it.
    @pytest.mark.parametrize(
        "steps",
        [
            SteppingParams((PI - 1.2e-9) / 3, 0.5, PI / 2),
            SteppingParams((PI - 2e-9) / 2, 1.0, PI / 2),
        ],
    )
    def test_zero_game_records_every_strategy_pair(self, steps):
        grid = build_grid(steps)
        n = len(grid)
        table = gamma_sweep(GameDefinition("zero", (0, 0, 0, 0), (0, 0, 0, 0)), grid, [0.0])
        assert len(table) == n * n
        for role in ("a", "b"):
            assert np.bincount(table.columns[f"{role}_index"], minlength=n).tolist() == [n] * n
