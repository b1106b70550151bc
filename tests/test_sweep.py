import math

import numpy as np
import pytest

from ewlgames import (
    EntanglementParam,
    GameDefinition,
    NashEquilibrium,
    StrategyParams,
    SweepRecord,
    bayes_sweep,
    critical_gamma,
    default_gamma_grid,
    default_p_grid,
    gamma_sweep,
    payoff_histogram,
    payoff_tensor,
    scatter_theta,
)
from ewlgames.grid import SteppingParams, build_grid

from oracles import brute_force_bayes

PI = math.pi

# Derived disappearance points on the 8-strategy grid: the defect-class
# branch of the (3,0,5,1) dilemma survives while payoff 1+2sin^2(g) beats
# the cross-class alternative 5sin^2(g), i.e. up to asin(1/sqrt(3)); the
# deadlock branch (2,2) survives while 2 >= 3sin^2(g).
PD_GAMMA_CRITICAL = math.asin(1 / math.sqrt(3))
DEADLOCK_GAMMA_CRITICAL = math.asin(math.sqrt(2.0 / 3.0))


@pytest.fixture(scope="module")
def gamma_points():
    return default_gamma_grid()


@pytest.fixture(scope="module")
def pd_records(prisoners_dilemma, coarse_grid, gamma_points):
    return gamma_sweep(prisoners_dilemma, coarse_grid, gamma_points)


class TestDefaultGrids:
    def test_gamma_grid(self):
        pts = default_gamma_grid()
        assert len(pts) == 65
        assert pts[0] == 0.0
        assert pts[-1] == pytest.approx(PI / 2, abs=0)
        steps = np.diff(pts)
        np.testing.assert_allclose(steps, PI / 128, atol=1e-15)

    def test_p_grid(self):
        pts = default_p_grid()
        assert len(pts) == 21
        assert pts[0] == 0.0 and pts[-1] == 1.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            default_gamma_grid(1)


class TestGammaSweep:
    def test_pd_structure(self, pd_records, gamma_points):
        at_zero = [r for r in pd_records if r.gamma == 0.0]
        assert len(at_zero) == 16
        for r in at_zero:
            assert r.equilibrium.payoffs == pytest.approx((1.0, 1.0), abs=1e-9)
        # 8 equilibria per point while the branch lives, none afterwards
        assert len(pd_records) == 16 + 25 * 8
        assert max(r.gamma for r in pd_records) == pytest.approx(25 * PI / 128, abs=0)

    def test_pd_payoffs_match_closed_form(self, pd_records):
        for r in pd_records:
            expected = 1 + 2 * math.sin(r.gamma) ** 2 * math.sin(
                r.strategy_params[0].alpha + r.strategy_params[1].alpha
            ) ** 2
            assert r.equilibrium.payoffs[0] == pytest.approx(expected, abs=1e-9)

    def test_pd_monotone_branch(self, pd_records):
        best = {}
        for r in pd_records:
            best[r.gamma] = max(best.get(r.gamma, -1e9), r.equilibrium.payoffs[0])
        gammas = sorted(best)
        assert all(best[a] <= best[b] + 1e-12 for a, b in zip(gammas, gammas[1:]))

    def test_stag_hunt_branches(self, stag_hunt, coarse_grid, gamma_points):
        records = gamma_sweep(stag_hunt, coarse_grid, gamma_points)
        by_gamma: dict[float, set[float]] = {}
        for r in records:
            by_gamma.setdefault(r.gamma, set()).add(round(r.equilibrium.payoffs[0], 9))
        # the Pareto branch is constant through maximal entanglement
        assert set(by_gamma) == set(gamma_points)
        for g, payoffs in by_gamma.items():
            assert round(4.0, 9) in payoffs
            lower = 2 + 2 * math.sin(g) ** 2
            assert any(abs(p - lower) < 1e-9 for p in payoffs)
        # the growing branch converges onto the Pareto one at gamma=pi/2
        assert by_gamma[gamma_points[-1]] == {4.0}

    def test_matching_pennies_empty(self, matching_pennies, coarse_grid, gamma_points):
        assert gamma_sweep(matching_pennies, coarse_grid, gamma_points) == []

    def test_deterministic(self, prisoners_dilemma, coarse_grid):
        pts = default_gamma_grid(9)
        r1 = gamma_sweep(prisoners_dilemma, coarse_grid, pts)
        r2 = gamma_sweep(prisoners_dilemma, coarse_grid, pts)
        assert r1 == r2

    def test_sorted_by_gamma_then_indices(self, pd_records):
        keys = [(r.gamma, r.equilibrium.strategy_indices) for r in pd_records]
        assert keys == sorted(keys)


class TestCriticalGamma:
    def test_pd_bracket(self, pd_records, gamma_points):
        bracket = critical_gamma(pd_records, gamma_points)
        assert bracket is not None
        assert bracket.last_gamma_with == pytest.approx(25 * PI / 128, abs=0)
        assert bracket.first_gamma_without == pytest.approx(26 * PI / 128, abs=0)
        assert bracket.last_gamma_with < PD_GAMMA_CRITICAL < bracket.first_gamma_without
        assert 0.0 < bracket.last_gamma_with < PI / 2
        assert bracket.branch_payoff_at_last == pytest.approx(
            (1 + 2 * math.sin(bracket.last_gamma_with) ** 2,) * 2, abs=1e-9
        )

    def test_deadlock_bracket(self, deadlock, coarse_grid, gamma_points):
        records = gamma_sweep(deadlock, coarse_grid, gamma_points)
        for r in records:
            assert r.equilibrium.payoffs == pytest.approx((2.0, 2.0), abs=1e-9)
        bracket = critical_gamma(records, gamma_points)
        assert bracket.last_gamma_with == pytest.approx(38 * PI / 128, abs=0)
        assert bracket.first_gamma_without == pytest.approx(39 * PI / 128, abs=0)
        assert bracket.last_gamma_with < DEADLOCK_GAMMA_CRITICAL < bracket.first_gamma_without

    def test_persistent_branch_has_no_bracket(self, stag_hunt, coarse_grid, gamma_points):
        records = gamma_sweep(stag_hunt, coarse_grid, gamma_points)
        pareto = critical_gamma(
            records, gamma_points, lambda r: abs(r.equilibrium.payoffs[0] - 4.0) < 1e-6
        )
        assert pareto is None

    def test_empty_records(self, gamma_points):
        assert critical_gamma([], gamma_points) is None

    def test_selector_matching_nothing(self, pd_records, gamma_points):
        assert critical_gamma(pd_records, gamma_points, lambda r: False) is None


class TestBayesSweep:
    def test_boundary_projections(self, prisoners_dilemma, deadlock, coarse_grid):
        pts = default_gamma_grid(9)
        pp = default_p_grid(5)
        brecs = bayes_sweep(prisoners_dilemma, deadlock, coarse_grid, pts, pp)

        def two_player_set(game):
            return {
                (r.gamma, *r.equilibrium.strategy_indices, round(r.equilibrium.payoffs[0], 12))
                for r in gamma_sweep(game, coarse_grid, pts)
            }

        proj_p1 = {
            (r.gamma, r.equilibrium.strategy_indices[0], r.equilibrium.strategy_indices[1],
             round(r.equilibrium.payoffs[0], 12))
            for r in brecs if r.p == 1.0
        }
        proj_p0 = {
            (r.gamma, r.equilibrium.strategy_indices[0], r.equilibrium.strategy_indices[2],
             round(r.equilibrium.payoffs[0], 12))
            for r in brecs if r.p == 0.0
        }
        assert proj_p1 == two_player_set(prisoners_dilemma)
        assert proj_p0 == two_player_set(deadlock)

    def test_zero_entanglement_matches_classical_mixture(
        self, prisoners_dilemma, deadlock, coarse_grid
    ):
        t1 = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(0.0))
        t2 = payoff_tensor(deadlock, coarse_grid, EntanglementParam(0.0))
        for p in (0.0, 0.25, 0.5, 1.0):
            brecs = bayes_sweep(
                prisoners_dilemma, deadlock, coarse_grid, [0.0], [p]
            )
            got = sorted(r.equilibrium.strategy_indices for r in brecs)
            expected = brute_force_bayes(
                t1.payoff_a.tolist(), t1.payoff_b.tolist(),
                t2.payoff_a.tolist(), t2.payoff_b.tolist(), p, 1e-9,
            )
            assert got == expected

    def test_same_game_twice_is_p_independent(self, prisoners_dilemma, coarse_grid):
        pts = default_gamma_grid(5)
        brecs = bayes_sweep(prisoners_dilemma, prisoners_dilemma, coarse_grid, pts, [0.25, 0.75])
        by_p = {}
        for r in brecs:
            by_p.setdefault(r.p, []).append((r.gamma, r.equilibrium.strategy_indices))
        assert by_p[0.25] == by_p[0.75]
        two = {
            (r.gamma, *r.equilibrium.strategy_indices)
            for r in gamma_sweep(prisoners_dilemma, coarse_grid, pts)
        }
        diag = {
            (r.gamma, r.equilibrium.strategy_indices[0], r.equilibrium.strategy_indices[1])
            for r in brecs
            if r.p == 0.25
            and r.equilibrium.strategy_indices[1] == r.equilibrium.strategy_indices[2]
        }
        assert diag == two

    def test_record_ordering(self, prisoners_dilemma, deadlock, coarse_grid):
        pts = default_gamma_grid(5)
        pp = default_p_grid(3)
        brecs = bayes_sweep(prisoners_dilemma, deadlock, coarse_grid, pts, pp)
        keys = [(r.gamma, r.p, r.equilibrium.strategy_indices) for r in brecs]
        assert keys == sorted(keys)


class TestScatterTheta:
    def test_pd_classical_all_defect(self, pd_records):
        points = scatter_theta([r for r in pd_records if r.gamma == 0.0])
        assert points == [(PI, PI)] * 16

    def test_symmetric_game_scatter_mirrors(self, stag_hunt, coarse_grid):
        records = gamma_sweep(stag_hunt, coarse_grid, default_gamma_grid(9))
        points = set(scatter_theta(records))
        assert points == {(b, a) for a, b in points}

    def test_empty(self):
        assert scatter_theta([]) == []


def _record(gamma: float, payoff_a: float) -> SweepRecord:
    eq = NashEquilibrium(strategy_indices=(0, 0), payoffs=(payoff_a, payoff_a))
    p = StrategyParams(0, 0, 0)
    return SweepRecord(gamma=gamma, p=None, equilibrium=eq, strategy_params=(p, p))


class TestPayoffHistogram:
    def test_single_record(self):
        hist = payoff_histogram([_record(0.5, 3.0)], 0.5, 0.1)
        assert len(hist) == 1
        assert hist[0][0] == pytest.approx(3.05, abs=1e-12)
        assert hist[0][1] == 1

    def test_equal_payoffs_share_a_bin(self):
        records = [_record(0.5, 2.0), _record(0.5, 2.0)]
        assert payoff_histogram(records, 0.5, 0.5) == [(2.25, 2)]

    def test_other_gammas_excluded(self):
        records = [_record(0.5, 2.0), _record(0.6, 9.0)]
        assert payoff_histogram(records, 0.5, 0.5) == [(2.25, 1)]

    def test_bad_bin_width(self):
        for bin_width in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                payoff_histogram([], 0.5, bin_width)

    def test_desk_scale_favored_dilemma_regression(self):
        # Asymmetric single-equilibrium game on the pi/4 grid, sliced at the
        # sweep point nearest 0.7: multimodal, with most equilibria within
        # 0.35 of the constant branch at 5 (frozen from a reference run).
        game = GameDefinition("favored", (5, 2, 4, 1), (4, 3, 0, 1))
        grid = build_grid(SteppingParams(PI / 4, PI / 4, PI / 4))
        g = 29 * PI / 128
        records = gamma_sweep(game, grid, [g])
        hist = payoff_histogram(records, g, 0.05)
        assert [(round(c, 9), n) for c, n in hist] == [
            (4.175, 32),
            (4.725, 32),
            (4.775, 64),
            (4.825, 32),
            (5.025, 16),
        ]
        assert len(hist) >= 2
        near_pareto = sum(n for c, n in hist if abs(c - 5.0) < 0.35)
        assert near_pareto > sum(n for _, n in hist) / 2
