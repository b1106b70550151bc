"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s or -v to see them).
"""
import math
import time

import numpy as np
import pytest

from ewlgames import (
    GameDefinition,
    StrategyParams,
    bayes_sweep,
    critical_gamma,
    default_gamma_grid,
    default_p_grid,
    gamma_sweep,
)
from ewlgames.circuit import (
    DEFECT_STRATEGY,
    IDENTITY_STRATEGY,
    EntanglementParam,
    entangler,
    expected_payoffs,
    final_state,
    final_state_from_matrices,
    outcome_probs,
    strategy_matrix,
)
from ewlgames.equilibrium import nash_two_player, pairwise_payoffs, payoff_tensor
from ewlgames.grid import SteppingParams, build_grid

from oracles import brute_force_nash, passes_deviation

PI = math.pi


def _passed(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_01_grid_counts():
    budget = 5.0
    t0 = time.perf_counter()
    sizes = {
        (PI, PI / 2, PI / 2): 8,
        (PI / 8, PI / 8, PI / 8): 1824,
        (PI / 32, PI / 8, PI / 8): 7968,
    }
    got = {}
    for steps, expected in sizes.items():
        got[steps] = len(build_grid(SteppingParams(*steps)))
        assert got[steps] == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _passed("criterion 1 (grid counts)", f"8/1824/7968 exact in {elapsed:.2f}s")


def test_criterion_02_classical_embedding(prisoners_dilemma):
    budget = 1.0
    cells = {
        (0, 0): (3.0, 3.0),
        (0, 1): (0.0, 5.0),
        (1, 0): (5.0, 0.0),
        (1, 1): (1.0, 1.0),
    }
    moves = {0: IDENTITY_STRATEGY, 1: DEFECT_STRATEGY}
    t0 = time.perf_counter()
    worst = 0.0
    for gamma in default_gamma_grid():
        for (ma, mb), expected in cells.items():
            state = final_state(EntanglementParam(gamma), moves[ma], moves[mb])
            got = expected_payoffs(outcome_probs(state), prisoners_dilemma)
            worst = max(worst, abs(got[0] - expected[0]), abs(got[1] - expected[1]))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-9
    assert elapsed < budget
    _passed(
        "criterion 2 (classical embedding)",
        f"4 cells x 65 gammas, worst deviation {worst:.2e} in {elapsed:.2f}s",
    )


def test_criterion_03_bell_state():
    state = entangler(EntanglementParam(PI / 2)) @ np.array([1, 0, 0, 0], complex)
    probs = outcome_probs(state)
    np.testing.assert_allclose(probs, [0.5, 0, 0, 0.5], atol=1e-12)
    _passed("criterion 3 (Bell state)", f"probs {probs.round(15).tolist()}")


def test_criterion_04_pd_phase_structure(prisoners_dilemma, coarse_grid):
    budget = 2.0
    gamma_points = default_gamma_grid()
    t0 = time.perf_counter()
    table = gamma_sweep(prisoners_dilemma, coarse_grid, gamma_points)
    records = table.records

    # (a) classical payoffs at zero entanglement
    at_zero = [r for r in records if r.gamma == 0.0]
    assert at_zero
    for r in at_zero:
        assert r.equilibrium.payoffs == pytest.approx((1.0, 1.0), abs=1e-9)

    # (b) max equilibrium payoff nondecreasing while equilibria exist
    best = {}
    for r in records:
        best[r.gamma] = max(best.get(r.gamma, -math.inf), r.equilibrium.payoffs[0])
    ordered = sorted(best)
    assert all(best[a] <= best[b] + 1e-12 for a, b in zip(ordered, ordered[1:]))

    # (c) no equilibria at maximal entanglement
    assert not any(r.gamma == gamma_points[-1] for r in records)

    # (d) a bracket strictly inside (0, pi/2), frozen to the derived grid pair
    bracket = critical_gamma(table, gamma_points)
    assert bracket is not None
    assert 0.0 < bracket.last_gamma_with < bracket.first_gamma_without < PI / 2
    assert bracket.last_gamma_with == 25 * PI / 128
    assert bracket.first_gamma_without == 26 * PI / 128

    # deviation-oracle bisection of the disappearance point (golden value:
    # asin(1/sqrt(3)) = 0.615479708670387, derived once and frozen)
    def branch_exists(gamma: float) -> bool:
        t = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(gamma))
        return bool(brute_force_nash(t.payoff_a.tolist(), t.payoff_b.tolist(), 1e-9))

    lo, hi = bracket.last_gamma_with, bracket.first_gamma_without
    assert branch_exists(lo) and not branch_exists(hi)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        if branch_exists(mid):
            lo = mid
        else:
            hi = mid
    golden = 0.615479708670387
    assert abs(lo - golden) < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _passed(
        "criterion 4 (PD phase structure)",
        f"bracket ({bracket.last_gamma_with:.6f}, {bracket.first_gamma_without:.6f}), "
        f"bisected critical gamma {lo:.9f} in {elapsed:.2f}s",
    )


def test_criterion_05_matching_pennies_empty(matching_pennies, coarse_grid):
    budget = 2.0
    t0 = time.perf_counter()
    table = gamma_sweep(matching_pennies, coarse_grid, default_gamma_grid())
    elapsed = time.perf_counter() - t0
    assert len(table) == 0 and table.records == []
    assert elapsed < budget
    _passed("criterion 5 (matching pennies)", f"0 equilibria at 65 gammas in {elapsed:.2f}s")


def test_criterion_06_bayesian_boundaries(prisoners_dilemma, deadlock, coarse_grid):
    budget = 30.0
    gamma_points = default_gamma_grid()
    p_points = default_p_grid()
    epsilon = 1e-9
    t0 = time.perf_counter()
    checked = 0
    for game2 in (prisoners_dilemma, deadlock):
        brecs = bayes_sweep(
            prisoners_dilemma, game2, coarse_grid, gamma_points, p_points, epsilon
        ).records

        def projection(p_value, b_slot, payoff_slot):
            return {
                (
                    r.gamma,
                    r.equilibrium.strategy_indices[0],
                    r.equilibrium.strategy_indices[b_slot],
                    round(r.equilibrium.payoffs[0], 12),
                    round(r.equilibrium.payoffs[payoff_slot], 12),
                )
                for r in brecs
                if r.p == p_value
            }

        def two_player(game):
            return {
                (
                    r.gamma,
                    *r.equilibrium.strategy_indices,
                    round(r.equilibrium.payoffs[0], 12),
                    round(r.equilibrium.payoffs[1], 12),
                )
                for r in gamma_sweep(prisoners_dilemma if game is None else game,
                                     coarse_grid, gamma_points, epsilon).records
            }

        assert projection(1.0, 1, 1) == two_player(prisoners_dilemma)
        assert projection(0.0, 2, 2) == two_player(game2)
        checked += len(brecs)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _passed(
        "criterion 6 (Bayesian boundaries)",
        f"p=0/p=1 projections exact over 65x21 grid ({checked} records) in {elapsed:.1f}s",
    )


def test_criterion_07_oracle_equivalence(prisoners_dilemma, coarse_grid):
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(200):
        game = GameDefinition(
            "sample", tuple(rng.uniform(-5, 5, size=4)), tuple(rng.uniform(-5, 5, size=4))
        )
        gamma = EntanglementParam(rng.uniform(0, PI / 2))
        pa = StrategyParams(rng.uniform(0, PI), rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI))
        pb = StrategyParams(rng.uniform(0, PI), rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI))
        ua, ub = strategy_matrix(pa), strategy_matrix(pb)
        fast_a, fast_b = pairwise_payoffs(ua[None], ub[None], gamma, game)
        naive = expected_payoffs(
            outcome_probs(final_state_from_matrices(gamma, ua, ub)), game
        )
        worst = max(worst, abs(fast_a[0, 0] - naive[0]), abs(fast_b[0, 0] - naive[1]))
    assert worst <= 1e-12

    agreements = 0
    for gamma in (0.0, 0.3, 0.55, 0.9, PI / 2):
        tensor = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(gamma))
        returned = {eq.strategy_indices for eq in nash_two_player(tensor, 1e-9)}
        pa_list = tensor.payoff_a.tolist()
        pb_list = tensor.payoff_b.tolist()
        for i in range(len(coarse_grid)):
            for j in range(len(coarse_grid)):
                assert passes_deviation(pa_list, pb_list, i, j, 1e-9) == ((i, j) in returned)
                agreements += 1
    _passed(
        "criterion 7 (oracle equivalence)",
        f"200 samples worst fast-vs-naive gap {worst:.2e}; "
        f"{agreements} deviation-oracle cells agree at 5 gammas",
    )


def test_criterion_08_fine_grid_bounds(stag_hunt, coarse_grid):
    budget = 600.0
    desk = build_grid(SteppingParams(PI / 4, PI / 4, PI / 4))
    assert 100 < len(desk) < 500
    t0 = time.perf_counter()
    worst = -math.inf
    points = 0
    for gamma in default_gamma_grid():
        param = EntanglementParam(gamma)
        coarse_eqs = nash_two_player(payoff_tensor(stag_hunt, coarse_grid, param))
        desk_eqs = nash_two_player(payoff_tensor(stag_hunt, desk, param))
        assert coarse_eqs, f"coarse branch lost at gamma={gamma}"
        lo = min(eq.payoffs[0] for eq in coarse_eqs)
        hi = max(eq.payoffs[0] for eq in coarse_eqs)
        for eq in desk_eqs:
            overshoot = max(lo - eq.payoffs[0], eq.payoffs[0] - hi)
            worst = max(worst, overshoot)
            assert lo - 1e-6 <= eq.payoffs[0] <= hi + 1e-6
            points += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _passed(
        "criterion 8 (fine-grid bounds)",
        f"{points} desk-scale equilibria ({len(desk)} strategies) inside the coarse "
        f"envelope, worst overshoot {worst:.2e}, in {elapsed:.1f}s",
    )


def test_criterion_09_performance(prisoners_dilemma):
    budget = 120.0
    grid = build_grid(SteppingParams(PI / 8, PI / 8, PI / 8))
    assert len(grid) == 1824
    t0 = time.perf_counter()
    total = 0
    for gamma in default_gamma_grid():
        tensor = payoff_tensor(prisoners_dilemma, grid, EntanglementParam(gamma))
        total += len(nash_two_player(tensor))
    elapsed = time.perf_counter() - t0
    assert elapsed < budget
    _passed(
        "criterion 9 (performance)",
        f"1824-strategy enumeration at 65 gammas ({total} equilibria) "
        f"in {elapsed:.1f}s",
    )


def test_criterion_10_zero_entanglement_factorization():
    rng = np.random.default_rng(31415)
    gamma = EntanglementParam(0.0)
    worst = 0.0
    for _ in range(500):
        pa = StrategyParams(rng.uniform(0, PI), rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI))
        pb = StrategyParams(rng.uniform(0, PI), rng.uniform(0, 2 * PI), rng.uniform(0, 2 * PI))
        probs = outcome_probs(final_state(gamma, pa, pb)).reshape(2, 2)
        marg_a = probs.sum(axis=1)
        marg_b = probs.sum(axis=0)
        worst = max(worst, float(np.abs(probs - np.outer(marg_a, marg_b)).max()))
    assert worst <= 1e-10
    _passed(
        "criterion 10 (zero-entanglement factorization)",
        f"500 random pairs, worst product-distribution gap {worst:.2e}",
    )
