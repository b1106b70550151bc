"""Equilibrium sweeps over entanglement and prior grids, plus the
projections used for plotting: payoff branches, disappearance brackets,
theta scatters and payoff histograms.

Records stream in sorted (gamma, p, index-tuple) order; a gamma point
with no equilibria simply contributes no records.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .circuit import EntanglementParam, GameDefinition, StrategyParams
from .equilibrium import (
    DEFAULT_EPSILON,
    NashEquilibrium,
    PriorProbability,
    nash_bayesian,
    nash_two_player,
    payoff_tensor,
)
from .grid import StrategyGrid

GAMMA_MAX = math.pi / 2

# pi/128 gamma steps resolve a disappearance bracket to ~0.012 rad while
# keeping coarse-grid sweeps instant; 21 prior points match the visual
# granularity wanted from surface plots.
DEFAULT_GAMMA_POINTS = 65
DEFAULT_P_POINTS = 21
DEFAULT_BIN_WIDTH = 0.05


def default_gamma_grid(n: int = DEFAULT_GAMMA_POINTS) -> list[float]:
    """n uniform entanglement values covering [0, pi/2] inclusive."""
    if n < 2:
        raise ValueError("need at least 2 gamma points")
    return [GAMMA_MAX * k / (n - 1) for k in range(n)]


def default_p_grid(n: int = DEFAULT_P_POINTS) -> list[float]:
    """n uniform prior values covering [0, 1] inclusive."""
    if n < 2:
        raise ValueError("need at least 2 p points")
    return [k / (n - 1) for k in range(n)]


@dataclass(frozen=True)
class SweepRecord:
    """One equilibrium at one sweep point; p is None for two-player runs."""

    gamma: float
    p: float | None
    equilibrium: NashEquilibrium
    strategy_params: tuple[StrategyParams, ...]


@dataclass(frozen=True)
class CriticalBracket:
    """Adjacent sweep points between which an equilibrium branch vanishes."""

    last_gamma_with: float
    first_gamma_without: float
    branch_payoff_at_last: tuple[float, ...]


def _records_at(
    game: GameDefinition,
    grid: StrategyGrid,
    gamma_value: float,
    epsilon: float,
) -> list[SweepRecord]:
    gamma = EntanglementParam(gamma_value)
    tensor = payoff_tensor(game, grid, gamma)
    return [
        SweepRecord(
            gamma=gamma_value,
            p=None,
            equilibrium=eq,
            strategy_params=tuple(grid.params[k] for k in eq.strategy_indices),
        )
        for eq in nash_two_player(tensor, epsilon)
    ]


def gamma_sweep(
    game: GameDefinition,
    grid: StrategyGrid,
    gamma_points: Sequence[float],
    epsilon: float = DEFAULT_EPSILON,
) -> list[SweepRecord]:
    """Two-player equilibria at each entanglement value, concatenated."""
    records: list[SweepRecord] = []
    for g in gamma_points:
        records.extend(_records_at(game, grid, g, epsilon))
    return records


def bayes_sweep(
    game1: GameDefinition,
    game2: GameDefinition,
    grid: StrategyGrid,
    gamma_points: Sequence[float],
    p_points: Sequence[float],
    epsilon: float = DEFAULT_EPSILON,
) -> list[SweepRecord]:
    """Bayesian (A, B1, B2) equilibria over the full (gamma, p) product grid.

    Both component tensors are built once per gamma and reused across the
    prior values.
    """
    records: list[SweepRecord] = []
    for g in gamma_points:
        gamma = EntanglementParam(g)
        t1 = payoff_tensor(game1, grid, gamma)
        t2 = payoff_tensor(game2, grid, gamma)
        for p in p_points:
            for eq in nash_bayesian(t1, t2, PriorProbability(p), epsilon):
                records.append(
                    SweepRecord(
                        gamma=g,
                        p=p,
                        equilibrium=eq,
                        strategy_params=tuple(grid.params[k] for k in eq.strategy_indices),
                    )
                )
    return records


def critical_gamma(
    records: Sequence[SweepRecord],
    gamma_points: Sequence[float],
    branch_selector: Callable[[SweepRecord], bool] = lambda record: True,
) -> CriticalBracket | None:
    """Bracket the entanglement where the selected branch stops appearing.

    Returns the adjacent (last-with, first-without) pair of sweep points,
    or None when the branch never appears or persists through the final
    sweep point.
    """
    selected = [r for r in records if branch_selector(r)]
    if not selected:
        return None
    last_with = max(r.gamma for r in selected)
    position = list(gamma_points).index(last_with)
    if position == len(gamma_points) - 1:
        return None
    at_last = next(r for r in selected if r.gamma == last_with)
    return CriticalBracket(
        last_gamma_with=last_with,
        first_gamma_without=gamma_points[position + 1],
        branch_payoff_at_last=at_last.equilibrium.payoffs,
    )


def scatter_theta(records: Sequence[SweepRecord]) -> list[tuple[float, float]]:
    """(theta_A, theta_B) projection of each record."""
    return [
        (r.strategy_params[0].theta, r.strategy_params[1].theta) for r in records
    ]


def payoff_histogram(
    records: Sequence[SweepRecord],
    gamma_slice: float,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> list[tuple[float, int]]:
    """Binned counts of player-A payoffs among records at one gamma.

    Bin k covers [k*w, (k+1)*w); rows are (bin center, count), sorted.
    """
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin_width must be finite and positive, got {bin_width!r}")
    counts: dict[int, int] = {}
    for r in records:
        if abs(r.gamma - gamma_slice) <= 1e-12:
            # the 1e-9 nudge keeps payoffs that sit on a bin edge up to
            # float noise (e.g. 3.0/0.1) in the upper bin
            k = math.floor(r.equilibrium.payoffs[0] / bin_width + 1e-9)
            counts[k] = counts.get(k, 0) + 1
    return [((k + 0.5) * bin_width, counts[k]) for k in sorted(counts)]
