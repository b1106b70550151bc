"""Equilibrium sweeps over entanglement and prior grids, plus the
projections used for plotting: payoff branches, disappearance brackets,
theta scatters and payoff histograms.

Records are columns: `gamma_sweep` and `bayes_sweep` return a
`RecordTable`, one array per field of the README schemas, in sorted
(gamma, p, index-tuple) order, and a sweep point with no equilibria simply
contributes no rows. `RecordTable.records` builds `SweepRecord` objects
from a table on demand; it, `record_columns`, `scatter_theta` and
`payoff_histogram` are adapters that only the benchmark's traced mirror
(`perfbench/traced.py`) calls.
"""
from __future__ import annotations

import itertools
import math
from contextlib import closing
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .circuit import GAMMA_MAX, EntanglementParam, GameDefinition, StrategyParams
from .equilibrium import (
    DEFAULT_EPSILON,
    NashEquilibrium,
    PriorProbability,
    _bayes_reduction,
    _require_epsilon,
    _row_blocks,
    _tables,
    _two_player_reduction,
)
from .grid import StrategyGrid

# A records CSV prints gamma to 12 digits; a grid gamma this close to a
# record's gamma is that record's gamma.
_GAMMA_MATCH = 1e-9

TWO_PLAYER_COLUMNS = [
    "gamma", "eq_index", "a_index", "b_index",
    "theta_a", "phi_a", "alpha_a", "theta_b", "phi_b", "alpha_b",
    "payoff_a", "payoff_b",
]
BAYES_COLUMNS = [
    "gamma", "p", "eq_index", "a_index", "b1_index", "b2_index",
    "theta_a", "phi_a", "alpha_a",
    "theta_b1", "phi_b1", "alpha_b1", "theta_b2", "phi_b2", "alpha_b2",
    "payoff_a", "payoff_b1", "payoff_b2",
]

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
    # The endpoint is GAMMA_MAX itself: GAMMA_MAX * (n - 1) / (n - 1) can
    # round one ulp to either side, and above pi/2 is not a valid gamma.
    return [GAMMA_MAX * k / (n - 1) for k in range(n - 1)] + [GAMMA_MAX]


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


def _roles(bayes: bool) -> tuple[str, ...]:
    """Column suffixes of the players, in index-tuple order."""
    return ("a", "b1", "b2") if bayes else ("a", "b")


def _schema_columns(
    bayes: bool,
    gamma: np.ndarray,
    p: np.ndarray | None,
    eq_index: np.ndarray,
    indices: Sequence[np.ndarray],
    angles: Sequence[Sequence[np.ndarray]],
    payoffs: Sequence[np.ndarray],
) -> dict[str, np.ndarray]:
    """The schema's columns, in order, from per-record arrays given per
    player: one index array, one (theta, phi, alpha) triple of angle
    arrays and one payoff array each."""
    values = {"gamma": gamma, "p": p, "eq_index": eq_index}
    for role, index, triple, payoff in zip(_roles(bayes), indices, angles, payoffs, strict=True):
        values[f"{role}_index"] = np.ascontiguousarray(index, dtype=np.int64)
        for name, angle in zip(("theta", "phi", "alpha"), triple, strict=True):
            values[f"{name}_{role}"] = np.ascontiguousarray(angle, dtype=np.float64)
        values[f"payoff_{role}"] = np.ascontiguousarray(payoff, dtype=np.float64)
    return {name: values[name] for name in (BAYES_COLUMNS if bayes else TWO_PLAYER_COLUMNS)}


@dataclass(frozen=True)
class RecordTable:
    """Sweep records as columns, one array per TWO_PLAYER_COLUMNS or
    BAYES_COLUMNS name: int64 for `eq_index` and the `*_index` columns,
    float64 for the rest.

    A table with a `p` column holds Bayesian records. `eq_index` counts
    the equilibria of each (gamma, p) point from 0. `records` builds
    SweepRecord objects on each access; the CLI never needs them.
    """

    columns: dict[str, np.ndarray]

    def __len__(self) -> int:
        return len(self.columns["gamma"])

    @property
    def bayes(self) -> bool:
        return "p" in self.columns

    @property
    def gamma_values(self) -> list[float]:
        """The table's gammas in order, once per run of equal values."""
        gamma = self.columns["gamma"]
        first_of_run = np.ones(len(gamma), dtype=bool)
        first_of_run[1:] = gamma[1:] != gamma[:-1]
        return gamma[first_of_run].tolist()

    def _params(self, role: str) -> list[StrategyParams]:
        """One role's StrategyParams per record, built once per distinct angle triple.

        Triples are told apart by their float64 bits, so a -0.0 angle stays -0.0.
        """
        angles = np.stack([self.columns[f"{a}_{role}"] for a in ("theta", "phi", "alpha")], axis=1)
        bits = angles.view(np.int64)
        order = np.lexsort(bits.T)
        first = np.ones(len(order), dtype=bool)
        first[1:] = (bits[order[1:]] != bits[order[:-1]]).any(axis=1)
        inverse = np.empty(len(order), dtype=np.intp)
        inverse[order] = np.cumsum(first) - 1
        params = np.empty(int(first.sum()), dtype=object)
        params[:] = [StrategyParams(*triple) for triple in angles[order[first]].tolist()]
        return params[inverse].tolist()

    @property
    def records(self) -> list[SweepRecord]:
        roles = _roles(self.bayes)

        def listed(name: str) -> list:
            return self.columns[name].tolist()

        indices = zip(*(listed(f"{r}_index") for r in roles))
        payoffs = zip(*(listed(f"payoff_{r}") for r in roles))
        params = zip(*(self._params(r) for r in roles))
        p = listed("p") if self.bayes else itertools.repeat(None)
        return [
            SweepRecord(
                gamma=gamma,
                p=prior,
                equilibrium=NashEquilibrium(strategy_indices=ij, payoffs=pay),
                strategy_params=sp,
            )
            for gamma, prior, ij, pay, sp in zip(listed("gamma"), p, indices, payoffs, params)
        ]


def record_columns(records: Sequence[SweepRecord], *, bayes: bool = False) -> dict[str, np.ndarray]:
    """SweepRecord objects as the columns of a RecordTable.

    `eq_index` restarts at 0 whenever (gamma, p) changes; a Bayesian
    record without a prior gets p = 0.
    """
    n, players = len(records), len(_roles(bayes))
    gamma = np.array([r.gamma for r in records], dtype=np.float64)
    new_point = np.ones(n, dtype=bool)
    new_point[1:] = gamma[1:] != gamma[:-1]
    p = None
    if bayes:
        p = np.array([0.0 if r.p is None else r.p for r in records], dtype=np.float64)
        new_point[1:] |= p[1:] != p[:-1]
    position = np.arange(n)
    return _schema_columns(
        bayes,
        gamma,
        p,
        position - np.maximum.accumulate(np.where(new_point, position, 0)),
        np.array([r.equilibrium.strategy_indices for r in records], dtype=np.int64).reshape(n, players).T,
        np.array(
            [[sp.astuple() for sp in r.strategy_params] for r in records], dtype=np.float64
        ).reshape(n, players, 3).transpose(1, 2, 0),
        np.array([r.equilibrium.payoffs for r in records], dtype=np.float64).reshape(n, players).T,
    )


def _table(
    grid: StrategyGrid,
    points: Sequence[tuple[float, float | None, tuple[np.ndarray, ...]]],
    *,
    bayes: bool,
) -> RecordTable:
    """The table of sweep points given as (gamma, p or None, equilibrium columns).

    Each point's columns are its member index arrays, one per player, then
    its payoff arrays. Each column is concatenated across the points, and
    each angle column is gathered from a column of `grid.angles` by index.
    """
    players = len(_roles(bayes))
    sizes = np.array([len(cols[0]) for _, _, cols in points], dtype=np.int64)

    def joined(k: int, dtype) -> np.ndarray:
        # the empty head keeps the dtype when there are no points
        return np.concatenate([np.empty(0, dtype), *(cols[k] for _, _, cols in points)])

    def per_point(values) -> np.ndarray:
        return np.repeat(np.array(values, dtype=np.float64), sizes)

    indices = [joined(k, np.int64) for k in range(players)]
    return RecordTable(
        _schema_columns(
            bayes,
            per_point([g for g, _, _ in points]),
            per_point([p for _, p, _ in points]) if bayes else None,
            np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes),
            indices,
            [[angle[index] for angle in grid.angles.T] for index in indices],
            [joined(k, np.float64) for k in range(players, 2 * players)],
        )
    )


def _unsigned_zeros(points: Sequence[float]) -> list[float]:
    """The points with -0.0 replaced by 0.0, which is what x + 0.0 gives."""
    return [x + 0.0 for x in points]


def gamma_sweep(
    game: GameDefinition,
    grid: StrategyGrid,
    gamma_points: Sequence[float],
    epsilon: float = DEFAULT_EPSILON,
) -> RecordTable:
    """Two-player equilibria at each entanglement value, as one table.

    `_tables` writes each gamma's tables into one pair of buffers, one
    block of orbit rows (`_row_blocks`) at a time, and each block is
    reduced as it is written; the reduction copies what it keeps, so no
    column is a view of them. A gamma of -0.0 is recorded as 0.0.
    """
    _require_epsilon(epsilon)  # also when there are no gammas to reduce
    gamma_points = _unsigned_zeros(gamma_points)
    gammas = (EntanglementParam(g) for g in gamma_points)
    blocks = _row_blocks(len(grid.orbit_images[0]), len(grid.features))
    # closing the generator frees the buffers before the record columns are built
    with closing(_tables((game,), grid, gammas, blocks)) as passes:
        points = [(g, None, _two_player_reduction(grid, rows, epsilon)) for g, rows in zip(gamma_points, passes)]
    return _table(grid, points, bayes=False)


def bayes_sweep(
    game1: GameDefinition,
    game2: GameDefinition,
    grid: StrategyGrid,
    gamma_points: Sequence[float],
    p_points: Sequence[float],
    epsilon: float = DEFAULT_EPSILON,
) -> RecordTable:
    """Bayesian (A, B1, B2) equilibria over the full (gamma, p) product grid, as one table.

    `_tables` writes both games' whole tables of every gamma into one set
    of buffers, and one candidate set (B's best-response masks, the
    candidate triples and A's distinct column pairs) serves every prior
    value of that gamma. A gamma or prior of -0.0 is recorded as 0.0.
    """
    _require_epsilon(epsilon)  # also when there are no gammas to reduce
    gamma_points, p_points = _unsigned_zeros(gamma_points), _unsigned_zeros(p_points)
    priors = [PriorProbability(p) for p in p_points]
    gammas = (EntanglementParam(g) for g in gamma_points)
    blocks = [(0, len(grid.orbit_images[0]))]
    with closing(_tables((game1, game2), grid, gammas, blocks)) as passes:
        points = [
            (g, p, cols)
            for g, filled in zip(gamma_points, passes)
            for _, tables in filled  # the one block
            for p, cols in zip(p_points, _bayes_reduction(grid, tables, priors, epsilon))
        ]
    return _table(grid, points, bayes=True)


def critical_gamma(
    table: RecordTable,
    gamma_points: Sequence[float],
    rows: np.ndarray | None = None,
) -> CriticalBracket | None:
    """Bracket the entanglement where the branch in the `rows` mask stops appearing.

    `rows` is a boolean mask over the table's records (ValueError
    otherwise); None selects them all. Returns the adjacent (last-with,
    first-without) pair of sweep points, or None when the branch never
    appears or persists through the final sweep point. A record's gamma
    matches the nearest sweep point within 1e-9, so a table read back from
    a 12-digit CSV brackets like the sweep's own; a gamma with no sweep
    point that close raises ValueError.
    """
    rows = np.ones(len(table), dtype=bool) if rows is None else np.asarray(rows)
    if rows.dtype != bool or rows.shape != (len(table),):
        raise ValueError(f"rows must be a boolean mask of {len(table)} entries, not {rows.dtype} {rows.shape}")
    selected = np.flatnonzero(rows)
    if not len(selected):
        return None
    # the first selected record of the largest gamma
    at_last = selected[np.argmax(table.columns["gamma"][selected])]
    last_with = table.columns["gamma"][at_last].item()
    distance = [abs(g - last_with) for g in gamma_points]
    position = min(range(len(distance)), key=distance.__getitem__, default=None)
    if position is None or not distance[position] <= _GAMMA_MATCH:
        raise ValueError(f"record gamma {last_with!r} is not within {_GAMMA_MATCH:g} of a sweep point")
    if position == len(gamma_points) - 1:
        return None
    return CriticalBracket(
        last_gamma_with=gamma_points[position],
        first_gamma_without=gamma_points[position + 1],
        branch_payoff_at_last=tuple(
            table.columns[f"payoff_{role}"][at_last].item() for role in _roles(table.bayes)
        ),
    )


def scatter_theta(records: Sequence[SweepRecord]) -> list[tuple[float, float]]:
    """(theta_A, theta_B) projection of each record."""
    return [
        (r.strategy_params[0].theta, r.strategy_params[1].theta) for r in records
    ]


def payoff_bins(
    gammas: np.ndarray,
    payoffs: np.ndarray,
    gamma_slice: float,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> list[tuple[float, int]]:
    """Binned counts of the payoffs whose gamma is within 1e-12 of `gamma_slice`.

    Bin k covers [k*w, (k+1)*w); rows are (bin center, count), sorted.
    k stays a float, so a tiny width cannot overflow an integer, and
    (k + 0.5) * w is the float that integer arithmetic on k gives.
    """
    if not (math.isfinite(bin_width) and bin_width > 0):
        raise ValueError(f"bin_width must be finite and positive, got {bin_width!r}")
    gammas = np.asarray(gammas, dtype=np.float64)
    at_slice = np.asarray(payoffs, dtype=np.float64)[np.abs(gammas - gamma_slice) <= 1e-12]
    with np.errstate(over="ignore"):
        # the 1e-9 nudge keeps payoffs that sit on a bin edge up to float
        # noise (e.g. 3.0/0.1) in the upper bin
        k = np.floor(at_slice / bin_width + 1e-9)
    unbinnable = ~np.isfinite(k)
    if unbinnable.any():
        payoff = at_slice[np.argmax(unbinnable)].item()
        raise ValueError(f"cannot bin payoff {payoff!r} at bin_width {bin_width!r}")
    keys, counts = np.unique(k, return_counts=True)
    return [((key + 0.5) * bin_width, n) for key, n in zip(keys.tolist(), counts.tolist())]


def payoff_histogram(
    records: Sequence[SweepRecord],
    gamma_slice: float,
    bin_width: float = DEFAULT_BIN_WIDTH,
) -> list[tuple[float, int]]:
    """`payoff_bins` of player A's payoffs among `records`."""
    return payoff_bins(
        [r.gamma for r in records], [r.equilibrium.payoffs[0] for r in records], gamma_slice, bin_width
    )
