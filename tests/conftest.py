import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # for oracles.py

from ewlgames import GameDefinition, SteppingParams, build_grid, equilibrium
from ewlgames.circuit import EntanglementParam, payoff_forms, rotation_features, strategy_matrix


@pytest.fixture(scope="session")
def kernel_payoffs():
    """payoffs(mats_a, mats_b, gamma, game): both players' (len(mats_a), len(mats_b))
    tables f_a @ K @ f_b.T, from the `rotation_features` f of each stack and the
    player's `payoff_forms` K at `gamma`, as the kernel composes them."""

    def payoffs(mats_a, mats_b, gamma: EntanglementParam, game: GameDefinition) -> tuple[np.ndarray, np.ndarray]:
        feat_a, feat_b = rotation_features(mats_a), rotation_features(mats_b)
        return tuple(feat_a @ k @ feat_b.T for k in payoff_forms(gamma, game))

    return payoffs


@pytest.fixture(scope="session")
def kernel_probs(kernel_payoffs):
    """probs(gamma, mats_a, mats_b): (len(mats_a), len(mats_b), 4) outcome probabilities.

    They are read off the payoff kernel the CLI runs: a payoff vector that is 1
    on outcome k and 0 elsewhere makes the kernel's table that outcome's
    probability.
    """

    def probs(gamma: float, mats_a, mats_b) -> np.ndarray:
        tables = []
        for k in range(4):
            w = tuple(float(k == m) for m in range(4))
            game = GameDefinition(f"outcome_{k}", w, w)
            tables.append(kernel_payoffs(mats_a, mats_b, EntanglementParam(gamma), game)[0])
        return np.stack(tables, axis=-1)

    return probs


@pytest.fixture(scope="session")
def full_class_tables():
    """tables(game, grid, gamma): both players' class tables as the kernel
    computed them before the orbit solve, every class against every class."""

    def tables(game, grid, gamma: float) -> list[np.ndarray]:
        features = grid.features
        return [features @ k @ features.T for k in payoff_forms(EntanglementParam(gamma), game)]

    return tables


@pytest.fixture(scope="session")
def solver_tables():
    """tables(games, grid, gamma, expand=None): the tables the sweeps reduce.

    They are the whole orbit-row tables that one pass of `equilibrium._tables`
    writes at `gamma`, in one block, into buffers of this call's own: rows_a,
    then rows_b, per game. expand="classes" gives each as the full class table,
    every class against every class, and expand="members" as the full
    member table, indexed by `grid.classes`. The package never builds these:
    row g.S[i] of a class table is orbit row i read at the columns g.b, for
    every map g with `grid.orbit_images[g, i]` >= 0, so each entry has the
    bits the reductions read.
    """

    def expanded(grid, rows: np.ndarray, expand: str) -> np.ndarray:
        n = len(grid.members)
        table = np.empty((n, n))
        for action, images in zip(grid.orbit_maps, grid.orbit_images):
            i = np.flatnonzero(images >= 0)
            table[images[i]] = rows[i][:, action]
        return table if expand == "classes" else table[np.ix_(grid.classes, grid.classes)]

    def tables(games, grid, gamma: float, expand: str | None = None) -> list[np.ndarray]:
        assert expand in (None, "classes", "members")
        blocks = [(0, len(grid.orbit_images[0]))]
        ((_, rows),) = next(equilibrium._tables(games, grid, [EntanglementParam(gamma)], blocks))
        return rows if expand is None else [expanded(grid, table, expand) for table in rows]

    return tables


@pytest.fixture(scope="session")
def strategy_matrices():
    """matrices(grid): the read-only (N, 2, 2) stack of `strategy_matrix(p)`
    over `grid.params`, built once per grid. The grid itself keeps only its
    classes' features."""
    cache = {}  # id(grid) -> (grid, stack); holding the grid keeps its id unique

    def matrices(grid) -> np.ndarray:
        if id(grid) not in cache:
            stack = np.array([strategy_matrix(p) for p in grid.params])
            stack.setflags(write=False)
            cache[id(grid)] = (grid, stack)
        return cache[id(grid)][1]

    return matrices


@pytest.fixture(scope="session")
def coarse_grid():
    """The 8-strategy grid (steps pi, pi/2, pi/2) most tests run on."""
    return build_grid(SteppingParams(math.pi, math.pi / 2, math.pi / 2))


@pytest.fixture(scope="session")
def prisoners_dilemma():
    return GameDefinition("prisoners_dilemma", (3, 0, 5, 1), (3, 5, 0, 1))


@pytest.fixture(scope="session")
def deadlock():
    return GameDefinition("deadlock", (1, 0, 3, 2), (1, 3, 0, 2))


@pytest.fixture(scope="session")
def stag_hunt():
    return GameDefinition("stag_hunt", (4, 0, 3, 2), (4, 3, 0, 2))


@pytest.fixture(scope="session")
def matching_pennies():
    return GameDefinition("matching_pennies", (1, -1, -1, 1), (-1, 1, 1, -1))
