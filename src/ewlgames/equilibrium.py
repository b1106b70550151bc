"""Payoff tables over a strategy grid and pure-strategy Nash enumeration.

The payoff kernel scores a strategy pair as f_a @ K @ f_b.T: the grid's
10 gamma-free rotation features per class (`StrategyGrid.features`,
computed by `build_grid`) around each player's 10x10 form K, which each
gamma builds from `circuit.payoff_forms`. A table row is player A's
strategy index, a column player B's. Best responses are argmax-with-ties
sets (tolerance epsilon), and both reductions find equilibria by one
rule: list B's best-response cells, then keep those where A's payoff is
within epsilon of its column's maximum (for the Bayesian A, of the
p-mixed (b1, b2) column). The three-player Bayesian composition mixes
two games' tables on one grid at one entanglement: player A scores
p * game1 + (1-p) * game2 while each B-type scores its own game at full
weight.

Both reductions run on the orbit rows of the grid's +-U class tables.
The grid's maps G = {e, L, R, LR} (`StrategyGrid.orbit_maps`) leave each
table invariant, pa[g.a, g.b] = pa[a, b], so the kernel computes one row
per G-orbit of classes: the rows of S = `StrategyGrid.orbit_images[0]`,
the lowest class of each orbit, against every class. B's best responses
to S[i] come from row i, A's column maximum at b is the maximum over g
of the rows' column maxima at g.b, and every class equilibrium is the
image (g.S[i], g.b) of an equilibrium (S[i], b) of the rows, with its
payoffs. `_expand` takes the rows' equilibrium cells straight to member
index tuples, through the grid's `orbit_images` and `members` tables; a
partner's record carries its representative's payoffs. Equilibrium sets
are therefore closed under every g as well as under +-U. On a grid with
G = {e}, S is every class and the arithmetic is the full class tables'.
Bayesian equilibria are found without a loop over A's strategies; see
`_bayes_reduction` for the algorithm, its order and its memory.

The kernel writes tables in blocks of orbit rows (`_fill_rows`), and
`_tables` drives it for every caller: it builds once what no gamma
changes (the orbit rows' features, the transposed features, each
block's folds and one buffer per player per game, as tall as the
tallest block) and writes each gamma's pass into the buffers.
`gamma_sweep` passes `_row_blocks` of about _ROW_BLOCK bytes, small
enough that both players' blocks stay in cache while they are reduced,
and reduces each block as soon as it is written, so it never holds a
whole table; `bayes_sweep` passes one block of every orbit row and
reduces the whole tables (`_bayes_reduction`). Every path gives the
same bits: the 10-column product of the orbit rows' features with K
is taken over all rows at once, and every block of the second product
has 2 rows or more.

B's best responses (`_best_responses`) come from each row's argmax and
runner-up: the row's top cell is set to -inf while a second argmax pass
finds the runner-up, then written back. When every row's runner-up is
below top - epsilon, each row's argmax is its single best response; a
table where some row ties takes the compare with top - epsilon on every
row. The reductions write only into the sweep's own writable buffers,
restore each one bit for bit before they return, and never write a
read-only table.

The reductions produce columns: one member index array per player, then
one payoff array per player, and the sweeps consume them directly.

`PayoffTensor`, `payoff_tensor`, `NashEquilibrium`, `nash_two_player` and
`nash_bayesian` are adapters that only the benchmark's traced mirror
(`perfbench/traced.py`) calls; they stay until ROADMAP item 1 moves that
mirror onto the sweeps. A `payoff_tensor` is one step of `_tables` with
buffers of its own, read-only, and the two `nash_*` adapters run the
sweeps' reductions on a tensor's whole tables.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circuit import EntanglementParam, GameDefinition, payoff_forms
from .grid import StrategyGrid

# Payoff ties: far below any gap in integer-scale payoff tables, far above
# double rounding in two chained real products of inner dimension 10.
DEFAULT_EPSILON = 1e-9


@dataclass(frozen=True)
class PayoffTensor:
    """Both players' payoffs for one game at one entanglement.

    `rows_a[i, b]` and `rows_b[i, b]` score the class pair (S[i], b), for
    the orbit rows S = `grid.orbit_images[0]`. `payoff_b` expands B's rows
    to the full |V| x |V| table on each access: every class is g.S[i] =
    `grid.orbit_images[g, i]` for one map g, and scores as
    `class_b[g.S[i], b] = rows_b[i, g.b]`.
    """

    game: GameDefinition
    gamma: EntanglementParam
    grid: StrategyGrid
    rows_a: np.ndarray = field(repr=False)
    rows_b: np.ndarray = field(repr=False)

    @property
    def payoff_b(self) -> np.ndarray:
        n = len(self.grid.members)
        table = np.empty((n, n))
        for action, images in zip(self.grid.orbit_maps, self.grid.orbit_images):
            i = np.flatnonzero(images >= 0)
            table[images[i]] = self.rows_b[i][:, action]
        return table[np.ix_(self.grid.classes, self.grid.classes)]


# Bytes of one table block in a two-player sweep. A's and B's blocks
# (1 MiB together) stay in a 2 MiB L2 cache while the reduction reads
# them. On 2 vCPUs with 2 MiB of L2 each, gamma_sweep of the prisoner's
# dilemma on the 1824 grid at 65 gammas took the same time to within
# 0.2 % at 384, 512 and 640 KiB, 32 % longer at 2 MiB (one block, where
# the two tables overflow L2) and 28 % longer at 128 KiB (14 blocks).
# The 1824 grid's 232 x 912 orbit rows come in blocks of 71, the 7968
# grid's 1000 x 3984 in blocks of 16.
_ROW_BLOCK = 512 << 10


def _row_blocks(rows: int, classes: int) -> list[tuple[int, int]]:
    """(start, stop) bounds of consecutive blocks of orbit rows, _ROW_BLOCK bytes of a table each.

    At 512 KiB, a block of each player's table fits in a 2 MiB L2 cache
    beside the other's, so the reduction reads both from cache. Every
    block has at least 2 rows, and a 1-row tail joins the block before
    it, which may then exceed _ROW_BLOCK by one row: numpy takes a 1-row
    product as a matrix-vector product, whose bits differ from the same
    row of the matrix product. Blocks of 2 rows or more give the whole
    product's bits.
    """
    size = max(2, _ROW_BLOCK // max(8 * classes, 1))  # an empty grid has no classes
    starts = list(range(0, rows, size))
    if len(starts) > 1 and rows - starts[-1] == 1:
        del starts[-1]
    return list(zip(starts, [*starts[1:], rows]))


def _block_plan(grid: StrategyGrid, blocks: Sequence[tuple[int, int]]) -> list[tuple[int, int, list]]:
    """(start, stop, folds) per block, where folds holds (to, source) flat positions in the block's tables.

    There is one (to, source) pair per map g that fixes some of the
    block's rows. Such a row is folded onto one value per column pair
    {b, g.b}, row[b] = row[min(b, g.b)], so that every expanded entry is
    well defined bit for bit: `to` holds the entries (row, b) with
    g.b < b and `source` the entries (row, g.b) they copy, with rows
    counted from the block's start. Only LR can fix a class:
    i*sigma_z U = +-U has no solution.
    """
    orbit_rows = grid.orbit_images[0]
    classes = np.arange(grid.orbit_maps.shape[1])
    maps = [
        (np.flatnonzero(action[orbit_rows] == orbit_rows), np.flatnonzero(action < classes), action)
        for action in grid.orbit_maps[1:]
    ]
    plan = []
    for start, stop in blocks:
        folds = []
        for fixed, moved, action in maps:
            offsets = (fixed[(fixed >= start) & (fixed < stop)] - start)[:, None] * len(classes)
            if len(offsets):
                folds.append(((offsets + moved).ravel(), (offsets + action[moved]).ravel()))
        plan.append((start, stop, folds))
    return plan


def _fill_rows(
    products: Sequence[np.ndarray],
    columns: np.ndarray,
    plan: Sequence[tuple[int, int, list]],
    buffers: Sequence[np.ndarray],
) -> Iterator[tuple[int, list[np.ndarray]]]:
    """Write each block of orbit rows of the tables f_S @ K @ f.T, one per form K, in turn.

    `products` holds f_S @ K per form, over every orbit row, `columns` is
    f.T, and `plan` is the blocks' `_block_plan`. Yields (start, tables)
    once rows [start, stop) are written and folded: table k is the first
    stop - start rows of `buffers[k]`, valid until the generator resumes.
    """
    flats = [buffer.reshape(-1) for buffer in buffers]  # views: each buffer is one contiguous array
    for start, stop, folds in plan:
        tables = [buffer[: stop - start] for buffer in buffers]
        for table, flat, product in zip(tables, flats, products):
            np.matmul(product[start:stop], columns, out=table)
            for to, source in folds:
                flat[to] = flat[source]
        yield start, tables


def _tables(
    games: Sequence[GameDefinition],
    grid: StrategyGrid,
    gammas: Iterable[EntanglementParam],
    blocks: Sequence[tuple[int, int]],
) -> Iterator[Iterator[tuple[int, list[np.ndarray]]]]:
    """Each gamma's `_fill_rows` pass over `blocks` in turn, all written into one set of buffers.

    The first step builds what no gamma changes: the orbit rows' features
    f_S, the transposed features f.T, the blocks' `_block_plan`, and one
    buffer per player per game, as tall as the tallest block, so a sweep
    does not fault in fresh pages at each point. Each gamma then takes the
    10-column products f_S @ K over all orbit rows at once, since
    splitting them changes their bits. A pass yields (start, [rows_a,
    rows_b] per game) per block: views of the buffers, valid only until
    the pass resumes, and the next gamma's pass overwrites them all. Copy
    what must outlive that.
    """
    if len(grid) == 0:
        raise ValueError("empty strategy grid")
    orbit_features = grid.features[grid.orbit_images[0]]
    columns = grid.features.T
    plan = _block_plan(grid, blocks)
    height = max(stop - start for start, stop in blocks)
    buffers = [np.empty((height, len(grid.features))) for _ in range(2 * len(games))]
    for gamma in gammas:
        products = [orbit_features @ k for game in games for k in payoff_forms(gamma, game)]
        yield _fill_rows(products, columns, plan, buffers)


def payoff_tensor(
    game: GameDefinition,
    grid: StrategyGrid,
    gamma: EntanglementParam,
) -> PayoffTensor:
    """Tabulate both players' payoffs of each orbit row against every class.

    One step of the sweeps' `_tables`, as one block of every orbit row,
    with buffers allocated for this call alone: no other call ever writes
    the tensor's tables, and they are read-only.
    """
    ((_, (rows_a, rows_b)),) = next(_tables((game,), grid, (gamma,), [(0, len(grid.orbit_images[0]))]))
    rows_a.setflags(write=False)
    rows_b.setflags(write=False)
    return PayoffTensor(game=game, gamma=gamma, grid=grid, rows_a=rows_a, rows_b=rows_b)


@dataclass(frozen=True)
class NashEquilibrium:
    """A mutually-best strategy profile: 2 indices, or 3 as (A, B1, B2)."""

    strategy_indices: tuple[int, ...]
    payoffs: tuple[float, ...]


def _require_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")


def _best_responses(table: np.ndarray, epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    """B's best responses: the (row, column) cells within epsilon of their row's maximum, row-major.

    These are the cells of `table >= table.max(axis=1, keepdims=True) -
    epsilon`, found without that compare when no row ties: on a 71 x 912
    block it took 26.5 us, and the two argmax passes below 14 us (numpy
    2.4.6, 2 vCPUs). The first pass finds each row's top cell. Those cells
    are set to -inf, the second pass finds each row's runner-up, and the
    top values are written back, so the table comes back bit for bit as
    it was. When every row's runner-up is below top - epsilon, each row's
    argmax is its single best response. Otherwise the whole table takes
    the compare, and one flat scan of its mask gives the same cells as a
    2-D `np.nonzero`, faster. A read-only table is never written: it
    always takes the compare.
    """
    rows, n = table.shape
    index = np.arange(rows, dtype=np.intp)
    starts = index * n  # flat positions, which take and put read in C order for any layout
    best = table.argmax(axis=1)
    at = starts + best
    top = table.take(at)
    threshold = top - epsilon
    if table.flags.writeable:
        table.put(at, -np.inf)
        runner_up = table.take(starts + table.argmax(axis=1))
        table.put(at, top)
        if not (runner_up >= threshold).any():
            return index, best
    return np.divmod(np.flatnonzero(table >= threshold[:, None]), n)


def _expand(
    grid: StrategyGrid, rows: np.ndarray, columns: Sequence[np.ndarray], payoffs: Sequence[np.ndarray]
) -> tuple:
    """Every member index tuple of the orbit-row cells (i, c, ...), in lexicographic order.

    Cell k is (S[rows[k]], columns[0][k], ...). It stands for the class
    tuple (g.S[i], g.c, ...) of each map g with `grid.orbit_images[g, i]`
    >= 0, and each class tuple for every choice of its classes' members
    (`grid.members`). `payoffs` holds one array per player aligned with
    the cells. All (map, cell) pairs are taken at once, then each
    position's class is replaced by its members in turn, repeating the
    rest of the tuple and its source cell once per member. Returns the
    member index arrays, sorted once by their combined key, then the
    payoff arrays: each member tuple carries its cell's payoffs.
    """
    g, cell = np.nonzero(grid.orbit_images[:, rows] >= 0)
    tuples = [grid.orbit_images[g, rows[cell]], *(grid.orbit_maps[g, c[cell]] for c in columns)]
    for k in range(len(tuples)):
        members = grid.members[tuples[k]]
        slot, member = np.nonzero(members >= 0)
        tuples = [members[slot, member] if j == k else col[slot] for j, col in enumerate(tuples)]
        cell = cell[slot]
    order = np.argsort(np.ravel_multi_index(tuples, (len(grid),) * len(tuples)))  # keys are distinct
    source = cell[order]
    return (*(col[order] for col in tuples), *(pay[source] for pay in payoffs))


def _equilibria(columns: Sequence[np.ndarray]) -> list[NashEquilibrium]:
    """NashEquilibrium objects from index columns followed by as many payoff columns."""
    players = len(columns) // 2
    return [
        NashEquilibrium(strategy_indices=row[:players], payoffs=row[players:])
        for row in zip(*(c.tolist() for c in columns))
    ]


def _two_player_reduction(
    grid: StrategyGrid, blocks: Iterable[tuple[int, Sequence[np.ndarray]]], epsilon: float
) -> tuple[np.ndarray, ...]:
    """The two-player rule as columns (a_index, b_index, payoff_a, payoff_b).

    `blocks` yields (start, (rows_a, rows_b)) for consecutive blocks of
    orbit rows that together cover them all; each block is reduced as it
    arrives. A's column maxima over the rows are a running maximum, and
    B's best-response cells, complete within a row, are kept with both
    payoffs. After the last block a cell (i, b) stays when A's payoff is
    within epsilon of A's column-b maximum over every class: the maximum
    over g of the rows' maxima at g.b.
    """
    rowmax = np.full(len(grid.features), -np.inf)
    cells = []
    for start, (pa, pb) in blocks:
        np.maximum(rowmax, pa.max(axis=0), out=rowmax)
        ri, cb = _best_responses(pb, epsilon)
        cells.append((ri + start, cb, pa[ri, cb], pb[ri, cb]))
    ri, cb, a, b = (parts[0] if len(parts) == 1 else np.concatenate(parts) for parts in zip(*cells))
    del cells
    colmax = rowmax[grid.orbit_maps].max(axis=0)
    keep = np.flatnonzero(a >= (colmax - epsilon)[cb])
    ri, cb, a, b = ri[keep], cb[keep], a[keep], b[keep]
    del keep
    return _expand(grid, ri, (cb,), (a, b))


def nash_two_player(tensor: PayoffTensor, epsilon: float = DEFAULT_EPSILON) -> list[NashEquilibrium]:
    """All (i, j) lying in both players' best-response sets, in index order:
    `_two_player_reduction` of the tensor's tables as one block."""
    _require_epsilon(epsilon)
    return _equilibria(_two_player_reduction(tensor.grid, [(0, (tensor.rows_a, tensor.rows_b))], epsilon))


@dataclass(frozen=True)
class PriorProbability:
    """Chance p of facing B1 (and 1-p of facing B2)."""

    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be in [0, 1], got {self.p!r}")


def _require_compatible(t1: PayoffTensor, t2: PayoffTensor) -> None:
    if t1.grid is not t2.grid and (
        t1.grid.source_steps != t2.grid.source_steps
        or not np.array_equal(t1.grid.angles, t2.grid.angles)
    ):
        raise ValueError("tensors built on different strategy grids")
    if t1.gamma != t2.gamma:
        raise ValueError(
            f"tensors built at different entanglement: {t1.gamma.gamma!r} vs {t2.gamma.gamma!r}"
        )


# Column pairs per step of A's column maxima. A step's scratch is a few
# (|S|, _COLUMN_BLOCK) float arrays, 0.47 MB each on the 1824 grid.
_COLUMN_BLOCK = 256


def _bayes_reduction(
    grid: StrategyGrid,
    tables: Sequence[np.ndarray],
    priors: Sequence[PriorProbability],
    epsilon: float,
) -> list[tuple[np.ndarray, ...]]:
    """All (a, b1, b2) triples where each player is a best response, for each prior in turn.

    `tables` are the whole orbit-row tables of game1 for A and B1, then
    of game2 for A and B2. Returns one column tuple (a_index, b1_index,
    b2_index, payoff_a, payoff_b1, payoff_b2) per prior, in lexicographic
    index order.

    B1 maximizes game1's B-payoff vs a and B2 game2's, independent of p;
    A maximizes the p-mixture p * game1 + (1-p) * game2. All of this runs
    on the orbit rows of the +-U class tables, with a standing for an
    orbit row and b1 and b2 for classes. Only triples whose b1 and b2 are
    both best responses to a are candidates: they are enumerated with
    array arithmetic in (a, b1, b2) order. A's condition,
    p*X[a, b1] + (1-p)*Y[a, b2] >= colmax(b1, b2) - epsilon, needs the
    column maximum over all classes only once per distinct (b1, b2) pair:
    the maximum over g of the rows' maximum at (g.b1, g.b2). Those row
    maxima are taken once per distinct image pair, in blocks of
    _COLUMN_BLOCK pairs, so their scratch is O(|S| * _COLUMN_BLOCK);
    the candidate arrays take O(number of candidate triples). `_expand`
    takes each accepted triple to the member triples of its class images
    (g.a, g.b1, g.b2), up to 8 per image, sorted once into lexicographic
    index order. B1's and B2's best-response cells, the candidate
    triples, their distinct (b1, b2) column pairs and the gathered payoff
    columns are built once for all priors; only each prior's accepted
    triples are expanded to member triples.
    """
    x, xb, y, yb = tables
    maps = grid.orbit_maps
    n = maps.shape[1]  # classes, not strategies
    rows1, cols1 = _best_responses(xb, epsilon)
    rows2, cols2 = _best_responses(yb, epsilon)
    # Candidate triples in (i, b1, b2) order, i an orbit row: each of B1's
    # cells (i, b1) is repeated once per b2 in B2's set for that i, and the
    # k-th repeat takes the k-th such b2. Both cell lists are row-major.
    count2 = np.bincount(rows2, minlength=len(xb))
    reps = count2[rows1]
    i = np.repeat(rows1, reps)
    b1 = np.repeat(cols1, reps)
    within = np.arange(len(i)) - np.repeat(np.cumsum(reps) - reps, reps)
    b2 = cols2[np.repeat((np.cumsum(count2) - count2)[rows1], reps) + within]
    del reps, within

    # A's column maxima max_a' p*X[a', b1] + (1-p)*Y[a', b2] over every class
    # a' are the maxima over g of the orbit rows' maxima at (g.b1, g.b2).
    # Those are taken once per distinct image pair and prior.
    pairs, column = np.unique(b1 * n + b2, return_inverse=True)
    images, image = np.unique((maps[:, pairs // n] * n + maps[:, pairs % n]).ravel(), return_inverse=True)
    u1, u2 = np.divmod(images, n)
    rowmax = np.empty((len(priors), len(images)))
    for start in range(0, len(images), _COLUMN_BLOCK):
        block = slice(start, start + _COLUMN_BLOCK)
        x_block, y_block = x[:, u1[block]], y[:, u2[block]]
        for k, prior in enumerate(priors):
            rowmax[k, block] = (prior.p * x_block + (1.0 - prior.p) * y_block).max(axis=0)
    colmax = rowmax[:, image.reshape(len(maps), len(pairs))].max(axis=1)

    x_cells, y_cells = x[i, b1], y[i, b2]
    out = []
    for k, prior in enumerate(priors):
        mixed = prior.p * x_cells + (1.0 - prior.p) * y_cells
        ok = np.nonzero(mixed >= (colmax[k] - epsilon)[column])[0]
        hit_i, hit_b1, hit_b2 = i[ok], b1[ok], b2[ok]
        payoffs = (mixed[ok], xb[hit_i, hit_b1], yb[hit_i, hit_b2])
        out.append(_expand(grid, hit_i, (hit_b1, hit_b2), payoffs))
    return out


def nash_bayesian(
    t1: PayoffTensor,
    t2: PayoffTensor,
    p: PriorProbability,
    epsilon: float = DEFAULT_EPSILON,
) -> list[NashEquilibrium]:
    """All (a, b1, b2) triples where each player is a best response, in
    lexicographic index order: `_bayes_reduction` of the tensors' tables at one prior."""
    _require_epsilon(epsilon)
    _require_compatible(t1, t2)
    tables = (t1.rows_a, t1.rows_b, t2.rows_a, t2.rows_b)
    return _equilibria(_bayes_reduction(t1.grid, tables, [p], epsilon)[0])
