"""Payoff tables over a strategy grid and pure-strategy Nash enumeration.

The payoff kernel scores a strategy pair as f_a @ K @ f_b.T: the grid's
10 gamma-free rotation features per class (`StrategyGrid.features`,
computed by `build_grid`) around each player's 10x10 form K, which each
gamma builds from `circuit.payoff_forms`. A table row is player A's
strategy index, a column player B's. Best responses are argmax-with-ties
sets (tolerance epsilon). One reduction (`_reduction`) finds equilibria
by one rule for every caller: list each B type's best-response cells,
take the candidate tuples (a, b1, ...) whose every b is a best response
of its type to a, then keep those where A's payoff, weighted over the
types, is within epsilon of the maximum of A's weighted column. A
two-player game is the one-type case at weight 1.0; the three-player
Bayesian composition has two B types at weights (p, 1 - p), so player A
scores p * game1 + (1-p) * game2 while each B type scores its own game at
full weight.

The reduction runs on the orbit rows of the grid's +-U class tables.
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

One function, `_tables`, is the kernel for every caller: it builds,
fills and folds the tables. It builds once what no gamma changes (the
orbit rows' features, the transposed features, each block's LR-fixed
rows and one buffer per game, as tall as the tallest block) and
yields two passes per gamma into the buffers, each writing
and folding one block of orbit rows at a time: B's pass writes each
type's table, then A's pass each game's A table, so every table is
computed once. The reduction keeps each type's best-response cells,
with their B payoffs, from the first pass and builds the candidate
tuples from them; the second pass gathers A's payoffs at each block's
candidates and takes A's column maxima, by the step the games' type
count selects: a running maximum over every column for one type, or
running maxima per prior and image pair (g.b1, g.b2) for two. The
two-type step mixes a block's image columns a chunk at a time in four
scratch arrays of _ROW_BLOCK bytes together, allocated once per
reduction. Both sweeps pass `_row_blocks` of about _ROW_BLOCK bytes,
small enough that a block stays in cache while it is reduced, so no
sweep holds a whole table. The 10-column product of the orbit rows'
features with K is taken over all rows at once, every block of the
second product has 2 rows or more, each mixture entry is the same float
expression, and a maximum is exact in any order, so every path gives
the same bits under OpenBLAS's SkylakeX dgemm kernel; under its Haswell
kernel some block entries differ by an ulp (ROADMAP item 18).

B's best responses (`_best_responses`) come from each row's argmax and
runner-up: the row's top cell is set to -inf while a second argmax pass
finds the runner-up, then written back. When every row's runner-up is
below top - epsilon, each row's argmax is its single best response, at
the top payoff already read; a block where some row ties takes the
compare with top - epsilon on every row. B's tables must be writable,
and each comes back bit for bit.

The reduction produces columns: one member index array per player, then
one payoff array per player, and the sweeps consume them directly.

`PayoffTensor`, `payoff_tensor`, `NashEquilibrium`, `nash_two_player` and
`nash_bayesian` are adapters that only the benchmark's traced mirror
(`perfbench/traced.py`) calls; they stay until ROADMAP item 1 moves that
mirror onto the sweeps. A `payoff_tensor` is one step of `_tables` with
a buffer of its own, read-only, and B's table copied out of it before
A's pass; the two `nash_*` adapters run the reduction on tensors' whole
tables, B's as writable copies.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .circuit import EntanglementParam, GameDefinition, _blocks, payoff_forms
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


# Bytes of one table block in a sweep, written by B's pass and then A's
# into one buffer per game, which stays in a 2 MiB L2 cache while the
# reduction reads it; also the bytes of the two-type A step's four scratch
# arrays together. On 2 vCPUs with 2 MiB of L2 each, gamma_sweep of the
# prisoner's dilemma on the 1824 grid at 65 gammas took within 7 % of its
# 512 KiB time from 384 KiB to 1 MiB, 13 % longer at 2 MiB (one block)
# and 52 % longer at 128 KiB (14 blocks).
# The 1824 grid's 232 x 912 orbit rows come in blocks of 71, the 7968
# grid's 1000 x 3984 in blocks of 16.
_ROW_BLOCK = 512 << 10


def _row_blocks(rows: int, classes: int) -> list[tuple[int, int]]:
    """(start, stop) bounds of consecutive blocks of orbit rows, _ROW_BLOCK bytes of a table each.

    At 512 KiB a block fits in a 2 MiB L2 cache, so the reduction reads
    it from cache. Every block has at least 2 rows, and a 1-row tail
    joins the block before it (`circuit._blocks`), which may then exceed
    _ROW_BLOCK by one row. Blocks of 2 rows or more give the whole
    product's bits under OpenBLAS's SkylakeX dgemm kernel, but not under
    its Haswell kernel (ROADMAP item 18).
    """
    return _blocks(rows, max(2, _ROW_BLOCK // max(8 * classes, 1)))  # an empty grid has no classes


def _tables(
    games: Sequence[GameDefinition],
    grid: StrategyGrid,
    gammas: Iterable[EntanglementParam],
    blocks: Sequence[tuple[int, int]],
) -> Iterator[list[Iterator[tuple[int, list[np.ndarray]]]]]:
    """Each gamma's two passes over `blocks` of the tables f_S @ K @ f.T, B's then A's, into one buffer per game.

    The first step builds what no gamma changes: the orbit rows' features
    f_S, the transposed features f.T, each block's LR-fixed rows and one
    buffer per game, as tall as the tallest block, so a sweep does not
    fault in fresh pages at each point. The fold positions are not kept:
    each fixed row is folded through `moved` and `lr[moved]`, which every
    row shares, so the set-up's memory does not grow with fixed rows
    times moved columns. Each gamma then takes the 10-column
    products f_S @ K over all orbit rows at once, since splitting them
    changes their bits, and yields (B's pass, A's pass). A pass writes
    and folds one block of every game's table at a time and yields
    (start, [rows per game]): views of the buffers, valid only until the
    pass resumes, and A's pass overwrites what B's wrote, so B's pass
    must be finished first. Copy what must outlive that.

    An orbit row that a map g fixes is folded onto one value per column
    pair {b, g.b}, row[b] = row[min(b, g.b)], so that every expanded
    entry is well defined bit for bit. Only LR can fix a class, since
    i*sigma_z U = +-U has no solution, so the folds copy each LR-fixed
    row's entries (row, LR.b) to (row, b) for the columns b with LR.b < b.
    On a grid with G = {e}, `orbit_maps[-1]` is e, which moves no column,
    so nothing is folded.
    """
    if len(grid) == 0:
        raise ValueError("empty strategy grid")
    orbit_rows = grid.orbit_images[0]
    orbit_features = grid.features[orbit_rows]
    # build_grid's features are Fortran-ordered, so their transpose is
    # C-contiguous and this costs no copy. Every block's GEMM reads it: with
    # C-ordered features and f.T used as it is, gamma_sweep of the
    # prisoner's dilemma on the 1824 grid at 65 gammas took 48.3 ms against
    # 41.0 ms, and one gamma on the 7968 grid 13.2 ms against 10.0 ms
    # (medians of 15 rounds, 2 vCPUs, one BLAS thread).
    columns = np.ascontiguousarray(grid.features.T)
    n = len(grid.features)
    lr = grid.orbit_maps[-1]
    moved = np.flatnonzero(lr < np.arange(n))
    sources = lr[moved]
    # Each block's LR-fixed rows, counted from its start: none where LR moves no column.
    fixed = np.flatnonzero(lr[orbit_rows] == orbit_rows) if len(moved) else moved
    folded = [(fixed[(fixed >= start) & (fixed < stop)] - start).tolist() for start, stop in blocks]
    height = max(stop - start for start, stop in blocks)
    buffers = [np.empty((height, n)) for _ in games]

    def fill(products: list[np.ndarray]) -> Iterator[tuple[int, list[np.ndarray]]]:
        for (start, stop), rows in zip(blocks, folded):
            tables = [buffer[: stop - start] for buffer in buffers]
            for table, product in zip(tables, products):
                np.matmul(product[start:stop], columns, out=table)
                # Row by row through a view, so no positions are kept: flat (to,
                # source) positions for every block took 16.3 MB on the 127104 grid.
                # For PD on the 1824 grid at 65 gammas the row folds cost the 20 ms
                # of table passes 0.35 ms more than one copy per block through those
                # positions (median of 100 paired rounds); the 2-D assignment
                # table[rows, moved] = table[rows, lr[moved]] took the whole sweep
                # 44.6 ms against 40.7 ms.
                for row in rows:
                    entries = table[row]
                    entries[moved] = entries[sources]
            yield start, tables

    for gamma in gammas:
        forms = [payoff_forms(gamma, game) for game in games]
        yield [fill([orbit_features @ k[player] for k in forms]) for player in (1, 0)]


def payoff_tensor(
    game: GameDefinition,
    grid: StrategyGrid,
    gamma: EntanglementParam,
) -> PayoffTensor:
    """Tabulate both players' payoffs of each orbit row against every class.

    One step of the sweeps' `_tables`, as one block of every orbit row,
    with a buffer allocated for this call alone: B's table is copied out
    of it before A's pass, no other call ever writes the tensor's tables,
    and they are read-only.
    """
    b_pass, a_pass = next(_tables((game,), grid, (gamma,), [(0, len(grid.orbit_images[0]))]))
    rows_b = next(b_pass)[1][0].copy()
    rows_a = next(a_pass)[1][0]
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


def _best_responses(table: np.ndarray, start: int, epsilon: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A block's B best responses: rows counted from `start`, columns and payoffs, row-major.

    The cells are those of `table >= table.max(axis=1, keepdims=True) -
    epsilon`, found without that compare when no row ties: on a 71 x 912
    block it took 26.5 us, and the two argmax passes below 14 us (numpy
    2.4.6, 2 vCPUs). The first pass finds each row's top cell. Those cells
    are set to -inf, the second pass finds each row's runner-up, and the
    top values are written back, so the table comes back bit for bit as
    it was; a read-only table raises. When every row's runner-up is below
    top - epsilon, each row's argmax is its single best response, at the
    top value already read. Otherwise the whole table takes the compare,
    one flat scan of its mask gives the cells of a 2-D `np.nonzero`,
    faster, and their payoffs are gathered.
    """
    rows, n = table.shape
    index = np.arange(rows, dtype=np.intp)
    starts = index * n  # flat positions, which take and put read in C order for any layout
    best = table.argmax(axis=1)
    at = starts + best
    top = table.take(at)
    table.put(at, -np.inf)
    runner_up = table.take(starts + table.argmax(axis=1))
    table.put(at, top)
    threshold = top - epsilon
    if not (runner_up >= threshold).any():
        return index + start, best, top
    rows, cols = np.divmod(np.flatnonzero(table >= threshold[:, None]), n)
    return rows + start, cols, table[rows, cols]


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


@dataclass(frozen=True)
class PriorProbability:
    """Chance p of facing B1 (and 1-p of facing B2)."""

    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be in [0, 1], got {self.p!r}")


def _reduction(
    grid: StrategyGrid,
    passes: Sequence[Iterable[tuple[int, Sequence[np.ndarray]]]],
    weights: Sequence[tuple[float, ...]],
    epsilon: float,
) -> list[tuple[np.ndarray, ...]]:
    """The equilibria of one gamma's tables, one column tuple per tuple of type weights.

    `passes` is (B's pass, A's pass) as `_tables` yields them: each
    yields (start, tables) for consecutive blocks of orbit rows that
    together cover them all, one table per game. B type t plays game t's
    B table, so the games, not the weights, give the type count. A
    scores (a, b1, b2) as w[0] * A_1[a, b1] + w[1] * A_2[a, b2] at each
    weight tuple w; a lone type's weight is 1.0, and A scores (a, b) on
    its own table. Each column tuple is (a_index, one b_index per type,
    payoff_a, one payoff_b per type), in lexicographic index order.

    B's pass keeps each type's best-response cells with their B payoffs.
    The candidate tuples, in (i, b1, ...) order for orbit rows i, repeat
    each cell (i, b1) of the first type, with its payoff, once per cell
    (i, b2) of the next type, the k-th repeat taking the k-th such b2
    and its payoff; with one type they are its cells. A's pass gathers
    A's payoffs at each block's candidates and takes the rows' column
    maxima. A candidate stays when its weighted payoff is within epsilon
    of the maximum of its weighted column over every class: the maximum
    over g of the rows' maxima at (g.b1, ...). With one type that is a
    running maximum over every column: gathering image columns instead
    took PD on the 1824 grid at 65 gammas from 41 to 73 ms. With two it
    is a running maximum per distinct image pair (g.b1, g.b2) and weight
    tuple (`_mixed_maxima`), over `width` image columns at a time: four
    scratch arrays of the tallest block's rows by `width` floats hold
    X's and Y's gathered columns, p * X and q * Y, and take _ROW_BLOCK
    bytes together, so the step makes no fresh table-sized temporaries.
    The scratch is allocated once per reduction and freed with every
    view of it before `_expand`. All but each weight tuple's accepted
    cells is built once for all of them. The candidates are freed
    before `_expand` takes the accepted cells to member tuples, and
    each tuple's accepted cells once they are expanded.
    """
    b_pass, a_pass = passes
    maps = grid.orbit_maps
    n = maps.shape[1]  # classes, not strategies
    height, found = 0, []  # the tallest block's rows; per block, per type: its cells
    for start, tables in b_pass:
        height = max(height, len(tables[0]))
        found.append([_best_responses(table, start, epsilon) for table in tables])
    # per type: its cells' rows, columns and B payoffs, every block joined
    cells = [[np.concatenate(p) for p in zip(*per_type)] for per_type in zip(*found)]
    i, b, b_payoffs = cells[0][0], cells[0][1:2], cells[0][2:]
    for rows_t, cols_t, pays_t in cells[1:]:
        count = np.bincount(rows_t, minlength=len(grid.orbit_images[0]))
        reps = count[i]
        at = np.repeat((np.cumsum(count) - count)[i], reps)
        at += np.arange(len(at)) - np.repeat(np.cumsum(reps) - reps, reps)
        i, b = np.repeat(i, reps), [*(np.repeat(col, reps) for col in b), cols_t[at]]
        b_payoffs = [*(np.repeat(pay, reps) for pay in b_payoffs), pays_t[at]]
        del count, reps, at
    del found, cells

    if len(b) == 1:  # every column
        rowmax = np.full(n, -np.inf)
    else:
        pairs, column = np.unique(b[0] * n + b[1], return_inverse=True)
        images, image = np.unique((maps[:, pairs // n] * n + maps[:, pairs % n]).ravel(), return_inverse=True)
        u1, u2 = np.divmod(images, n)
        rowmax = np.full((len(weights), len(u1)), -np.inf)
        width = max(1, min(len(u1), _ROW_BLOCK // (32 * height)))  # 4 arrays of 8-byte floats
        scratch = np.empty((4, height * width))
        del pairs, images
    parts = []  # per block, per type: A's payoffs at the block's candidates
    for start, tables in a_pass:
        if len(b) == 1:
            np.maximum(rowmax, tables[0].max(axis=0), out=rowmax)
        else:
            _mixed_maxima(tables, u1, u2, weights, rowmax, scratch, width)
        lo, hi = i.searchsorted((start, start + len(tables[0])))
        parts.append([table[i[lo:hi] - start, col[lo:hi]] for table, col in zip(tables, b)])
    a_payoffs = [np.concatenate(p) for p in zip(*parts)]
    del parts
    if len(b) == 1:
        column, colmax = b[0], [rowmax[maps].max(axis=0)] * len(weights)
    else:
        del scratch
        colmax = rowmax[:, image.reshape(len(maps), -1)].max(axis=1)

    accepted = []
    for w, top in zip(weights, colmax):
        mixed = a_payoffs[0] if len(b) == 1 else w[0] * a_payoffs[0] + w[1] * a_payoffs[1]
        ok = np.flatnonzero(mixed >= (top - epsilon)[column])
        accepted.append((i[ok], [col[ok] for col in b], [mixed[ok], *(pay[ok] for pay in b_payoffs)]))
        del mixed, ok
    del i, b, b_payoffs, a_payoffs, column  # the candidates: only the accepted cells are expanded
    return [_expand(grid, *accepted.pop(0)) for _ in weights]  # each freed once it is expanded


def _mixed_maxima(
    tables: Sequence[np.ndarray],
    u1: np.ndarray,
    u2: np.ndarray,
    weights: Sequence[tuple[float, ...]],
    rowmax: np.ndarray,
    scratch: np.ndarray,
    width: int,
) -> None:
    """Raise rowmax[k, j] to the block's maximum of p * X[:, u1[j]] + q * Y[:, u2[j]] at (p, q) = weights[k].

    X and Y are the block's two A tables. The image columns come `width`
    at a time: X's and Y's are gathered into the first two rows of
    `scratch`, which hold a block's rows times `width` floats each, and
    every weight tuple mixes them into the other two, p * X, then q * Y,
    then their sum, the same float operations as the expression. Every
    view of `scratch` dies with this call.
    """
    rows = len(tables[0])
    for first in range(0, len(u1), width):
        chunk = slice(first, first + width)
        x, y, mixed, other = (s[: rows * len(u1[chunk])].reshape(rows, -1) for s in scratch)
        # mode "raise" would gather into a fresh copy of `out`; the indices are valid, so "clip" changes nothing
        np.take(tables[0], u1[chunk], axis=1, out=x, mode="clip")
        np.take(tables[1], u2[chunk], axis=1, out=y, mode="clip")
        for top, (p, q) in zip(rowmax[:, chunk], weights):
            np.multiply(p, x, out=mixed)
            np.multiply(q, y, out=other)
            mixed += other
            np.maximum(top, mixed.max(axis=0), out=top)


def _nash(tensors: Sequence[PayoffTensor], weights: tuple[float, ...], epsilon: float) -> list[NashEquilibrium]:
    """The reduction of the tensors' whole tables as one block, B's as writable copies, one B type per
    tensor, at one weight tuple, as NashEquilibrium objects."""
    _require_epsilon(epsilon)
    grid, gamma = tensors[0].grid, tensors[0].gamma
    for t in tensors[1:]:
        if t.grid is not grid and (
            t.grid.source_steps != grid.source_steps or not np.array_equal(t.grid.angles, grid.angles)
        ):
            raise ValueError("tensors built on different strategy grids")
        if t.gamma != gamma:
            raise ValueError(f"tensors built at different entanglement: {gamma.gamma!r} vs {t.gamma.gamma!r}")
    passes = ([(0, [t.rows_b.copy() for t in tensors])], [(0, [t.rows_a for t in tensors])])
    (columns,) = _reduction(grid, passes, [weights], epsilon)
    players = len(columns) // 2
    return [NashEquilibrium(row[:players], row[players:]) for row in zip(*(c.tolist() for c in columns))]


def nash_two_player(tensor: PayoffTensor, epsilon: float = DEFAULT_EPSILON) -> list[NashEquilibrium]:
    """All (i, j) lying in both players' best-response sets, in index order."""
    return _nash([tensor], (1.0,), epsilon)


def nash_bayesian(
    t1: PayoffTensor,
    t2: PayoffTensor,
    p: PriorProbability,
    epsilon: float = DEFAULT_EPSILON,
) -> list[NashEquilibrium]:
    """All (a, b1, b2) triples where each player is a best response, in
    lexicographic index order, at one prior."""
    return _nash([t1, t2], (p.p, 1.0 - p.p), epsilon)
