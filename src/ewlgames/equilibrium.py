"""Payoff tensors over a strategy grid and pure-strategy Nash enumeration.

The payoff kernel `pairwise_payoffs` gives each strategy 10 gamma-free
rotation features, exactly the same for U and -U; each gamma builds only
one 10x10 matrix K per payoff vector from `circuit.entangler`. A tensor
row is player A's strategy index, a column player B's. Best responses
are argmax-with-ties sets (tolerance epsilon), and both reductions find
equilibria by one rule: list B's best-response cells, then keep those
where A's payoff is within epsilon of its column's maximum (for the
Bayesian A, of the p-mixed (b1, b2) column). The three-player Bayesian
composition mixes two tensors that share a grid and entanglement: player
A scores p * game1 + (1-p) * game2 while each B-type scores its own game
at full weight.

Both reductions run on the grid's +-U class tables, where every class is
scored once, and expand each class equilibrium to its member index
tuples; a partner's record carries its representative's payoffs.
Bayesian equilibria are found without a loop over A's strategies; see
`nash_bayesian` for the algorithm, its order and its memory.

The reductions produce columns: one member index array per player, then
one payoff array per player. Sweeps consume those columns directly;
`nash_two_player` and `nash_bayesian` are adapters that build
`NashEquilibrium` objects from them.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .circuit import EntanglementParam, GameDefinition, entangler
from .grid import StrategyGrid

# Payoff ties: far below any gap in integer-scale payoff tables, far above
# double rounding in two chained real products of inner dimension 10.
DEFAULT_EPSILON = 1e-9

# The Paulis (I, sx, sy, sz). Row mu * 4 + nu of _PAULI_FORM is conj(sigma_mu (x) sigma_nu)
# flattened, so _PAULI_FORM @ op.ravel() is Tr(op sigma_mu (x) sigma_nu), real for Hermitian op.
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI_FORM = np.einsum("pab,qcd->pqacbd", _PAULIS, _PAULIS).reshape(16, 16).conj()
# The flat positions mu' * 4 + mu where R_U[mu', mu] can be nonzero: (0, 0) and the 3x3 block.
_ROTATION = [0, 5, 6, 7, 9, 10, 11, 13, 14, 15]


def pairwise_payoffs(
    mats_a: np.ndarray,
    mats_b: np.ndarray,
    gamma: EntanglementParam,
    game: GameDefinition,
) -> tuple[np.ndarray, np.ndarray]:
    """Both players' expected payoffs for every strategy pairing.

    A payoff is Tr(Q (Ua (x) Ub) rho0 (Ua (x) Ub)^dag), with rho0 = J|00><00|J^dag
    and Q = J diag(w) J^dag for the player's payoff vector w. Conjugation by U
    rotates the Paulis, U sigma_mu U^dag = sum_mu' R_U[mu', mu] sigma_mu', with
    R_U[mu', mu] = 1/2 Tr(sigma_mu' U sigma_mu U^dag) real, R_U[0, 0] = 1 and
    zeros on the rest of row and column 0. With the Pauli forms
    r[mu, nu] = Tr(rho0 sigma_mu (x) sigma_nu) and q alike for Q,

        payoff(i, j) = 1/4 sum q[mu', nu'] r[mu, nu] R_i[mu', mu] R_j[nu', nu] = f_i^T K f_j

    for the 10 gamma-free rotation features f (R_U at (0, 0) and its 3x3
    block, identical for U and -U) and the 10x10 K = 1/4 kron(q, r) at those
    positions, built per gamma from `entangler`. Tests hold the kernel to the
    naive product path at 1e-12.

    Returns (payoff_a, payoff_b) as (len(mats_a), len(mats_b)) float arrays.
    """
    mats_a = np.asarray(mats_a, dtype=np.complex128)
    mats_b = np.asarray(mats_b, dtype=np.complex128)
    if mats_a.ndim != 3 or mats_a.shape[1:] != (2, 2) or mats_b.ndim != 3 or mats_b.shape[1:] != (2, 2):
        raise ValueError("strategy stacks must have shape (N, 2, 2)")

    def pauli_form(ops) -> np.ndarray:
        """Tr(op sigma_mu (x) sigma_nu) at flat mu * 4 + nu, for each 4x4 op in a stack."""
        return (ops.reshape(-1, 16) @ _PAULI_FORM.T).real

    # R_U[mu', mu] is 1/2 the Pauli form of V[(b, d), (a, c)] = U[b, c] conj(U[a, d]).
    feat_a, feat_b = (
        0.5 * pauli_form(np.einsum("nbc,nad->nbdac", m, m.conj()))[:, _ROTATION] for m in (mats_a, mats_b)
    )
    j = entangler(gamma)
    r = pauli_form(np.outer(j[:, 0], j[:, 0].conj())).reshape(4, 4)  # J|00> is J's first column

    def payoffs(pay) -> np.ndarray:
        q = pauli_form((j * np.asarray(pay, dtype=np.float64)) @ j.conj().T).reshape(4, 4)
        k = 0.25 * np.kron(q, r)[np.ix_(_ROTATION, _ROTATION)]
        return feat_a @ k @ feat_b.T

    return payoffs(game.payoff_a), payoffs(game.payoff_b)


@dataclass(frozen=True)
class PayoffTensor:
    """Both players' payoffs for one game at one entanglement.

    `class_a[c, d]` and `class_b[c, d]` score the grid's class pair (c, d);
    `payoff_a` and `payoff_b` expand them to the full |V| x |V| tables on
    each access.
    """

    game: GameDefinition
    gamma: EntanglementParam
    grid: StrategyGrid
    class_a: np.ndarray = field(repr=False)
    class_b: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.grid)

    @property
    def payoff_a(self) -> np.ndarray:
        return self.class_a[np.ix_(self.grid.classes, self.grid.classes)]

    @property
    def payoff_b(self) -> np.ndarray:
        return self.class_b[np.ix_(self.grid.classes, self.grid.classes)]


def payoff_tensor(
    game: GameDefinition,
    grid: StrategyGrid,
    gamma: EntanglementParam,
) -> PayoffTensor:
    """Tabulate both players' payoffs over every pairing of class representatives."""
    if len(grid) == 0:
        raise ValueError("empty strategy grid")
    reps = grid.matrices[grid.representatives]
    pa, pb = pairwise_payoffs(reps, reps, gamma, game)
    pa.setflags(write=False)
    pb.setflags(write=False)
    return PayoffTensor(game=game, gamma=gamma, grid=grid, class_a=pa, class_b=pb)


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

    One flat scan of the mask gives the same cells as a 2-D `np.nonzero`, faster.
    """
    mask = table >= table.max(axis=1, keepdims=True) - epsilon
    return np.divmod(np.flatnonzero(mask), table.shape[1])


def _expand(grid: StrategyGrid, class_tuples: Sequence[np.ndarray], payoffs: Sequence[np.ndarray]) -> tuple:
    """Every member index tuple of the given class tuples, in lexicographic order.

    `class_tuples` holds one class array per position, `payoffs` one array
    per player aligned with them. Returns the member index arrays, then the
    payoff arrays: each member tuple carries its class tuple's payoffs.
    """
    members = np.full((len(grid.representatives), 2), -1, dtype=np.intp)
    members[:, 0] = grid.representatives
    partners = np.nonzero(grid.representatives[grid.classes] != np.arange(len(grid)))[0]
    members[grid.classes[partners], 1] = partners
    parts, sources = [], []
    for slots in itertools.product((0, 1), repeat=len(class_tuples)):
        columns = [members[c, slot] for c, slot in zip(class_tuples, slots)]
        present = np.nonzero(np.logical_and.reduce([col >= 0 for col in columns]))[0]
        parts.append([col[present] for col in columns])
        sources.append(present)
    columns = [np.concatenate(col) for col in zip(*parts)]
    key = np.zeros(len(columns[0]), dtype=np.int64)
    for col in columns:
        key = key * len(grid) + col
    order = np.argsort(key)  # keys are distinct
    source = np.concatenate(sources)[order]
    return (*(col[order] for col in columns), *(pay[source] for pay in payoffs))


def _equilibria(columns: Sequence[np.ndarray]) -> list[NashEquilibrium]:
    """NashEquilibrium objects from index columns followed by as many payoff columns."""
    players = len(columns) // 2
    return [
        NashEquilibrium(strategy_indices=row[:players], payoffs=row[players:])
        for row in zip(*(c.tolist() for c in columns))
    ]


def _two_player_columns(tensor: PayoffTensor, epsilon: float) -> tuple[np.ndarray, ...]:
    """`nash_two_player` as columns (a_index, b_index, payoff_a, payoff_b)."""
    _require_epsilon(epsilon)
    pa, pb = tensor.class_a, tensor.class_b
    ca, cb = _best_responses(pb, epsilon)
    keep = pa[ca, cb] >= (pa.max(axis=0) - epsilon)[cb]
    ca, cb = ca[keep], cb[keep]
    return _expand(tensor.grid, (ca, cb), (pa[ca, cb], pb[ca, cb]))


def nash_two_player(tensor: PayoffTensor, epsilon: float = DEFAULT_EPSILON) -> list[NashEquilibrium]:
    """All (i, j) lying in both players' best-response sets, in index order.

    Only B's best-response class cells (a, b) are tested: one is kept when
    A's payoff there is within epsilon of A's column-b maximum. It expands
    to its up to 4 member pairs, which carry the class pair's payoffs.
    """
    return _equilibria(_two_player_columns(tensor, epsilon))


@dataclass(frozen=True)
class PriorProbability:
    """Chance p of facing B1 (and 1-p of facing B2)."""

    p: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.p) and 0.0 <= self.p <= 1.0):
            raise ValueError(f"p must be in [0, 1], got {self.p!r}")


def _require_compatible(t1: PayoffTensor, t2: PayoffTensor) -> None:
    if t1.grid is not t2.grid and (
        len(t1.grid) != len(t2.grid)
        or t1.grid.source_steps != t2.grid.source_steps
        or t1.grid.params != t2.grid.params
    ):
        raise ValueError("tensors built on different strategy grids")
    if t1.gamma != t2.gamma:
        raise ValueError(
            f"tensors built at different entanglement: {t1.gamma.gamma!r} vs {t2.gamma.gamma!r}"
        )


# Column pairs per step of A's column maxima. A step's scratch is a few
# (classes, _COLUMN_BLOCK) float arrays, 1.9 MB each on the 1824 grid.
_COLUMN_BLOCK = 256


def _bayes_equilibria(
    t1: PayoffTensor,
    t2: PayoffTensor,
    priors: Sequence[PriorProbability],
    epsilon: float,
) -> list[tuple[np.ndarray, ...]]:
    """`nash_bayesian` for each prior in turn, sharing the p-independent work.

    Returns one column tuple (a_index, b1_index, b2_index, payoff_a,
    payoff_b1, payoff_b2) per prior. B1's and B2's best-response cells, the
    candidate class triples, their distinct (b1, b2) column pairs and the
    gathered payoff columns are built once for all priors; only each
    prior's accepted class triples are expanded to member triples.
    """
    _require_epsilon(epsilon)
    _require_compatible(t1, t2)
    n = len(t1.class_a)  # classes, not strategies
    rows1, cols1 = _best_responses(t1.class_b, epsilon)
    rows2, cols2 = _best_responses(t2.class_b, epsilon)
    # Candidate triples in (a, b1, b2) order: each of B1's cells (a, b1) is
    # repeated once per b2 in B2's set for that a, and the k-th repeat
    # takes the k-th such b2. Both cell lists are row-major.
    count2 = np.bincount(rows2, minlength=n)
    reps = count2[rows1]
    a = np.repeat(rows1, reps)
    b1 = np.repeat(cols1, reps)
    within = np.arange(len(a)) - np.repeat(np.cumsum(reps) - reps, reps)
    b2 = cols2[np.repeat((np.cumsum(count2) - count2)[rows1], reps) + within]
    del reps, within

    # A's column maxima max_a' p*X[a', b1] + (1-p)*Y[a', b2], taken once per
    # distinct (b1, b2) pair and prior.
    pairs, column = np.unique(b1 * n + b2, return_inverse=True)
    u1, u2 = np.divmod(pairs, n)
    colmax = np.empty((len(priors), len(pairs)))
    for start in range(0, len(pairs), _COLUMN_BLOCK):
        block = slice(start, start + _COLUMN_BLOCK)
        xb, yb = t1.class_a[:, u1[block]], t2.class_a[:, u2[block]]
        for k, prior in enumerate(priors):
            colmax[k, block] = (prior.p * xb + (1.0 - prior.p) * yb).max(axis=0)

    x, y = t1.class_a[a, b1], t2.class_a[a, b2]
    out = []
    for k, prior in enumerate(priors):
        mixed = prior.p * x + (1.0 - prior.p) * y
        ok = np.nonzero(mixed >= (colmax[k] - epsilon)[column])[0]
        hit_a, hit_b1, hit_b2 = a[ok], b1[ok], b2[ok]
        payoffs = (mixed[ok], t1.class_b[hit_a, hit_b1], t2.class_b[hit_a, hit_b2])
        out.append(_expand(t1.grid, (hit_a, hit_b1, hit_b2), payoffs))
    return out


def nash_bayesian(
    t1: PayoffTensor,
    t2: PayoffTensor,
    p: PriorProbability,
    epsilon: float = DEFAULT_EPSILON,
) -> list[NashEquilibrium]:
    """All (a, b1, b2) triples where each player is a best response, in
    lexicographic index order.

    B1 maximizes game1's B-payoff vs a and B2 game2's, independent of p;
    A maximizes the p-mixture p * game1 + (1-p) * game2. All of this runs
    on the +-U class tables, with a, b1 and b2 standing for classes. Only
    triples whose b1 and b2 are both best responses to a are candidates:
    they are enumerated with array arithmetic in (a, b1, b2) order. A's
    condition, p*X[a, b1] + (1-p)*Y[a, b2] >= colmax(b1, b2) - epsilon,
    needs the column maximum over all a' only once per distinct (b1, b2)
    pair. Those maxima are taken in blocks of _COLUMN_BLOCK pairs, so their
    scratch is O(classes * _COLUMN_BLOCK); the candidate arrays take
    O(number of candidate class triples). Each accepted class triple
    expands to its up to 8 member triples, sorted once into lexicographic
    index order. `bayes_sweep` shares all of the p-independent work across
    the priors of one gamma.
    """
    return _equilibria(_bayes_equilibria(t1, t2, [p], epsilon)[0])
