"""Payoff tensors over a strategy grid and pure-strategy Nash enumeration.

A tensor row is player A's strategy index, a column player B's. Best
responses are argmax-with-ties sets (tolerance epsilon); equilibria are
the row/column intersections of those sets. The three-player Bayesian
composition mixes two tensors that share a grid and entanglement: player
A scores p * game1 + (1-p) * game2 while each B-type scores its own game
at full weight.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import PAULI_X, EntanglementParam, GameDefinition
from .grid import StrategyGrid

# Payoff ties: far below any gap in integer-scale payoff tables, far above
# double rounding in <=4 chained 4x4 products.
DEFAULT_EPSILON = 1e-9


def pairwise_payoffs(
    mats_a: np.ndarray,
    mats_b: np.ndarray,
    gamma: EntanglementParam,
    game: GameDefinition,
) -> tuple[np.ndarray, np.ndarray]:
    """Both players' expected payoffs for every strategy pairing.

    With C = diag(c, i s) for c=cos(g/2), s=sin(g/2), the final-state
    amplitudes for the pair (Ua_i, Ub_j), read as a 2x2 array
    Psi[a_bit, b_bit], are

        Psi = c * S - i s * (sx S sx),   S = Ua_i C Ub_j^T,

    i.e. Psi[a, b] = sum_m L_i[a, m] R_j[b, m] with the 2x4 blocks
    L_i = [c*Ua_i*C | -i s*sx*Ua_i*C] and R_j = [Ub_j | sx*Ub_j]. Hence

        |Psi[a, b]|^2 = sum_{m,m'} F_i[a, m, m'] G_j[b, m, m']

    for the outer products F_i[a, m, m'] = L_i[a, m] conj(L_i[a, m']) and
    G_j[b, m, m'] = R_j[b, m] conj(R_j[b, m']), and a payoff table w[a, b]
    scores payoff(i, j) = Re sum_{a,m,m'} F_i[a, m, m'] H_j[a, m, m'] with
    H_j[a] = sum_b w[a, b] G_j[b]. As 64 real features per strategy,
    f_i = [Re F_i, -Im F_i] and h_j = [Re H_j, Im H_j], each player's
    whole table is the one real matrix product f @ h^T. Agreement with the
    naive product path is enforced by tests at 1e-12.

    Returns (payoff_a, payoff_b) as (len(mats_a), len(mats_b)) float arrays.
    """
    mats_a = np.asarray(mats_a, dtype=np.complex128)
    mats_b = np.asarray(mats_b, dtype=np.complex128)
    if mats_a.ndim != 3 or mats_a.shape[1:] != (2, 2) or mats_b.ndim != 3 or mats_b.shape[1:] != (2, 2):
        raise ValueError("strategy stacks must have shape (N, 2, 2)")
    na, nb = mats_a.shape[0], mats_b.shape[0]
    c = math.cos(gamma.gamma / 2.0)
    s = math.sin(gamma.gamma / 2.0)

    # L[i] = [c * Ua_i C | -i s * sx Ua_i C]  (2x4 per strategy)
    ac = mats_a * np.array([c, 1j * s])  # right-multiply by diag(c, i s)
    left = np.concatenate([c * ac, -1j * s * (PAULI_X @ ac)], axis=2)
    # R[j] = [Ub_j | sx Ub_j]
    right = np.concatenate([mats_b, PAULI_X @ mats_b], axis=2)

    outer_left = left[:, :, :, None] * left[:, :, None, :].conj()  # F: (na, 2, 4, 4)
    outer_right = right[:, :, :, None] * right[:, :, None, :].conj()  # G: (nb, 2, 4, 4)
    feat_a = np.stack([outer_left.real, -outer_left.imag], axis=1).reshape(na, 64)

    def payoffs(pay) -> np.ndarray:
        weights = np.asarray(pay, dtype=np.float64).reshape(2, 2)
        hermit = np.einsum("ab,jbmn->jamn", weights, outer_right)  # H: (nb, 2, 4, 4)
        feat_b = np.stack([hermit.real, hermit.imag], axis=1).reshape(nb, 64)
        return feat_a @ feat_b.T

    return payoffs(game.payoff_a), payoffs(game.payoff_b)


@dataclass(frozen=True)
class PayoffTensor:
    """Complete |V| x |V| payoff table for one game at one entanglement."""

    game: GameDefinition
    gamma: EntanglementParam
    grid: StrategyGrid
    payoff_a: np.ndarray = field(repr=False)
    payoff_b: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return self.payoff_a.shape[0]


def payoff_tensor(
    game: GameDefinition,
    grid: StrategyGrid,
    gamma: EntanglementParam,
) -> PayoffTensor:
    """Tabulate both players' payoffs over every grid pairing."""
    if len(grid) == 0:
        raise ValueError("empty strategy grid")
    pa, pb = pairwise_payoffs(grid.matrices, grid.matrices, gamma, game)
    pa.setflags(write=False)
    pb.setflags(write=False)
    return PayoffTensor(game=game, gamma=gamma, grid=grid, payoff_a=pa, payoff_b=pb)


@dataclass(frozen=True)
class NashEquilibrium:
    """A mutually-best strategy profile: 2 indices, or 3 as (A, B1, B2)."""

    strategy_indices: tuple[int, ...]
    payoffs: tuple[float, ...]


def _require_epsilon(epsilon: float) -> None:
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon!r}")


def nash_two_player(tensor: PayoffTensor, epsilon: float = DEFAULT_EPSILON) -> list[NashEquilibrium]:
    """All (i, j) lying in both players' best-response sets, in index order."""
    _require_epsilon(epsilon)
    a_best = tensor.payoff_a >= tensor.payoff_a.max(axis=0, keepdims=True) - epsilon
    b_best = tensor.payoff_b >= tensor.payoff_b.max(axis=1, keepdims=True) - epsilon
    pairs = np.argwhere(a_best & b_best)  # argwhere is already lexicographic
    return [
        NashEquilibrium(
            strategy_indices=(int(i), int(j)),
            payoffs=(float(tensor.payoff_a[i, j]), float(tensor.payoff_b[i, j])),
        )
        for i, j in pairs
    ]


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


def nash_bayesian(
    t1: PayoffTensor,
    t2: PayoffTensor,
    p: PriorProbability,
    epsilon: float = DEFAULT_EPSILON,
) -> list[NashEquilibrium]:
    """All (a, b1, b2) triples where each player is a best response.

    B1 maximizes game1's B-payoff vs a and B2 game2's, independent of p;
    A maximizes the p-mixture. For each a only the product of the two
    B-best sets needs A's condition checked.
    """
    _require_epsilon(epsilon)
    _require_compatible(t1, t2)
    n = len(t1)
    ga = p.p * t1.payoff_a
    ha = (1.0 - p.p) * t2.payoff_a
    b1_best = t1.payoff_b >= t1.payoff_b.max(axis=1, keepdims=True) - epsilon
    b2_best = t2.payoff_b >= t2.payoff_b.max(axis=1, keepdims=True) - epsilon

    out = []
    for a in range(n):
        cand1 = np.nonzero(b1_best[a])[0]
        cand2 = np.nonzero(b2_best[a])[0]
        # mix[a', b1, b2] over the candidate product; A's check needs the
        # column max over all a'.
        mix = ga[:, cand1][:, :, None] + ha[:, cand2][:, None, :]
        ok = np.argwhere(mix[a] >= mix.max(axis=0) - epsilon)
        for k1, k2 in ok:
            b1, b2 = int(cand1[k1]), int(cand2[k2])
            out.append(
                NashEquilibrium(
                    strategy_indices=(a, b1, b2),
                    payoffs=(
                        float(ga[a, b1] + ha[a, b2]),
                        float(t1.payoff_b[a, b1]),
                        float(t2.payoff_b[a, b2]),
                    ),
                )
            )
    return out
