"""Discretized strategy sets: every (j*dt, k*dp, l*da) triple in bounds,
with entrywise-duplicate matrices removed, split into +-U classes.

Duplicates arise because phi and alpha wrap at 2pi, alpha is inert at
theta=0 and phi is inert at theta=pi. Deduplication is greedy: in
lexicographic (theta, phi, alpha) order, a candidate is dropped when it
equals an earlier kept one entrywise within DEDUP_TOL, so the first kept
triple wins even where the match is not transitive (near theta=pi).
Matrices that differ only by a global phase are distinct entries on
purpose: they count as separate strategy choices.

Every U has determinant 1, so the only global phase that maps it onto
another grid matrix is -1: U(theta, phi+pi, alpha+pi) = -U. Payoffs depend
on |psi|^2 only, so U and -U score identically, and the pair forms a
class of at most two members. The payoff kernel and the Nash reductions
score each class once, through its lower-index representative; every
stored matrix is the strategy's own `strategy_matrix`, so a partner's is
the representative's negation within DEDUP_TOL. A strategy whose negation
is not on the grid (pi is not a multiple of the phi or alpha step), or
whose first negation already has a partner, is a class of its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import TWO_PI, StrategyParams, _rotation_entries

DEDUP_TOL = 1e-9

# Multiples that overshoot their bound by float noise are still admitted
# and clamped back onto it.
_STEP_SLACK = 1e-9


@dataclass(frozen=True)
class SteppingParams:
    """Positive step sizes; each must fit at least once into its interval."""

    d_theta: float
    d_phi: float
    d_alpha: float

    def __post_init__(self) -> None:
        for name, step, bound in (
            ("d_theta", self.d_theta, math.pi),
            ("d_phi", self.d_phi, TWO_PI),
            ("d_alpha", self.d_alpha, TWO_PI),
        ):
            if not (math.isfinite(step) and 0.0 < step <= bound):
                raise ValueError(f"{name} must be in (0, {bound:g}], got {step!r}")

    def astuple(self) -> tuple[float, float, float]:
        return (self.d_theta, self.d_phi, self.d_alpha)


@dataclass(frozen=True)
class StrategyGrid:
    """Deduplicated, lexicographically ordered strategy set.

    `params[i]` is the representative triple for `matrices[i]`; the
    matrix stack is a read-only (N, 2, 2) complex array. `classes[i]` is
    strategy i's +-U class and `representatives[c]` the lowest index in
    class c, increasing in c. `matrices[i]` is `strategy_matrix(params[i])`
    bit for bit, so a partner's matrix is its representative's negation
    within DEDUP_TOL. Each class is scored once, through its
    representative, and a partner carries exactly the representative's
    payoffs.
    """

    params: tuple[StrategyParams, ...]
    matrices: np.ndarray = field(repr=False)
    source_steps: SteppingParams
    classes: np.ndarray = field(repr=False)
    representatives: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.params)


def _multiples(step: float, bound: float) -> list[float]:
    count = int(math.floor(bound / step + _STEP_SLACK)) + 1
    values = []
    for j in range(count):
        v = j * step
        values.append(bound if v > bound else v)
    return values


def _axis_matches(pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Greedy keep mask and first kept negation along one angle axis.

    `pairs` is (thetas, values, 2): the two U entries that depend on this
    axis only. Per theta, value k is kept when no earlier kept value
    matches both its entries within DEDUP_TOL. `twin[t, k]` is the first
    kept value whose entries match the negations of k's, or -1.
    """
    keep = np.ones(pairs.shape[:2], dtype=bool)
    twin = np.full(pairs.shape[:2], -1, dtype=np.intp)
    for k in range(pairs.shape[1]):  # keep[:, k] is final from here on
        kept = keep[:, k, None]
        same = np.abs(pairs[:, k + 1:] - pairs[:, k, None]).max(axis=2) <= DEDUP_TOL
        keep[:, k + 1:] &= ~(same & kept)
        negated = np.abs(pairs + pairs[:, k, None]).max(axis=2) <= DEDUP_TOL
        twin[negated & kept & (twin < 0)] = k
    return keep, twin


def build_grid(steps: SteppingParams) -> StrategyGrid:
    """Enumerate all in-bounds step multiples, drop duplicate matrices and
    pair each strategy with its negation.

    Candidates are generated in lexicographic (theta, phi, alpha) order,
    including the interval endpoints when they are exact multiples.
    Duplicates and negations only ever share a theta value (distinct theta
    multiples separate by ~step/2 in the off-diagonal magnitude, far above
    DEDUP_TOL). At one theta, U's diagonal depends on phi only and its
    off-diagonal on alpha only, so two matrices match (or negate) within
    DEDUP_TOL exactly when their phis do and their alphas do. The greedy
    rule therefore keeps (phi, alpha) exactly when the same rule keeps phi
    along the phi axis and alpha along the alpha axis. A strategy's first
    earlier kept negation is the pair of its per-axis first kept negations,
    if that pair comes earlier; the strategy joins its class only if it is
    a representative with no partner yet.
    """
    thetas = _multiples(steps.d_theta, math.pi)
    phis = _multiples(steps.d_phi, TWO_PI)
    alphas = _multiples(steps.d_alpha, TWO_PI)

    c = np.array([[math.cos(t / 2.0)] for t in thetas])
    s = np.array([[math.sin(t / 2.0)] for t in thetas])
    diagonal, off_diagonal = (
        np.stack(entries, axis=-1) for entries in _rotation_entries(c, s, np.array(phis), np.array(alphas))
    )
    keep_phi, twin_phi = _axis_matches(diagonal)
    keep_alpha, twin_alpha = _axis_matches(off_diagonal)

    kept = keep_phi[:, :, None] & keep_alpha[:, None, :]
    t, k, a = np.nonzero(kept)  # lexicographic order
    index = np.full(kept.shape, -1, dtype=np.intp)
    index[t, k, a] = np.arange(len(t))
    tk, ta = twin_phi[t, k], twin_alpha[t, a]
    paired = np.nonzero((tk >= 0) & (ta >= 0) & ((tk < k) | ((tk == k) & (ta < a))))[0]
    rep = np.arange(len(t))
    used: set[int] = set()  # partners and the representatives they joined
    for j, i in zip(paired.tolist(), index[t[paired], tk[paired], ta[paired]].tolist()):
        if i not in used:
            used.update((i, j))
            rep[j] = i

    is_rep = rep == np.arange(len(t))
    matrices = np.empty((len(t), 2, 2), dtype=np.complex128)
    matrices[:, [0, 1], [0, 1]] = diagonal[t, k]
    matrices[:, [0, 1], [1, 0]] = off_diagonal[t, a]
    class_index = (np.cumsum(is_rep, dtype=np.intp) - 1)[rep]
    reps = np.nonzero(is_rep)[0]
    for arr in (matrices, class_index, reps):
        arr.setflags(write=False)
    return StrategyGrid(
        params=tuple(
            StrategyParams(thetas[i], phis[j], alphas[m])
            for i, j, m in zip(t.tolist(), k.tolist(), a.tolist())
        ),
        matrices=matrices,
        source_steps=steps,
        classes=class_index,
        representatives=reps,
    )
