"""Discretized strategy sets: every (j*dt, k*dp, l*da) triple in bounds,
with entrywise-duplicate matrices removed, split into +-U classes.

Duplicates arise because phi and alpha wrap at 2pi, alpha is inert at
theta=0 and phi is inert at theta=pi. Deduplication compares matrices
entrywise (tolerance DEDUP_TOL) and keeps the lexicographically first
(theta, phi, alpha) triple. Matrices that differ only by a global phase
are distinct entries on purpose: they count as separate strategy choices.

Every U has determinant 1, so the only global phase that maps it onto
another grid matrix is -1: U(theta, phi+pi, alpha+pi) = -U. Payoffs depend
on |psi|^2 only, so U and -U score identically, and the pair forms a
class. The partner's matrix is stored as the exact negation of the
lower-index representative's, and the payoff kernel and the Nash
reductions score each class once. A strategy whose negation is not on
the grid (pi is not a multiple of the phi or alpha step) is a class of
its own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .circuit import TWO_PI, StrategyParams, strategy_matrix

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
    class c, increasing in c. A partner's matrix is the exact negation of
    its representative's, so it scores exactly the representative's
    payoffs, and each class is scored once.
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


# (row, candidate) pairs per step of `_matches`' prefilter; a step's
# scratch is about 25 bytes per pair, 25 MiB in all.
_MATCH_BLOCK = 1 << 20


def _matches(mats: np.ndarray, sign: float) -> list[tuple[int, int]]:
    """Every (j, i) with i < j and max|mats[j] - sign * mats[i]| <= DEDUP_TOL,
    in row-major order.

    All of `mats` share theta, so entries (0, 0) and (0, 1) each have one
    magnitude across the bucket. The larger one (at least 1/sqrt(2)) is
    compared first: a pair can match only if that entry does, so only
    matrices whose phi (or alpha) agrees reach the full comparison.
    """
    flat = mats.reshape(len(mats), 4)
    key = flat[:, 0] if abs(flat[0, 0]) >= abs(flat[0, 1]) else flat[:, 1]
    rows = max(1, _MATCH_BLOCK // len(flat))
    pairs: list[tuple[int, int]] = []
    for start in range(0, len(flat), rows):
        j, i = np.nonzero(np.abs(key[start:start + rows, None] - sign * key) <= DEDUP_TOL)
        j += start
        earlier = i < j
        j, i = j[earlier], i[earlier]
        close = np.abs(flat[j] - sign * flat[i]).max(axis=1) <= DEDUP_TOL
        pairs.extend(zip(j[close].tolist(), i[close].tolist()))
    return pairs


def build_grid(steps: SteppingParams) -> StrategyGrid:
    """Enumerate all in-bounds step multiples, drop duplicate matrices and
    pair each strategy with its negation.

    Candidates are generated in lexicographic (theta, phi, alpha) order,
    including the interval endpoints when they are exact multiples.
    Duplicates and negations only ever share a theta value (distinct theta
    multiples separate by ~step/2 in the off-diagonal magnitude, far above
    DEDUP_TOL), so both searches run per theta bucket. A candidate is
    dropped when it equals an earlier kept one within DEDUP_TOL. A kept
    strategy whose matrix M_j has max|M_j + M_i| <= DEDUP_TOL for an earlier
    kept M_i joins i's class.
    """
    thetas = _multiples(steps.d_theta, math.pi)
    phis = _multiples(steps.d_phi, TWO_PI)
    alphas = _multiples(steps.d_alpha, TWO_PI)

    kept_params: list[StrategyParams] = []
    kept_mats: list[np.ndarray] = []
    classes: list[int] = []
    representatives: list[int] = []
    for theta in thetas:
        params = [StrategyParams(theta, phi, alpha) for phi in phis for alpha in alphas]
        mats = np.stack([strategy_matrix(p) for p in params])
        kept = [True] * len(params)
        for j, i in _matches(mats, 1.0):  # i < j, so kept[i] is already final
            if kept[i]:
                kept[j] = False
        partner: dict[int, int] = {}
        for j, i in _matches(mats, -1.0):
            if kept[j] and kept[i]:
                partner.setdefault(j, i)
        index: dict[int, int] = {}  # bucket position -> grid index
        for pos, p in enumerate(params):
            if not kept[pos]:
                continue
            index[pos] = len(kept_params)
            kept_params.append(p)
            if pos in partner:
                c = classes[index[partner[pos]]]
                classes.append(c)
                kept_mats.append(-kept_mats[representatives[c]])
            else:
                classes.append(len(representatives))
                representatives.append(len(kept_mats))
                kept_mats.append(mats[pos])

    matrices = np.stack(kept_mats)
    class_index = np.array(classes, dtype=np.intp)
    reps = np.array(representatives, dtype=np.intp)
    for arr in (matrices, class_index, reps):
        arr.setflags(write=False)
    return StrategyGrid(
        params=tuple(kept_params),
        matrices=matrices,
        source_steps=steps,
        classes=class_index,
        representatives=reps,
    )
