"""Discretized strategy sets: every (j*dt, k*dp, l*da) triple in bounds,
with entrywise-duplicate matrices removed.

Duplicates arise because phi and alpha wrap at 2pi, alpha is inert at
theta=0 and phi is inert at theta=pi. Deduplication compares matrices
entrywise (tolerance DEDUP_TOL) and keeps the lexicographically first
(theta, phi, alpha) triple; matrices that differ only by a global phase
are distinct entries on purpose (they score identically but count as
separate strategy choices).
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
    matrix stack is a read-only (N, 2, 2) complex array.
    """

    params: tuple[StrategyParams, ...]
    matrices: np.ndarray = field(repr=False)
    source_steps: SteppingParams

    def __len__(self) -> int:
        return len(self.params)


def _multiples(step: float, bound: float) -> list[float]:
    count = int(math.floor(bound / step + _STEP_SLACK)) + 1
    values = []
    for j in range(count):
        v = j * step
        values.append(bound if v > bound else v)
    return values


def build_grid(steps: SteppingParams) -> StrategyGrid:
    """Enumerate all in-bounds step multiples and drop duplicate matrices.

    Candidates are generated in lexicographic (theta, phi, alpha) order,
    including the interval endpoints when they are exact multiples.
    Duplicates only ever share a theta value (distinct theta multiples
    separate by ~step/2 in the off-diagonal magnitude, far above
    DEDUP_TOL), so deduplication runs per theta bucket.
    """
    thetas = _multiples(steps.d_theta, math.pi)
    phis = _multiples(steps.d_phi, TWO_PI)
    alphas = _multiples(steps.d_alpha, TWO_PI)

    kept_params: list[StrategyParams] = []
    kept_mats: list[np.ndarray] = []
    bucket = np.empty((len(phis) * len(alphas), 2, 2), dtype=np.complex128)
    for theta in thetas:
        n_kept = 0
        for phi in phis:
            for alpha in alphas:
                p = StrategyParams(theta, phi, alpha)
                m = strategy_matrix(p)
                if n_kept:
                    dist = np.abs(bucket[:n_kept] - m).max(axis=(1, 2))
                    if float(dist.min()) <= DEDUP_TOL:
                        continue
                bucket[n_kept] = m
                n_kept += 1
                kept_params.append(p)
                kept_mats.append(m)

    matrices = np.stack(kept_mats)
    matrices.setflags(write=False)
    return StrategyGrid(params=tuple(kept_params), matrices=matrices, source_steps=steps)

