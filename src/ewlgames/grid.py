"""Discretized strategy sets: every (j*dt, k*dp, l*da) triple in bounds,
with entrywise-duplicate matrices removed, split into +-U classes. A grid
stores the kept triples once, as the rows of one (N, 3) angle array.

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
class of at most two members. The payoff kernel and the Nash reduction
score each class once, through its lower-index representative, whose
gamma-free rotation features the grid computes as it is built and keeps;
they are those of the representative's own `strategy_matrix`, and a
partner's matrix is the representative's negation within DEDUP_TOL. A
strategy whose negation is not on the grid (pi is not a multiple of the
phi or alpha step), or whose first negation already has a partner, is a
class of its own. The grid lists each class's members once, and the
reduction expands class equilibria through that list.

The circuit has one more symmetry. The gate J(gamma) commutes with
sigma_z (x) sigma_z, which fixes |00> and only flips the sign of other
basis states, so the strategy pairs (i sigma_z U_A, i sigma_z U_B) and
(U_A i sigma_z, U_B i sigma_z) give the same outcome probabilities as
(U_A, U_B), at every gamma and in every game. The maps L: U -> i sigma_z U
and R: U -> U i sigma_z send (theta, phi, alpha) to (theta, phi - pi/2,
alpha +- pi/2), so a grid whose phi and alpha steps divide pi/2 is closed
under them. On such a grid G = {e, L, R, LR} acts on the classes, and
each player's class table satisfies pa[g.a, g.b] = pa[a, b]; the kernel
then scores one class row per G-orbit, that of its lowest class, and the
grid lists every class once as an image of one of those rows. A grid
where some class has no image, or where the images are not an action of
G, gets G = {e}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .circuit import ANGLE_BOUNDS, StrategyParams, _rotation_entries, rotation_features

DEDUP_TOL = 1e-9

# Multiples that overshoot their bound by float noise are still admitted
# and clamped back onto it.
_STEP_SLACK = 1e-9

# build_grid refuses steps with more (theta, phi, alpha) candidates than
# this, before it allocates anything: 2**24 is 112 times the 149769
# candidates of the 114944-strategy (pi/8, pi/64, pi/64) grid.
MAX_CANDIDATES = 1 << 24


@dataclass(frozen=True)
class SteppingParams:
    """Positive step sizes; each must fit at least once into its interval."""

    d_theta: float
    d_phi: float
    d_alpha: float

    def __post_init__(self) -> None:
        for name, bound in ANGLE_BOUNDS.items():
            step = getattr(self, f"d_{name}")
            if not (math.isfinite(step) and 0.0 < step <= bound):
                raise ValueError(f"d_{name} must be in (0, {bound!r}], got {step!r}")

    def astuple(self) -> tuple[float, float, float]:
        return (self.d_theta, self.d_phi, self.d_alpha)


@dataclass(frozen=True)
class StrategyGrid:
    """Deduplicated, lexicographically ordered strategy set.

    `angles` is a read-only (N, 3) float array: row i is strategy i's
    (theta, phi, alpha), and `params[i]` the same triple as a
    `StrategyParams`, built on first read. `features` is a read-only
    (classes, 10) float array: row c is the `rotation_features` of class
    c's representative's `strategy_matrix`, bit for bit. `classes[i]` is
    strategy i's +-U class. `members` is a read-only (classes, 2) integer
    array: each class's representative, its lowest index and increasing in
    c, then its partner, or -1 where it has none. A partner's matrix is its
    representative's negation within DEDUP_TOL. Each class is scored once,
    through its representative's row of `features`, and a partner carries
    exactly the representative's payoffs.

    `orbit_maps` is a read-only (g, classes) integer array: row g sends
    class c to g.c, for the rows e, L, R and LR. A map finds a
    representative's image matrix, or its negation, within DEDUP_TOL. A
    grid not closed under the maps has the identity row only.
    `orbit_images` is a read-only (g, orbits) integer array. Row 0 is S,
    the lowest class of each orbit, increasing; `orbit_images[g, i]` is
    g.S[i] where g is the first map to reach that class, and -1 elsewhere,
    so its entries >= 0 are every class exactly once.
    """

    angles: np.ndarray = field(repr=False)
    features: np.ndarray = field(repr=False)
    source_steps: SteppingParams
    classes: np.ndarray = field(repr=False)
    orbit_maps: np.ndarray = field(repr=False)
    orbit_images: np.ndarray = field(repr=False)
    members: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.angles)

    @cached_property
    def params(self) -> tuple[StrategyParams, ...]:
        """One `StrategyParams` per row of `angles`, built on first read."""
        return tuple(StrategyParams(*row) for row in self.angles.tolist())


def _axis_count(step: float, bound: float) -> int:
    """How many multiples of `step` lie in [0, bound], or MAX_CANDIDATES + 1 if that is more."""
    return math.floor(min(bound / step + _STEP_SLACK, MAX_CANDIDATES)) + 1


def _multiples(step: float, bound: float, count: int) -> list[float]:
    return [min(j * step, bound) for j in range(count)]


def _axis_matches(pairs: np.ndarray, targets: Sequence[np.ndarray]) -> tuple[np.ndarray, list[np.ndarray]]:
    """Greedy keep mask and first kept images along one angle axis.

    `pairs` is (thetas, values, 2): the two U entries that depend on this
    axis only. Per theta, value k is kept when no earlier kept value
    matches both its entries within DEDUP_TOL. Each target is an array
    like `pairs`, holding what each value's entries map to; its image
    array holds, at [t, k], the first kept value whose entries match
    target[t, k], or -1.

    Matches are found by a sort, not by comparing every pair. Per theta,
    the values and the targets' points are sorted by a projection of their
    first entry. Two points' projections differ by at most their
    distance, so points that match lie in one cluster: a run of sorted
    projections with no gap over 2 * DEDUP_TOL. Each round takes the
    lowest undecided value of every cluster and keeps it, because every
    value kept before it has already dropped the values it matches. The
    round then drops the later values it matches and makes it the image
    of the targets it matches that have no image yet. A cluster takes one
    round per value it keeps, so a cluster whose points all match takes
    one, as at theta = pi, where the diagonal vanishes.
    """
    thetas, values = pairs.shape[:2]
    points = np.concatenate([pairs, *targets], axis=1)  # column c: value c % values of array c // values
    # Tilted off the real axis, so that values placed symmetrically about it
    # (a grid circle's conjugate pairs) do not share a projection.
    projection = 0.6 * points[..., 0].real + 0.8 * points[..., 0].imag
    order = np.argsort(projection, axis=1)
    starts = np.ones(order.shape, dtype=bool)
    starts[:, 1:] = np.diff(np.take_along_axis(projection, order, axis=1), axis=1) > 2 * DEDUP_TOL
    cluster = np.cumsum(starts.ravel()) - 1
    # Each cluster's values in index order, then its targets' points.
    by = np.lexsort((order.ravel(), cluster))
    cluster, t, c = cluster[by], by // order.shape[1], order.ravel()[by]
    first = np.flatnonzero(starts.ravel())  # where each cluster starts, by cluster number
    size = np.diff(first, append=len(c))
    is_value = c < values
    undecided = is_value.copy()
    kept = np.zeros(len(c), dtype=bool)
    image = np.full(len(c), -1, dtype=np.intp)
    while undecided.any():
        pending = np.flatnonzero(undecided)
        owner = pending[np.flatnonzero(np.diff(cluster[pending], prepend=-1))]
        kept[owner], undecided[owner] = True, False
        # every member of each owner's cluster, beside its owner
        reps = size[cluster[owner]]
        member = np.repeat(first[cluster[owner]] - np.cumsum(reps) + reps, reps) + np.arange(reps.sum())
        source = np.repeat(owner, reps)
        hit = np.abs(points[t[member], c[member]] - points[t[source], c[source]]).max(axis=1) <= DEDUP_TOL
        undecided[member[hit]] = False  # values decided before the owner included
        hit &= ~is_value[member] & (image[member] < 0)
        image[member[hit]] = c[source[hit]]
    kept_at, image_at = np.empty(points.shape[:2], dtype=bool), np.empty(points.shape[:2], dtype=np.intp)
    kept_at[t, c], image_at[t, c] = kept, image
    return kept_at[:, :values], np.split(image_at[:, values:], len(targets), axis=1)


def _first_images(index: np.ndarray, t: np.ndarray, choices) -> np.ndarray:
    """Index of strategy (t, k', a') for the first (k', a') choice with both
    parts found (>= 0), per entry of `t`, or -1 where no choice is found."""
    out = np.full(len(t), -1, dtype=np.intp)
    for k, a in reversed(choices):
        found = (k >= 0) & (a >= 0)
        out[found] = index[t[found], k[found], a[found]]
    return out


def build_grid(steps: SteppingParams) -> StrategyGrid:
    """Enumerate all in-bounds step multiples, drop duplicate matrices and
    pair each strategy with its negation.

    Candidates are generated in lexicographic (theta, phi, alpha) order,
    including the interval endpoints when they are exact multiples; steps
    with more than MAX_CANDIDATES of them raise ValueError.
    Duplicates and negations only ever share a theta value (distinct theta
    multiples separate by ~step/2 in the off-diagonal magnitude, far above
    DEDUP_TOL). At one theta, U's diagonal depends on phi only and its
    off-diagonal on alpha only, so two matrices match (or negate) within
    DEDUP_TOL exactly when their phis do and their alphas do. The greedy
    rule therefore keeps (phi, alpha) exactly when the same rule keeps phi
    along the phi axis and alpha along the alpha axis, and negations (in
    `_classes`) and the maps L and R (in `_orbit_maps`) are matched per
    axis the same way.

    The build runs in stages, each a function whose per-candidate and
    per-strategy temporaries die when it returns: the axis matches,
    `_strategies` (the kept candidates' angles, classes and orbit maps),
    then `_features` (the representatives' matrices, which
    `rotation_features` takes a block at a time). On the 31808-strategy
    grid the build's tracemalloc peak is 1.7 times the bytes of the grid
    it returns (numpy 2.4.6), where it was 6.1 times with every stage's
    arrays alive until the end.
    """
    axes = list(zip(steps.astuple(), ANGLE_BOUNDS.values(), strict=True))
    counts = [_axis_count(step, bound) for step, bound in axes]
    if math.prod(counts) > MAX_CANDIDATES:
        raise ValueError(f"steps {steps.astuple()} give more than {MAX_CANDIDATES} candidate strategies")
    thetas, phis, alphas = values = [_multiples(step, bound, count) for (step, bound), count in zip(axes, counts)]

    c = np.array([[math.cos(t / 2.0)] for t in thetas])
    s = np.array([[math.sin(t / 2.0)] for t in thetas])
    diagonal, off_diagonal = (
        np.stack(entries, axis=-1) for entries in _rotation_entries(c, s, np.array(phis), np.array(alphas))
    )
    # i*sigma_z multiplies the diagonal pair by (i, -i) from either side, and
    # the off-diagonal pair by (i, -i) from the left and (-i, i) from the right.
    quarter = np.array([1j, -1j])
    phi_axis = _axis_matches(diagonal, (-diagonal, quarter * diagonal, -quarter * diagonal))
    alpha_axis = _axis_matches(off_diagonal, (-off_diagonal, quarter * off_diagonal, -quarter * off_diagonal))

    angles, class_index, members, orbit_maps, rep_cells = _strategies(values, phi_axis, alpha_axis)
    features = _features(diagonal, off_diagonal, rep_cells)
    # Each orbit's lowest class, and its images under the maps that reach a new class.
    reached = orbit_maps[:, np.flatnonzero(orbit_maps.min(axis=0) == orbit_maps[0])]
    first = np.array([(reached[g] != reached[:g]).all(axis=0) for g in range(len(reached))])
    orbit_images = np.where(first, reached, -1)
    for arr in (angles, features, class_index, orbit_maps, orbit_images, members):
        arr.setflags(write=False)
    return StrategyGrid(
        angles=angles,
        features=features,
        source_steps=steps,
        classes=class_index,
        orbit_maps=orbit_maps,
        orbit_images=orbit_images,
        members=members,
    )


def _strategies(values, phi_axis, alpha_axis) -> tuple:
    """The kept candidates as (angles, classes, members, orbit_maps, rep_cells).

    `values` holds each axis's multiples, and `phi_axis` and `alpha_axis`
    are the axes' `_axis_matches`, whose three images are each value's
    first kept negation, then its turns by (i, -i) and by (-i, i). The
    first four items are `StrategyGrid`'s arrays; `rep_cells` holds each
    class representative's (theta, phi, alpha) positions along the axes,
    as three arrays.
    """
    (keep_phi, phi_images), (keep_alpha, alpha_images) = phi_axis, alpha_axis
    kept = keep_phi[:, :, None] & keep_alpha[:, None, :]
    cells = np.nonzero(kept)  # each strategy's (t, k, a) positions, in lexicographic order
    index = np.full(kept.shape, -1, dtype=np.intp)
    index[cells] = np.arange(len(cells[0]))
    class_index, members = _classes(index, cells, phi_images[0], alpha_images[0])
    rep_cells = [axis[members[:, 0]] for axis in cells]
    orbit_maps = _orbit_maps(index, rep_cells, class_index, phi_images, alpha_images)
    angles = np.stack([np.array(axis)[at] for axis, at in zip(values, cells)], axis=1)
    return angles, class_index, members, orbit_maps, rep_cells


def _classes(index: np.ndarray, cells, twin_phi: np.ndarray, twin_alpha: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each strategy's +-U class, and `StrategyGrid.members`.

    A strategy's first earlier kept negation is the pair of its per-axis
    first kept negations, if that pair comes earlier; the strategy joins
    its class only if it is a representative with no partner yet.
    """
    t, k, a = cells
    tk, ta = twin_phi[t, k], twin_alpha[t, a]
    paired = np.nonzero((tk >= 0) & (ta >= 0) & ((tk < k) | ((tk == k) & (ta < a))))[0]
    rep = np.arange(len(t))
    used = bytearray(len(t))  # partners and the representatives they joined
    for j, i in zip(paired.tolist(), index[t[paired], tk[paired], ta[paired]].tolist()):
        if not used[i]:
            used[i] = used[j] = 1
            rep[j] = i
    is_rep = rep == np.arange(len(t))
    class_index = (np.cumsum(is_rep, dtype=np.intp) - 1)[rep]
    reps = np.flatnonzero(is_rep)
    members = np.stack([reps, np.full(len(reps), -1, dtype=np.intp)], axis=1)
    members[class_index[~is_rep], 1] = np.flatnonzero(~is_rep)
    return class_index, members


def _orbit_maps(index: np.ndarray, rep_cells, class_index: np.ndarray, phi_images, alpha_images) -> np.ndarray:
    """`StrategyGrid.orbit_maps`: the rows e, L, R and LR, or e alone.

    L, R and LR of each representative are each found as +U' or else as
    -U', per axis: both L and R turn the diagonal pair by (i, -i), L the
    off-diagonal pair by (i, -i) and R by (-i, i); LR negates the
    diagonal pair only.
    """
    tr, kr, ar = rep_cells
    (twin_phi, turn_phi, turn_phi_neg), (twin_alpha, left_alpha, right_alpha) = phi_images, alpha_images
    turn, turn_neg = turn_phi[tr, kr], turn_phi_neg[tr, kr]
    to_left, to_right = left_alpha[tr, ar], right_alpha[tr, ar]
    images = [
        _first_images(index, tr, [(turn, to_left), (turn_neg, to_right)]),
        _first_images(index, tr, [(turn, to_right), (turn_neg, to_left)]),
        _first_images(index, tr, [(twin_phi[tr, kr], ar), (kr, twin_alpha[tr, ar])]),
    ]
    identity = np.arange(len(tr))
    if all((image >= 0).all() for image in images):
        left, right, both = (class_index[image] for image in images)
        involutions = all((m[m] == identity).all() for m in (left, right))
        if involutions and (left[right] == both).all() and (right[left] == both).all():
            return np.stack([identity, left, right, both])
    return identity[None]


def _features(diagonal: np.ndarray, off_diagonal: np.ndarray, rep_cells) -> np.ndarray:
    """`StrategyGrid.features`: the `rotation_features` of each class representative's matrix."""
    tr, kr, ar = rep_cells
    matrices = np.empty((len(tr), 2, 2), dtype=np.complex128)
    matrices[:, [0, 1], [0, 1]] = diagonal[tr, kr]
    matrices[:, [0, 1], [1, 0]] = off_diagonal[tr, ar]
    return rotation_features(matrices)
