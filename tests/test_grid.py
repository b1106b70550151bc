import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from ewlgames import (
    GameDefinition,
    SteppingParams,
    StrategyGrid,
    StrategyParams,
    bayes_sweep,
    build_grid,
    gamma_sweep,
    load_default_catalogue,
)
from ewlgames.circuit import ANGLE_BOUNDS, _rotation_entries, rotation_features, strategy_matrix
from ewlgames.grid import DEDUP_TOL, MAX_CANDIDATES, _axis_count, _axis_matches, _multiples

from oracles import phase_partners

PI = math.pi


class TestSteppingValidation:
    @pytest.mark.parametrize("bad", [0.0, -0.5, float("nan")])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            SteppingParams(bad, PI / 2, PI / 2)

    def test_candidates_over_the_limit_rejected(self):
        # 2049 x 2049 x 5 = 20.99M candidates, and 1 x 1 x 16777217 along one axis
        with pytest.raises(ValueError, match="more than 16777216 candidate strategies"):
            build_grid(SteppingParams(PI / 2048, 2 * PI / 2048, PI / 2))
        with pytest.raises(ValueError, match="more than 16777216 candidate strategies"):
            build_grid(SteppingParams(PI, 2 * PI / 2**24, 2 * PI))
        assert MAX_CANDIDATES == 2**24

    def test_oversized_steps_rejected(self):
        with pytest.raises(ValueError):
            SteppingParams(PI + 0.1, PI / 2, PI / 2)
        with pytest.raises(ValueError):
            SteppingParams(PI, 2 * PI + 0.1, PI / 2)


class TestCounts:
    def test_coarse_grid_has_8(self, coarse_grid):
        assert len(coarse_grid) == 8

    def test_eighth_steps_yield_1824(self):
        assert len(build_grid(SteppingParams(PI / 8, PI / 8, PI / 8))) == 1824

    def test_fine_theta_steps_yield_7968(self):
        assert len(build_grid(SteppingParams(PI / 32, PI / 8, PI / 8))) == 7968

    def test_fine_phi_alpha_steps_yield_114944(self):
        grid = build_grid(SteppingParams(PI / 8, PI / 64, PI / 64))
        assert len(grid) == 114944
        assert len(grid.members) == 57472


class TestContents:
    def test_identity_is_entry_zero(self, strategy_matrices):
        for steps in [
            SteppingParams(PI, PI / 2, PI / 2),
            SteppingParams(PI / 4, PI / 4, PI / 4),
            SteppingParams(1.0, 1.5, 2.0),
        ]:
            grid = build_grid(steps)
            assert grid.params[0] == StrategyParams(0.0, 0.0, 0.0)
            np.testing.assert_allclose(strategy_matrices(grid)[0], np.eye(2), atol=1e-15)

    @pytest.mark.parametrize(
        "steps",
        [
            SteppingParams(PI, PI / 2, PI / 2),
            SteppingParams(PI / 8, PI / 8, PI / 8),
            SteppingParams(PI / 32, PI / 8, PI / 8),
            # multiples that overshoot their bound and are clamped onto it
            SteppingParams(1.0, 1.5, 2.0),
            SteppingParams(PI / 3, 2 * PI / 3, PI / 2),
        ],
    )
    def test_angles_are_the_params_as_one_array(self, steps):
        grid = build_grid(steps)
        angles = grid.angles
        assert angles.dtype == np.float64 and angles.shape == (len(grid), 3)
        assert not angles.flags.writeable
        assert ((angles >= 0.0) & (angles <= [PI, 2 * PI, 2 * PI])).all()
        assert angles.tobytes() == np.array([p.astuple() for p in grid.params]).tobytes()

    def test_params_are_built_on_first_read_only(self, prisoners_dilemma):
        # the sweeps read `angles`; building the N-object tuple is most of a build's time
        grid = build_grid(SteppingParams(PI / 4, PI / 2, PI / 2))
        assert "params" not in vars(grid)
        gamma_sweep(prisoners_dilemma, grid, [0.0, 0.5])
        bayes_sweep(prisoners_dilemma, prisoners_dilemma, grid, [0.5], [0.0, 0.5])
        assert "params" not in vars(grid)
        assert grid.params is grid.params
        assert "params" in vars(grid)

    def test_fields_are_the_angles_features_and_class_arrays(self):
        # no per-strategy matrices: the kernel reads only the class features
        names = [f.name for f in dataclasses.fields(StrategyGrid)]
        assert names == ["angles", "features", "source_steps", "classes", "orbit_maps", "orbit_images", "members"]
        grid = build_grid(SteppingParams(PI / 8, PI / 8, PI / 8))
        arrays = [getattr(grid, name) for name in names if name != "source_steps"]
        assert all(isinstance(arr, np.ndarray) and not arr.flags.writeable for arr in arrays)

    @pytest.mark.parametrize("steps, size", [((1, 2, 2), 8), ((8, 8, 8), 1824), ((32, 8, 8), 7968)])
    def test_transposed_features_are_c_contiguous(self, steps, size):
        # the payoff kernel multiplies by features.T, whose C layout it would
        # otherwise copy once per sweep (equilibrium._tables)
        grid = build_grid(SteppingParams(*(PI / d for d in steps)))
        assert len(grid) == size
        assert grid.features.T.flags.c_contiguous

    def test_build_peaks_under_its_bound(self):
        # Each stage's temporaries die before the next stage allocates, and the
        # features come a block at a time: numpy 2.4.6 read 1.70 times the
        # returned bytes on this grid, where the whole build at once read 6.06.
        # Keeping the per-candidate index and the strategies' (t, k, a) cells
        # alive through the features stage read 2.03.
        steps = SteppingParams(PI / 32, PI / 16, PI / 16)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            grid = build_grid(steps)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(grid) == 31808
        names = [f.name for f in dataclasses.fields(StrategyGrid) if f.name != "source_steps"]
        returned = sum(getattr(grid, name).nbytes for name in names)
        assert peak <= 2.0 * returned, peak / returned

    def test_reprs_leave_out_the_per_strategy_arrays(self):
        grid = build_grid(SteppingParams(PI / 32, PI / 8, PI / 8))
        assert len(grid) == 7968
        assert len(repr(grid)) < 1000

    def test_coarse_matrices_are_the_signed_paulis(self, coarse_grid, strategy_matrices):
        # I, -i sz, -I, i sz, i sy, i sx, -i sy, -i sx in grid order
        eye, sx, sy, sz = np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])
        expected = [eye, -1j * sz, -eye, 1j * sz, 1j * sy, 1j * sx, -1j * sy, -1j * sx]
        np.testing.assert_allclose(strategy_matrices(coarse_grid), expected, atol=1e-12)

    @pytest.mark.parametrize(
        "steps",
        [
            SteppingParams(PI, PI / 2, PI / 2),
            SteppingParams(PI / 8, PI / 8, PI / 8),
            SteppingParams(PI / 32, PI / 8, PI / 8),
            SteppingParams(1.0, 1.5, 2.0),
            # 85 strategies, each a class of its own
            SteppingParams(PI / 4, 2 * PI / 5, 2 * PI / 5),
        ],
    )
    def test_representatives_are_bitwise_strategy_matrices(self, steps):
        # every downstream byte relies on the grid and strategy_matrix
        # sharing one entry formula, and the kernel reads the features
        grid = build_grid(steps)
        features = grid.features
        assert not features.flags.writeable
        assert features.shape == (len(grid.members), 10)
        own = np.array([strategy_matrix(grid.params[i]) for i in grid.members[:, 0]])
        assert features.tobytes() == rotation_features(own).tobytes()

    def test_lexicographic_order(self, coarse_grid):
        triples = [p.astuple() for p in coarse_grid.params]
        assert triples == sorted(triples)

    def test_endpoints_included(self):
        grid = build_grid(SteppingParams(PI, PI / 2, PI / 2))
        thetas = {p.theta for p in grid.params}
        assert PI in thetas

    def test_dedup_exhaustive_on_coarse(self, coarse_grid, strategy_matrices):
        mats = strategy_matrices(coarse_grid)
        n = len(mats)
        for i in range(n):
            for j in range(i + 1, n):
                assert np.abs(mats[i] - mats[j]).max() > 1e-9

    def test_dedup_sampled_on_1824(self, strategy_matrices):
        grid = build_grid(SteppingParams(PI / 8, PI / 8, PI / 8))
        rng = np.random.default_rng(21)
        idx = rng.choice(len(grid), size=400, replace=False)
        sub = strategy_matrices(grid)[idx]
        dist = np.abs(sub[:, None] - sub[None, :]).max(axis=(2, 3))
        dist[np.arange(len(idx)), np.arange(len(idx))] = 1.0
        assert dist.min() > 1e-9

    def test_deterministic_rebuild(self, strategy_matrices):
        steps = SteppingParams(PI / 4, PI / 2, PI / 2)
        g1, g2 = build_grid(steps), build_grid(steps)
        assert g1.params == g2.params
        np.testing.assert_array_equal(strategy_matrices(g1), strategy_matrices(g2))
        assert g1.features.tobytes() == g2.features.tobytes()

    @pytest.mark.parametrize(
        "steps",
        [
            SteppingParams(PI / 2, PI, PI),
            SteppingParams(1.0, 1.5, 2.0),
            SteppingParams(PI / 3, 2 * PI / 3, PI / 2),
            # at theta = pi - 2e-9 neighbouring phis match but phi 0 and 2
            # do not; the greedy rule keeps phi in {0, 2, 4}
            SteppingParams((PI - 2e-9) / 2, 1.0, 2.0),
        ],
    )
    def test_matches_brute_force_dedup(self, steps, strategy_matrices):
        # independent O(n^2) reference: enumerate every in-bounds multiple
        # and keep the first matrix no earlier one equals entrywise
        def multiples(step, bound):
            out, j = [], 0
            while j * step <= bound + 1e-9:
                out.append(min(j * step, bound))
                j += 1
            return out

        reference = []
        for t in multiples(steps.d_theta, PI):
            for f in multiples(steps.d_phi, 2 * PI):
                for a in multiples(steps.d_alpha, 2 * PI):
                    m = strategy_matrix(StrategyParams(t, f, a))
                    if all(np.abs(m - kept).max() > 1e-9 for kept in reference):
                        reference.append(m)
        grid = build_grid(steps)
        assert len(grid) == len(reference)
        for got, expected in zip(strategy_matrices(grid), reference):
            np.testing.assert_allclose(got, expected, atol=1e-12)


def quadratic_axis_matches(pairs, targets):
    """The greedy axis match as one scan per value over every later value, O(values^2) per theta."""
    keep = np.ones(pairs.shape[:2], dtype=bool)
    images = [np.full(pairs.shape[:2], -1, dtype=np.intp) for _ in targets]
    for k in range(pairs.shape[1]):  # keep[:, k] is final from here on
        kept = keep[:, k, None]
        same = np.abs(pairs[:, k + 1:] - pairs[:, k, None]).max(axis=2) <= DEDUP_TOL
        keep[:, k + 1:] &= ~(same & kept)
        for image, target in zip(images, targets):
            hit = np.abs(target - pairs[:, k, None]).max(axis=2) <= DEDUP_TOL
            image[hit & kept & (image < 0)] = k
    return keep, images


def axis_problems(steps: SteppingParams):
    """build_grid's two axis problems: the phi axis's diagonal pairs and the
    alpha axis's off-diagonal pairs, each with its -1, L and R targets."""
    axes = list(zip(steps.astuple(), ANGLE_BOUNDS.values()))
    thetas, phis, alphas = (_multiples(step, bound, _axis_count(step, bound)) for step, bound in axes)
    c = np.array([[math.cos(t / 2.0)] for t in thetas])
    s = np.array([[math.sin(t / 2.0)] for t in thetas])
    quarter = np.array([1j, -1j])
    for entries in _rotation_entries(c, s, np.array(phis), np.array(alphas)):
        pairs = np.stack(entries, axis=-1)
        yield pairs, (-pairs, quarter * pairs, -quarter * pairs)


def assert_same_matches(pairs, targets):
    keep, images = _axis_matches(pairs, targets)
    want_keep, want_images = quadratic_axis_matches(pairs, targets)
    assert keep.dtype == bool and np.array_equal(keep, want_keep)
    assert len(images) == len(want_images)
    for got, want in zip(images, want_images):
        assert got.dtype == want.dtype and np.array_equal(got, want)


class TestAxisMatches:
    """`_axis_matches` finds matches by a sort and keeps the greedy rule of one
    scan per value, keep masks and first kept images alike."""

    @pytest.mark.parametrize(
        "steps",
        [
            SteppingParams(PI, PI / 2, PI / 2),
            SteppingParams(PI / 8, PI / 8, PI / 8),
            SteppingParams(PI / 32, PI / 8, PI / 8),
            SteppingParams(1.0, 1.5, 2.0),
            # fine phi, then fine alpha: at theta = pi the diagonal vanishes and
            # every phi matches, at theta = 0 the off-diagonal and every alpha
            SteppingParams(PI, 1e-2, PI),
            SteppingParams(PI, PI, 1e-2),
            SteppingParams(1e-2, 1.0, 1.0),
            # the last theta is pi - 6e-9, where a phi matches its neighbours
            # but not all of the circle: the matches do not chain
            SteppingParams(PI / 6 - 1e-9, 2e-2, 2e-2),
            SteppingParams((PI - 2e-9) / 2, 1.0, 2.0),
        ],
    )
    def test_matches_the_quadratic_scan(self, steps):
        for pairs, targets in axis_problems(steps):
            assert_same_matches(pairs, targets)

    def test_matches_the_quadratic_scan_on_clustered_points(self):
        # points scattered at the scale of DEDUP_TOL around one centre per theta,
        # so that matches chain without being transitive
        rng = np.random.default_rng(31)
        for _ in range(100):
            thetas, values = rng.integers(1, 4), rng.integers(1, 40)
            centre = rng.normal(size=(thetas, 1, 2)) + 1j * rng.normal(size=(thetas, 1, 2))
            spread = DEDUP_TOL * rng.choice([0.3, 1.0, 3.0])
            pairs = centre + spread * (rng.normal(size=(thetas, values, 2)) + 1j * rng.normal(size=(thetas, values, 2)))
            targets = [pairs[:, rng.permutation(values)] + spread * rng.normal(size=(thetas, values, 2)) for _ in range(3)]
            assert_same_matches(pairs, targets)


class TestPhaseClasses:
    def test_eighth_grid_has_912_classes_of_negations(self, strategy_matrices):
        grid = build_grid(SteppingParams(PI / 8, PI / 8, PI / 8))
        assert len(grid.members) == 912
        np.testing.assert_array_equal(grid.members[:, 0], np.unique(grid.classes, return_index=True)[1])
        reps = grid.members[:, 0][grid.classes]
        partners = np.nonzero(reps != np.arange(len(grid)))[0]
        assert len(partners) == 912
        own = strategy_matrices(grid)
        assert np.abs(own[partners] + own[reps[partners]]).max() <= 1e-9

    @pytest.mark.parametrize(
        "steps",
        [
            SteppingParams(PI, PI / 2, PI / 2),
            SteppingParams(PI / 4, PI / 4, PI / 4),
            SteppingParams(PI / 2, 2 * PI / 3, 2 * PI / 3),
            SteppingParams(PI / 2, PI / 2, 2 * PI / 3),
            SteppingParams(1.0, 1.5, 2.0),
        ],
    )
    def test_classes_are_exactly_the_negation_pairs(self, steps):
        grid = build_grid(steps)
        same_class = {
            (i, j)
            for i in range(len(grid))
            for j in range(i + 1, len(grid))
            if grid.classes[i] == grid.classes[j]
        }
        partners = phase_partners(p.astuple() for p in grid.params)
        assert same_class == {(i, j) for i, js in partners.items() for j in js if i < j}
        assert np.bincount(grid.classes).max() <= 2
        np.testing.assert_array_equal(grid.members[:, 0], np.unique(grid.classes, return_index=True)[1])

    # Near theta = pi the negation match chains: one strategy can be the
    # first earlier negation of another while being a partner itself.
    @pytest.mark.parametrize(
        "steps",
        [
            SteppingParams((PI - 1.2e-9) / 3, 0.5, PI / 2),
            SteppingParams((PI - 2e-9) / 2, 1.0, PI / 2),
            SteppingParams(PI / 8, PI / 8, PI / 8),
            SteppingParams(PI, PI / 2, PI / 2),
            SteppingParams(PI / 32, PI / 8, PI / 8),
        ],
    )
    def test_classes_have_at_most_two_members(self, steps, strategy_matrices):
        grid = build_grid(steps)
        assert np.bincount(grid.classes).max() <= 2
        reps = grid.members[:, 0][grid.classes]
        partners = np.nonzero(reps != np.arange(len(grid)))[0]
        assert len(partners) > 0
        own = strategy_matrices(grid)
        assert np.abs(own[partners] + own[reps[partners]]).max() <= 1e-9
        # Each strategy's own features are its class's up to rounding, except
        # where theta steps miss pi: there partners are negations only within
        # DEDUP_TOL.
        tol = 1e-12 if PI % steps.d_theta == 0.0 else 4 * DEDUP_TOL
        assert np.abs(rotation_features(own) - grid.features[grid.classes]).max() <= tol

    # The 1824 grid's zero-game sweep would hold 3.3M records, so only the
    # near-pi grids run it.
    @pytest.mark.parametrize(
        "steps",
        [
            SteppingParams((PI - 1.2e-9) / 3, 0.5, PI / 2),
            SteppingParams((PI - 2e-9) / 2, 1.0, PI / 2),
        ],
    )
    def test_zero_game_records_every_strategy_pair(self, steps):
        grid = build_grid(steps)
        n = len(grid)
        table = gamma_sweep(GameDefinition("zero", (0, 0, 0, 0), (0, 0, 0, 0)), grid, [0.0])
        assert len(table) == n * n
        for role in ("a", "b"):
            assert np.bincount(table.columns[f"{role}_index"], minlength=n).tolist() == [n] * n


# Grids the orbit maps close: an action of G with this many orbits, LR fixing
# this many classes (two in each of as many orbits of two classes).
CLOSED_GRIDS = [
    (SteppingParams(PI, PI / 2, PI / 2), 2, 4),
    (SteppingParams(PI / 8, PI / 8, PI / 8), 232, 16),
    (SteppingParams(PI / 32, PI / 8, PI / 8), 1000, 16),
]
OPEN_GRIDS = [
    SteppingParams(PI / 4, 2 * PI / 5, 2 * PI / 5),
    SteppingParams(PI / 8, PI / 5, PI / 4),
    # near theta = pi every image is found, but only within
    # DEDUP_TOL, and L after L is not e
    SteppingParams((PI - 1e-9) / 2, PI / 2, PI / 2),
]


class TestOrbitMaps:
    """The grid's action of G = {e, L, R, LR}: L is U -> i sigma_z U, R is U -> U i sigma_z."""

    @pytest.mark.parametrize("steps, orbits, lr_fixed", CLOSED_GRIDS)
    def test_klein_four_action_on_classes(self, steps, orbits, lr_fixed, strategy_matrices):
        grid = build_grid(steps)
        maps = grid.orbit_maps
        classes = np.arange(len(grid.members))
        assert maps.shape == (4, len(classes)) and not maps.flags.writeable
        assert np.array_equal(maps[0], classes)
        for row in maps:
            assert np.array_equal(row[row], classes)  # involution
        assert np.array_equal(maps[1][maps[2]], maps[3])  # L after R is LR
        assert len(np.unique(maps.min(axis=0))) == orbits
        assert [int((row == classes).sum()) for row in maps[1:]] == [0, 0, lr_fixed]
        # Each map sends a representative's matrix to one of its image class's members, up to sign.
        z = np.diag([1j, -1j])
        mats = strategy_matrices(grid)
        reps = mats[grid.members[:, 0]]
        for row, image in zip(maps[1:], (z @ reps, reps @ z, z @ reps @ z)):
            got = mats[grid.members[:, 0][row]]
            distance = np.minimum(np.abs(got - image).max(axis=(1, 2)), np.abs(got + image).max(axis=(1, 2)))
            assert distance.max() <= 1e-12

    @pytest.mark.parametrize("gamma", [0.0, 0.7, PI / 2])
    def test_tables_are_invariant_under_the_maps(self, full_class_tables, gamma):
        grid = build_grid(SteppingParams(PI / 8, PI / 8, PI / 8))
        rng = np.random.default_rng(40)
        games = [load_default_catalogue().get(name) for name in load_default_catalogue().names]
        games.append(GameDefinition("rnd", tuple(rng.uniform(-3, 5, 4)), tuple(rng.uniform(-3, 5, 4))))
        assert len(games) == 6
        for game in games:
            for table in full_class_tables(game, grid, gamma):
                for row in grid.orbit_maps[1:]:
                    assert np.abs(table[np.ix_(row, row)] - table).max() <= 1e-12, (game.name, gamma)

    @pytest.mark.parametrize("steps", OPEN_GRIDS)
    def test_grid_not_closed_under_the_maps_gets_the_identity_only(self, steps):
        grid = build_grid(steps)
        classes = np.arange(len(grid.members))
        assert grid.orbit_maps.shape == (1, len(classes))
        assert np.array_equal(grid.orbit_maps[0], classes)
        assert np.array_equal(grid.orbit_images, classes[None])

    @pytest.mark.parametrize(
        "steps, orbits, fixed_rows",
        [(steps, orbits, lr_fixed // 2) for steps, orbits, lr_fixed in CLOSED_GRIDS]
        + [(steps, None, 0) for steps in OPEN_GRIDS],
    )
    def test_orbit_images_list_every_class_once(self, steps, orbits, fixed_rows):
        grid = build_grid(steps)
        maps, images = grid.orbit_maps, grid.orbit_images
        classes = np.arange(len(grid.members))
        assert images.dtype == np.intp and not images.flags.writeable
        rows = images[0]
        assert np.array_equal(rows, np.unique(maps.min(axis=0)))  # the increasing orbit minima
        assert len(rows) == (orbits or len(classes))
        if orbits is not None:
            # R.S[i] repeats L.S[i] and LR.S[i] repeats S[i] exactly where LR fixes S[i]
            fixed = maps[3, rows] == rows
            assert int(fixed.sum()) == fixed_rows
            never = np.zeros(orbits, dtype=bool)
            assert np.array_equal(images < 0, [never, never, fixed, fixed])
        found = images >= 0
        assert np.array_equal(np.sort(images[found]), classes)
        g, i = np.nonzero(found)
        assert np.array_equal(images[g, i], maps[g, rows[i]])

    @pytest.mark.parametrize("steps", [steps for steps, _, _ in CLOSED_GRIDS] + OPEN_GRIDS)
    def test_members_list_every_strategy_once(self, steps):
        grid = build_grid(steps)
        members = grid.members
        classes = np.arange(len(grid.members))
        assert members.dtype == np.intp and not members.flags.writeable
        assert members.shape == (len(classes), 2)
        assert np.array_equal(members[:, 0], np.unique(grid.classes, return_index=True)[1])
        partnered = members[:, 1] >= 0
        assert np.array_equal(grid.classes[members[partnered, 1]], classes[partnered])
        assert np.array_equal(np.sort(members[members >= 0]), np.arange(len(grid)))
