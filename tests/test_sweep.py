import collections
import math

import numpy as np
import pytest

import ewlgames.grid
from ewlgames import (
    GameDefinition,
    RecordTable,
    bayes_sweep,
    critical_gamma,
    default_gamma_grid,
    default_p_grid,
    gamma_sweep,
    load_default_catalogue,
)
from ewlgames.circuit import EntanglementParam
from ewlgames.cli import main
from ewlgames.grid import SteppingParams, build_grid
from ewlgames.output import read_two_player_csv, write_records_csv, write_records_json
from ewlgames.sweep import BAYES_COLUMNS, TWO_PLAYER_COLUMNS, payoff_bins

from oracles import brute_force_bayes
from oracles import payoff_histogram as reference_histogram

PI = math.pi

# Derived disappearance points on the 8-strategy grid: the defect-class
# branch of the (3,0,5,1) dilemma survives while payoff 1+2sin^2(g) beats
# the cross-class alternative 5sin^2(g), i.e. up to asin(1/sqrt(3)); the
# deadlock branch (2,2) survives while 2 >= 3sin^2(g).
PD_GAMMA_CRITICAL = math.asin(1 / math.sqrt(3))
DEADLOCK_GAMMA_CRITICAL = math.asin(math.sqrt(2.0 / 3.0))


@pytest.fixture(scope="module")
def gamma_points():
    return default_gamma_grid()


@pytest.fixture(scope="module")
def pd_table(prisoners_dilemma, coarse_grid, gamma_points):
    return gamma_sweep(prisoners_dilemma, coarse_grid, gamma_points)


def rows(table, *names) -> list[tuple]:
    """The named columns' values, one tuple per record."""
    return list(zip(*(table.columns[name].tolist() for name in names)))


def keyed(table) -> list[tuple]:
    """(gamma[, p], index tuple) of each record, in record order."""
    roles = ("a", "b1", "b2") if table.bayes else ("a", "b")
    points = rows(table, "gamma", "p") if table.bayes else rows(table, "gamma")
    return [(*point, indices) for point, indices in zip(points, rows(table, *(f"{r}_index" for r in roles)))]


class TestDefaultGrids:
    def test_gamma_grid(self):
        pts = default_gamma_grid()
        assert len(pts) == 65
        assert pts[0] == 0.0
        assert pts[-1] == pytest.approx(PI / 2, abs=0)
        steps = np.diff(pts)
        np.testing.assert_allclose(steps, PI / 128, atol=1e-15)

    def test_gamma_grid_ends_at_pi_over_2(self):
        # (pi/2) * (n-1) / (n-1) rounds one ulp above pi/2 at n = 14, 27, 48,
        # 53, 84, 95, 100, ... and one ulp below at n = 12, 16, 23, ...
        for n in range(2, 2001):
            pts = default_gamma_grid(n)
            assert len(pts) == n and pts[0] == 0.0, n
            assert max(pts) <= PI / 2 and pts[-1] == PI / 2, n
        EntanglementParam(default_gamma_grid(14)[-1])

    def test_gamma_grid_keeps_the_65_point_bits(self):
        # only the endpoint is pinned; every other gamma, and so every
        # payoff of a default sweep, keeps its bits
        expected = [PI / 2 * k / 64 for k in range(65)]
        assert np.array(default_gamma_grid(65)).tobytes() == np.array(expected).tobytes()

    def test_p_grid(self):
        pts = default_p_grid()
        assert len(pts) == 21
        assert pts[0] == 0.0 and pts[-1] == 1.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            default_gamma_grid(1)


class TestGammaSweep:
    def test_pd_structure(self, pd_table, gamma_points):
        at_zero = [pays for gamma, *pays in rows(pd_table, "gamma", "payoff_a", "payoff_b") if gamma == 0.0]
        assert len(at_zero) == 16
        for payoffs in at_zero:
            assert payoffs == pytest.approx((1.0, 1.0), abs=1e-9)
        # 8 equilibria per point while the branch lives, none afterwards
        assert len(pd_table) == 16 + 25 * 8
        assert pd_table.columns["gamma"].max() == pytest.approx(25 * PI / 128, abs=0)

    def test_pd_payoffs_match_closed_form(self, pd_table):
        for gamma, alpha_a, alpha_b, payoff_a in rows(pd_table, "gamma", "alpha_a", "alpha_b", "payoff_a"):
            expected = 1 + 2 * math.sin(gamma) ** 2 * math.sin(alpha_a + alpha_b) ** 2
            assert payoff_a == pytest.approx(expected, abs=1e-9)

    def test_pd_monotone_branch(self, pd_table):
        best = {}
        for gamma, payoff_a in rows(pd_table, "gamma", "payoff_a"):
            best[gamma] = max(best.get(gamma, -1e9), payoff_a)
        gammas = sorted(best)
        assert all(best[a] <= best[b] + 1e-12 for a, b in zip(gammas, gammas[1:]))

    def test_stag_hunt_branches(self, stag_hunt, coarse_grid, gamma_points):
        table = gamma_sweep(stag_hunt, coarse_grid, gamma_points)
        by_gamma: dict[float, set[float]] = {}
        for gamma, payoff_a in rows(table, "gamma", "payoff_a"):
            by_gamma.setdefault(gamma, set()).add(round(payoff_a, 9))
        # the Pareto branch is constant through maximal entanglement
        assert set(by_gamma) == set(gamma_points)
        for g, payoffs in by_gamma.items():
            assert round(4.0, 9) in payoffs
            lower = 2 + 2 * math.sin(g) ** 2
            assert any(abs(p - lower) < 1e-9 for p in payoffs)
        # the growing branch converges onto the Pareto one at gamma=pi/2
        assert by_gamma[gamma_points[-1]] == {4.0}

    def test_matching_pennies_empty(self, matching_pennies, coarse_grid, gamma_points):
        assert len(gamma_sweep(matching_pennies, coarse_grid, gamma_points)) == 0

    def test_deterministic(self, prisoners_dilemma, coarse_grid):
        pts = default_gamma_grid(9)
        t1 = gamma_sweep(prisoners_dilemma, coarse_grid, pts)
        t2 = gamma_sweep(prisoners_dilemma, coarse_grid, pts)
        assert len(t1) > 0 and list(t1.columns) == list(t2.columns)
        for name, column in t1.columns.items():
            assert column.tobytes() == t2.columns[name].tobytes(), name

    def test_sorted_by_gamma_then_indices(self, pd_table):
        keys = keyed(pd_table)
        assert keys == sorted(keys)


class TestCriticalGamma:
    def test_pd_bracket(self, pd_table, gamma_points):
        bracket = critical_gamma(pd_table, gamma_points)
        assert bracket is not None
        assert bracket.last_gamma_with == pytest.approx(25 * PI / 128, abs=0)
        assert bracket.first_gamma_without == pytest.approx(26 * PI / 128, abs=0)
        assert bracket.last_gamma_with < PD_GAMMA_CRITICAL < bracket.first_gamma_without
        assert 0.0 < bracket.last_gamma_with < PI / 2
        assert bracket.branch_payoff_at_last == pytest.approx(
            (1 + 2 * math.sin(bracket.last_gamma_with) ** 2,) * 2, abs=1e-9
        )

    def test_deadlock_bracket(self, deadlock, coarse_grid, gamma_points):
        table = gamma_sweep(deadlock, coarse_grid, gamma_points)
        for payoffs in rows(table, "payoff_a", "payoff_b"):
            assert payoffs == pytest.approx((2.0, 2.0), abs=1e-9)
        bracket = critical_gamma(table, gamma_points)
        assert bracket.last_gamma_with == pytest.approx(38 * PI / 128, abs=0)
        assert bracket.first_gamma_without == pytest.approx(39 * PI / 128, abs=0)
        assert bracket.last_gamma_with < DEADLOCK_GAMMA_CRITICAL < bracket.first_gamma_without

    def test_persistent_branch_has_no_bracket(self, stag_hunt, coarse_grid, gamma_points):
        table = gamma_sweep(stag_hunt, coarse_grid, gamma_points)
        pareto = critical_gamma(table, gamma_points, np.abs(table.columns["payoff_a"] - 4.0) < 1e-6)
        assert pareto is None

    def test_empty_records(self, matching_pennies, coarse_grid, gamma_points):
        assert critical_gamma(gamma_sweep(matching_pennies, coarse_grid, [0.0]), gamma_points) is None

    def test_selector_matching_nothing(self, pd_table, gamma_points):
        assert critical_gamma(pd_table, gamma_points, np.zeros(len(pd_table), dtype=bool)) is None

    @pytest.mark.parametrize(
        "rows",
        [
            lambda n: np.ones(3, dtype=bool),
            lambda n: np.ones(n + 1, dtype=bool),
            lambda n: np.array([5]),
            lambda n: np.arange(n),
            lambda n: np.zeros((1, n), dtype=bool),
        ],
        ids=["short-mask", "long-mask", "index-array", "full-index-array", "2-d-mask"],
    )
    def test_rows_that_are_not_a_mask_of_the_table_are_refused(self, pd_table, gamma_points, rows):
        with pytest.raises(ValueError, match=f"rows must be a boolean mask of {len(pd_table)} entries"):
            critical_gamma(pd_table, gamma_points, rows(len(pd_table)))

    def test_mask_selects_the_branch_and_its_payoffs(self, prisoners_dilemma, deadlock, coarse_grid):
        # the p = 1 rows bracket like the dilemma alone and the p = 0 rows
        # like the deadlock; a Bayesian bracket carries all three payoffs
        points = default_gamma_grid(17)
        table = bayes_sweep(prisoners_dilemma, deadlock, coarse_grid, points, [0.0, 1.0])
        for p, game in ((1.0, prisoners_dilemma), (0.0, deadlock)):
            got = critical_gamma(table, points, table.columns["p"] == p)
            expected = critical_gamma(gamma_sweep(game, coarse_grid, points), points)
            assert (got.last_gamma_with, got.first_gamma_without) == (
                expected.last_gamma_with, expected.first_gamma_without
            )
            assert len(got.branch_payoff_at_last) == 3
            assert got.branch_payoff_at_last[0] == pytest.approx(expected.branch_payoff_at_last[0], abs=1e-12)

    def test_records_read_from_a_csv_bracket_like_the_sweep(self, tmp_path, prisoners_dilemma, coarse_grid):
        # the CSV prints gamma to 12 digits, so the read gammas are not grid points
        points = default_gamma_grid(9)
        table = gamma_sweep(prisoners_dilemma, coarse_grid, points)
        path = tmp_path / "sweep.csv"
        write_records_csv(path, table, bayes=False)
        read = read_two_player_csv(path)
        assert set(read.gamma_values) - set(points)
        expected, got = critical_gamma(table, points), critical_gamma(read, points)
        assert expected.last_gamma_with == 3 * PI / 16
        assert got.last_gamma_with == expected.last_gamma_with
        assert got.first_gamma_without == expected.first_gamma_without
        assert got.branch_payoff_at_last == pytest.approx(expected.branch_payoff_at_last, abs=1e-9)

    def test_gamma_off_the_sweep_points_is_named(self, pd_table):
        off_grid = RecordTable({
            name: np.array([0.3001 if name == "gamma" else 0], dtype=np.int64 if name.endswith("index") else np.float64)
            for name in TWO_PLAYER_COLUMNS
        })
        with pytest.raises(ValueError, match=r"record gamma 0\.3001 "):
            critical_gamma(off_grid, [0.0, 0.3001 - 2e-9, 0.3001 + 2e-9, PI / 2])
        with pytest.raises(ValueError, match=r"record gamma 0\.0 "):
            critical_gamma(pd_table, [], pd_table.columns["gamma"] == 0.0)


class TestBayesSweep:
    def test_boundary_projections(self, prisoners_dilemma, deadlock, coarse_grid):
        pts = default_gamma_grid(9)
        pp = default_p_grid(5)
        bayes = bayes_sweep(prisoners_dilemma, deadlock, coarse_grid, pts, pp)

        def two_player_set(game):
            table = gamma_sweep(game, coarse_grid, pts)
            return {(g, a, b, round(pay, 12)) for g, a, b, pay in rows(table, "gamma", "a_index", "b_index", "payoff_a")}

        def projection(p_value, b_role):
            return {
                (g, a, b, round(pay, 12))
                for g, p, a, b, pay in rows(bayes, "gamma", "p", "a_index", f"{b_role}_index", "payoff_a")
                if p == p_value
            }

        assert projection(1.0, "b1") == two_player_set(prisoners_dilemma)
        assert projection(0.0, "b2") == two_player_set(deadlock)

    def test_zero_entanglement_matches_classical_mixture(
        self, prisoners_dilemma, deadlock, coarse_grid, solver_tables
    ):
        tables = [t.tolist() for t in solver_tables([prisoners_dilemma, deadlock], coarse_grid, 0.0, "members")]
        for p in (0.0, 0.25, 0.5, 1.0):
            table = bayes_sweep(prisoners_dilemma, deadlock, coarse_grid, [0.0], [p])
            got = sorted(rows(table, "a_index", "b1_index", "b2_index"))
            expected = brute_force_bayes(*tables, p, 1e-9)
            assert got == expected

    def test_same_game_twice_is_p_independent(self, prisoners_dilemma, coarse_grid):
        pts = default_gamma_grid(5)
        bayes = bayes_sweep(prisoners_dilemma, prisoners_dilemma, coarse_grid, pts, [0.25, 0.75])
        by_p = {}
        for gamma, p, indices in keyed(bayes):
            by_p.setdefault(p, []).append((gamma, indices))
        assert by_p[0.25] == by_p[0.75]
        two = {(gamma, *indices) for gamma, indices in keyed(gamma_sweep(prisoners_dilemma, coarse_grid, pts))}
        diag = {(gamma, a, b1) for gamma, p, (a, b1, b2) in keyed(bayes) if p == 0.25 and b1 == b2}
        assert diag == two

    def test_shared_candidates_match_one_sweep_per_point(self, prisoners_dilemma, deadlock, coarse_grid):
        # bayes_sweep shares one candidate set per gamma across the priors;
        # it must give exactly what one sweep per (gamma, p) gives
        gammas, priors = [0.0, 0.35, PI / 2], [0.0, 0.4, 1.0]
        table = bayes_sweep(prisoners_dilemma, deadlock, coarse_grid, gammas, priors)
        parts = [bayes_sweep(prisoners_dilemma, deadlock, coarse_grid, [g], [p]) for g in gammas for p in priors]
        # every point but the empty gamma = pi/2 contributes
        points = set(rows(table, "gamma", "p"))
        assert points == {(g, p) for g in gammas[:2] for p in priors}
        for name, column in table.columns.items():
            assert column.tobytes() == np.concatenate([part.columns[name] for part in parts]).tobytes(), name
        for role in ("a", "b1", "b2"):
            for k, angle in enumerate(("theta", "phi", "alpha")):
                expected = [coarse_grid.params[i].astuple()[k] for i in table.columns[f"{role}_index"].tolist()]
                assert table.columns[f"{angle}_{role}"].tolist() == expected

    def test_record_ordering(self, prisoners_dilemma, deadlock, coarse_grid):
        pts = default_gamma_grid(5)
        pp = default_p_grid(3)
        keys = keyed(bayes_sweep(prisoners_dilemma, deadlock, coarse_grid, pts, pp))
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "names",
        [
            ("prisoners_dilemma", "stag_hunt"),
            ("prisoners_dilemma", "deadlock"),
            ("stag_hunt", "das_brother"),
            ("matching_pennies", "prisoners_dilemma"),
        ],
        ids=["pd-stag", "pd-deadlock", "stag-das", "pennies-pd"],
    )
    @pytest.mark.parametrize("steps", [(PI, PI / 2, PI / 2), (PI / 4, PI / 4, PI / 4)], ids=["8", "208"])
    def test_swapping_the_games_and_the_priors_swaps_b1_and_b2(self, names, steps):
        # bayes_sweep(g2, g1, 1 - p) is bayes_sweep(g1, g2, p) with B1 and B2
        # exchanged, index for index. 1 - (1 - p) != p for 6 of the 21 priors,
        # so A's payoffs agree only to rounding.
        catalogue = load_default_catalogue()
        game1, game2 = (catalogue.get(name) for name in names)
        grid = build_grid(SteppingParams(*steps))
        gammas, priors = default_gamma_grid(9), default_p_grid(21)
        table = bayes_sweep(game1, game2, grid, gammas, priors)
        swapped = bayes_sweep(game2, game1, grid, gammas, [1 - p for p in priors])
        prior_of = {1 - p: p for p in priors}

        def ordered(t, p, b1, b2):
            keys = [t.columns["gamma"], p, t.columns["a_index"], t.columns[f"{b1}_index"], t.columns[f"{b2}_index"]]
            order = np.lexsort(keys[::-1])
            payoffs = [t.columns[f"payoff_{role}"][order] for role in ("a", b1, b2)]
            return np.stack([key[order] for key in keys]), np.stack(payoffs)

        want_keys, want_payoffs = ordered(table, table.columns["p"], "b1", "b2")
        swapped_p = np.array([prior_of[p] for p in swapped.columns["p"].tolist()])
        got_keys, got_payoffs = ordered(swapped, swapped_p, "b2", "b1")
        assert len(table) == len(swapped) > 0
        assert np.array_equal(got_keys, want_keys)
        assert np.abs(got_payoffs - want_payoffs).max() <= 1e-12

    def test_wide_tie_sets_on_the_pi4_grid(self, stag_hunt):
        # DA's brother's B tie sets are wide: up to 1024 records at one point
        # of a 208-strategy grid. No benchmark workload reaches such ties.
        das_brother = load_default_catalogue().get("das_brother")
        grid = build_grid(SteppingParams(PI / 4, PI / 4, PI / 4))
        table = bayes_sweep(stag_hunt, das_brother, grid, default_gamma_grid(3), default_p_grid(3))
        assert len(grid) == 208 and len(table) == 7232
        points = zip(table.columns["gamma"].tolist(), table.columns["p"].tolist())
        counts = [n for _, n in sorted(collections.Counter(points).items())]
        assert counts == [512, 1024, 1024, 512, 832, 832, 832, 832, 832]


class TestBufferReuse:
    """A sweep writes every gamma's tables into one set of buffers; no
    gamma's records may depend on what an earlier gamma left there."""

    # out of order and with a repeat, so each step follows a different gamma
    GAMMAS = [PI / 2, 0.0, 0.35, PI / 8, 1.2, 0.0, 0.7]

    @pytest.fixture(scope="class")
    def eighth_grid(self):
        grid = build_grid(SteppingParams(PI / 8, PI / 8, PI / 8))
        # the orbit maps are active and LR fixes some orbit rows
        rows = grid.orbit_images[0]
        assert len(grid.orbit_maps) == 4 and (grid.orbit_maps[3][rows] == rows).any()
        return grid

    @staticmethod
    def assert_concatenation(table, parts):
        for name, column in table.columns.items():
            want = np.concatenate([part.columns[name] for part in parts])
            assert column.dtype == want.dtype and np.array_equal(column, want), name

    @pytest.mark.parametrize("name", load_default_catalogue().names)
    def test_gamma_sweep_equals_one_gamma_sweeps(self, eighth_grid, name):
        game = load_default_catalogue().get(name)
        table = gamma_sweep(game, eighth_grid, self.GAMMAS)
        self.assert_concatenation(table, [gamma_sweep(game, eighth_grid, [g]) for g in self.GAMMAS])

    def test_bayes_sweep_equals_one_gamma_sweeps(self, eighth_grid, stag_hunt, deadlock):
        priors = [0.0, 0.3, 1.0]
        table = bayes_sweep(stag_hunt, deadlock, eighth_grid, self.GAMMAS, priors)
        parts = [bayes_sweep(stag_hunt, deadlock, eighth_grid, [g], priors) for g in self.GAMMAS]
        self.assert_concatenation(table, parts)


class TestNegativeZero:
    """A -0.0 gamma or prior is recorded as 0.0, as the CLI's '-0' is."""

    def test_gamma_sweep(self, stag_hunt, coarse_grid):
        minus, plus = (gamma_sweep(stag_hunt, coarse_grid, [g, 0.35]) for g in (-0.0, 0.0))
        assert len(minus) > 0
        for name, column in minus.columns.items():
            assert column.tobytes() == plus.columns[name].tobytes(), name

    def test_bayes_sweep(self, prisoners_dilemma, deadlock, coarse_grid):
        minus, plus = (
            bayes_sweep(prisoners_dilemma, deadlock, coarse_grid, [zero, 0.35], [zero, 0.5])
            for zero in (-0.0, 0.0)
        )
        assert len(minus) > 0
        for name, column in minus.columns.items():
            assert column.tobytes() == plus.columns[name].tobytes(), name


class TestFeaturePass:
    def test_one_feature_pass_per_grid(self, monkeypatch, prisoners_dilemma, deadlock):
        # Every gamma of both sweeps reads the grid's features; build_grid
        # computes them once, for the 912 class representatives.
        steps = SteppingParams(PI / 8, PI / 8, PI / 8)

        def tables(grid):
            return (
                gamma_sweep(prisoners_dilemma, grid, default_gamma_grid(65)),
                bayes_sweep(prisoners_dilemma, deadlock, grid, default_gamma_grid(5), default_p_grid(5)),
            )

        expected = tables(build_grid(steps))
        calls = []
        features = ewlgames.grid.rotation_features

        def counted(mats):
            calls.append(len(mats))
            return features(mats)

        monkeypatch.setattr(ewlgames.grid, "rotation_features", counted)
        got = tables(build_grid(steps))
        assert calls == [912]
        for table, want in zip(got, expected, strict=True):
            assert len(table) > 0 and table.columns.keys() == want.columns.keys()
            for name, column in table.columns.items():
                assert np.array_equal(column, want.columns[name]), name


@pytest.fixture(scope="module")
def bayes_case(prisoners_dilemma, deadlock, coarse_grid):
    return (prisoners_dilemma, deadlock, coarse_grid, [0.0, 0.35, PI / 2], [0.0, 0.4, 1.0])


class TestRecordTables:
    STEPS = "pi/4,pi/4,pi/4"

    def test_library_csv_equals_the_sweep_command(self, tmp_path):
        cli_out, lib_out = tmp_path / "cli.csv", tmp_path / "lib.csv"
        argv = ["sweep", "--game", "stag_hunt", "--steps", self.STEPS, "--gamma-grid", "9"]
        assert main([*argv, "--out", str(cli_out)]) == 0
        grid = build_grid(SteppingParams(PI / 4, PI / 4, PI / 4))
        table = gamma_sweep(load_default_catalogue().get("stag_hunt"), grid, default_gamma_grid(9))
        assert not table.bayes and len(table) > 0
        write_records_csv(lib_out, table, bayes=False)
        assert lib_out.read_bytes() == cli_out.read_bytes()

    def test_library_json_equals_the_bayes_sweep_command(self, tmp_path):
        cli_out, lib_out = tmp_path / "cli.json", tmp_path / "lib.json"
        argv = [
            "bayes-sweep", "--game", "prisoners_dilemma", "--game2", "deadlock", "--steps", self.STEPS,
            "--gamma-grid", "5", "--p-grid", "5", "--format", "json",
        ]
        assert main([*argv, "--out", str(cli_out)]) == 0
        grid = build_grid(SteppingParams(PI / 4, PI / 4, PI / 4))
        catalogue = load_default_catalogue()
        table = bayes_sweep(
            catalogue.get("prisoners_dilemma"), catalogue.get("deadlock"),
            grid, default_gamma_grid(5), default_p_grid(5),
        )
        assert table.bayes and len(table) > 0
        metadata = {
            "command": "bayes-sweep",
            "game": "prisoners_dilemma",
            "game2": "deadlock",
            "steps": list(grid.source_steps.astuple()),
            "gamma_points": 5,
            "p_points": 5,
            "epsilon": 1e-9,
            "grid_size": len(grid),
        }
        write_records_json(lib_out, table, bayes=True, metadata=metadata)
        assert lib_out.read_bytes() == cli_out.read_bytes()

    def test_columns_are_writable_and_own_their_memory(self, bayes_case):
        game1, game2, grid, gammas, priors = bayes_case
        for table in (gamma_sweep(game1, grid, gammas), bayes_sweep(game1, game2, grid, gammas, priors)):
            assert len(table) > 0
            for name, column in table.columns.items():
                assert column.flags.writeable, name
                assert not np.shares_memory(column, grid.angles), name

    def test_eq_index_restarts_at_every_point(self, bayes_case):
        table = bayes_sweep(*bayes_case)
        expected, counts = [], {}
        for gamma, p in zip(table.columns["gamma"].tolist(), table.columns["p"].tolist()):
            expected.append(counts.get((gamma, p), 0))
            counts[(gamma, p)] = expected[-1] + 1
        assert len(counts) == 6  # gamma = pi/2 has no equilibria
        assert table.columns["eq_index"].tolist() == expected

    def test_angles_are_the_grid_params(self, bayes_case):
        table = bayes_sweep(*bayes_case)
        grid = bayes_case[2]
        for role in ("a", "b1", "b2"):
            index = table.columns[f"{role}_index"].tolist()
            for k, angle in enumerate(("theta", "phi", "alpha")):
                expected = [grid.params[i].astuple()[k] for i in index]
                assert table.columns[f"{angle}_{role}"].tolist() == expected

    def test_empty_sweeps_keep_the_schema_and_dtypes(self, matching_pennies, prisoners_dilemma, coarse_grid):
        for table, names in (
            (gamma_sweep(matching_pennies, coarse_grid, [0.0, 0.5]), TWO_PLAYER_COLUMNS),
            (gamma_sweep(matching_pennies, coarse_grid, []), TWO_PLAYER_COLUMNS),
            (bayes_sweep(prisoners_dilemma, matching_pennies, coarse_grid, [], [0.5]), BAYES_COLUMNS),
        ):
            assert len(table) == 0 and list(table.columns) == names
            for name, col in table.columns.items():
                assert col.dtype == (np.int64 if name.endswith("index") else np.float64)


class TestThetaColumns:
    def test_pd_classical_all_defect(self, pd_table):
        points = [(a, b) for gamma, a, b in rows(pd_table, "gamma", "theta_a", "theta_b") if gamma == 0.0]
        assert points == [(PI, PI)] * 16

    def test_symmetric_game_scatter_mirrors(self, stag_hunt, coarse_grid):
        table = gamma_sweep(stag_hunt, coarse_grid, default_gamma_grid(9))
        points = set(rows(table, "theta_a", "theta_b"))
        assert points == {(b, a) for a, b in points}


class TestPayoffBins:
    def test_single_record(self):
        hist = payoff_bins([0.5], [3.0], 0.5, 0.1)
        assert len(hist) == 1
        assert hist[0][0] == pytest.approx(3.05, abs=1e-12)
        assert hist[0][1] == 1

    def test_equal_payoffs_share_a_bin(self):
        assert payoff_bins([0.5, 0.5], [2.0, 2.0], 0.5, 0.5) == [(2.25, 2)]

    def test_other_gammas_excluded(self):
        assert payoff_bins([0.5, 0.6], [2.0, 9.0], 0.5, 0.5) == [(2.25, 1)]

    @pytest.mark.parametrize("bin_width", [1e-300, 0.05, 0.1, 0.3])
    def test_bins_equal_integer_bin_arithmetic(self, bin_width):
        # float bin indices give the centers that Python-int indices give,
        # also where k = payoff / 1e-300 is far past the int64 range
        payoffs = [0.0, -0.0, 1.0, 2.5, 2.5, 3.0, 3.999, 4.0, -1.5, 1e-300, 5e-301, 0.15, 0.45]
        points = [(0.5, x) for x in payoffs] + [(0.6, 7.0)]
        hist = payoff_bins(*zip(*points), 0.5, bin_width)
        expected = reference_histogram(points, 0.5, bin_width)
        assert hist == expected
        assert [(type(c), type(n)) for c, n in hist] == [(float, int)] * len(expected)

    @pytest.mark.parametrize("payoff,bin_width", [(5.0, 1e-310), (math.inf, 0.05), (math.nan, 0.05)])
    def test_unbinnable_payoff_raises(self, payoff, bin_width):
        with pytest.raises(ValueError, match="cannot bin payoff"):
            payoff_bins([0.5, 0.5], [1.0, payoff], 0.5, bin_width)

    def test_bad_bin_width(self):
        for bin_width in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                payoff_bins([], [], 0.5, bin_width)

    def test_desk_scale_favored_dilemma_regression(self):
        # Asymmetric single-equilibrium game on the pi/4 grid, sliced at the
        # sweep point nearest 0.7: multimodal, with most equilibria within
        # 0.35 of the constant branch at 5 (frozen from a reference run).
        game = GameDefinition("favored", (5, 2, 4, 1), (4, 3, 0, 1))
        grid = build_grid(SteppingParams(PI / 4, PI / 4, PI / 4))
        g = 29 * PI / 128
        columns = gamma_sweep(game, grid, [g]).columns
        hist = payoff_bins(columns["gamma"], columns["payoff_a"], g, 0.05)
        assert [(round(c, 9), n) for c, n in hist] == [
            (4.175, 32),
            (4.725, 32),
            (4.775, 64),
            (4.825, 32),
            (5.025, 16),
        ]
        assert len(hist) >= 2
        near_pareto = sum(n for c, n in hist if abs(c - 5.0) < 0.35)
        assert near_pareto > sum(n for _, n in hist) / 2
