import math

import numpy as np
import pytest

from ewlgames import (
    GameDefinition,
    RecordTable,
    StrategyParams,
    bayes_sweep,
    critical_gamma,
    default_gamma_grid,
    default_p_grid,
    gamma_sweep,
    load_default_catalogue,
)
from ewlgames.circuit import EntanglementParam
from ewlgames.cli import main
from ewlgames.equilibrium import NashEquilibrium, PriorProbability, nash_bayesian, payoff_tensor
from ewlgames.grid import SteppingParams, build_grid
from ewlgames.output import read_two_player_csv, record_columns, write_records_csv, write_records_json
from ewlgames.sweep import BAYES_COLUMNS, TWO_PLAYER_COLUMNS, SweepRecord, payoff_histogram, scatter_theta

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


@pytest.fixture(scope="module")
def pd_records(pd_table):
    return pd_table.records


class TestDefaultGrids:
    def test_gamma_grid(self):
        pts = default_gamma_grid()
        assert len(pts) == 65
        assert pts[0] == 0.0
        assert pts[-1] == pytest.approx(PI / 2, abs=0)
        steps = np.diff(pts)
        np.testing.assert_allclose(steps, PI / 128, atol=1e-15)

    def test_p_grid(self):
        pts = default_p_grid()
        assert len(pts) == 21
        assert pts[0] == 0.0 and pts[-1] == 1.0

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            default_gamma_grid(1)


class TestGammaSweep:
    def test_pd_structure(self, pd_records, gamma_points):
        at_zero = [r for r in pd_records if r.gamma == 0.0]
        assert len(at_zero) == 16
        for r in at_zero:
            assert r.equilibrium.payoffs == pytest.approx((1.0, 1.0), abs=1e-9)
        # 8 equilibria per point while the branch lives, none afterwards
        assert len(pd_records) == 16 + 25 * 8
        assert max(r.gamma for r in pd_records) == pytest.approx(25 * PI / 128, abs=0)

    def test_pd_payoffs_match_closed_form(self, pd_records):
        for r in pd_records:
            expected = 1 + 2 * math.sin(r.gamma) ** 2 * math.sin(
                r.strategy_params[0].alpha + r.strategy_params[1].alpha
            ) ** 2
            assert r.equilibrium.payoffs[0] == pytest.approx(expected, abs=1e-9)

    def test_pd_monotone_branch(self, pd_records):
        best = {}
        for r in pd_records:
            best[r.gamma] = max(best.get(r.gamma, -1e9), r.equilibrium.payoffs[0])
        gammas = sorted(best)
        assert all(best[a] <= best[b] + 1e-12 for a, b in zip(gammas, gammas[1:]))

    def test_stag_hunt_branches(self, stag_hunt, coarse_grid, gamma_points):
        records = gamma_sweep(stag_hunt, coarse_grid, gamma_points).records
        by_gamma: dict[float, set[float]] = {}
        for r in records:
            by_gamma.setdefault(r.gamma, set()).add(round(r.equilibrium.payoffs[0], 9))
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
        r1 = gamma_sweep(prisoners_dilemma, coarse_grid, pts).records
        r2 = gamma_sweep(prisoners_dilemma, coarse_grid, pts).records
        assert r1 == r2

    def test_sorted_by_gamma_then_indices(self, pd_records):
        keys = [(r.gamma, r.equilibrium.strategy_indices) for r in pd_records]
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
        for r in table.records:
            assert r.equilibrium.payoffs == pytest.approx((2.0, 2.0), abs=1e-9)
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
        off_grid = RecordTable(record_columns([_record(0.3001, 1.0)]))
        with pytest.raises(ValueError, match=r"record gamma 0\.3001 "):
            critical_gamma(off_grid, [0.0, 0.3001 - 2e-9, 0.3001 + 2e-9, PI / 2])
        with pytest.raises(ValueError, match=r"record gamma 0\.0 "):
            critical_gamma(pd_table, [], pd_table.columns["gamma"] == 0.0)


class TestBayesSweep:
    def test_boundary_projections(self, prisoners_dilemma, deadlock, coarse_grid):
        pts = default_gamma_grid(9)
        pp = default_p_grid(5)
        brecs = bayes_sweep(prisoners_dilemma, deadlock, coarse_grid, pts, pp).records

        def two_player_set(game):
            return {
                (r.gamma, *r.equilibrium.strategy_indices, round(r.equilibrium.payoffs[0], 12))
                for r in gamma_sweep(game, coarse_grid, pts).records
            }

        proj_p1 = {
            (r.gamma, r.equilibrium.strategy_indices[0], r.equilibrium.strategy_indices[1],
             round(r.equilibrium.payoffs[0], 12))
            for r in brecs if r.p == 1.0
        }
        proj_p0 = {
            (r.gamma, r.equilibrium.strategy_indices[0], r.equilibrium.strategy_indices[2],
             round(r.equilibrium.payoffs[0], 12))
            for r in brecs if r.p == 0.0
        }
        assert proj_p1 == two_player_set(prisoners_dilemma)
        assert proj_p0 == two_player_set(deadlock)

    def test_zero_entanglement_matches_classical_mixture(
        self, prisoners_dilemma, deadlock, coarse_grid
    ):
        t1 = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(0.0))
        t2 = payoff_tensor(deadlock, coarse_grid, EntanglementParam(0.0))
        for p in (0.0, 0.25, 0.5, 1.0):
            brecs = bayes_sweep(
                prisoners_dilemma, deadlock, coarse_grid, [0.0], [p]
            ).records
            got = sorted(r.equilibrium.strategy_indices for r in brecs)
            expected = brute_force_bayes(
                t1.payoff_a.tolist(), t1.payoff_b.tolist(),
                t2.payoff_a.tolist(), t2.payoff_b.tolist(), p, 1e-9,
            )
            assert got == expected

    def test_same_game_twice_is_p_independent(self, prisoners_dilemma, coarse_grid):
        pts = default_gamma_grid(5)
        brecs = bayes_sweep(prisoners_dilemma, prisoners_dilemma, coarse_grid, pts, [0.25, 0.75]).records
        by_p = {}
        for r in brecs:
            by_p.setdefault(r.p, []).append((r.gamma, r.equilibrium.strategy_indices))
        assert by_p[0.25] == by_p[0.75]
        two = {
            (r.gamma, *r.equilibrium.strategy_indices)
            for r in gamma_sweep(prisoners_dilemma, coarse_grid, pts).records
        }
        diag = {
            (r.gamma, r.equilibrium.strategy_indices[0], r.equilibrium.strategy_indices[1])
            for r in brecs
            if r.p == 0.25
            and r.equilibrium.strategy_indices[1] == r.equilibrium.strategy_indices[2]
        }
        assert diag == two

    def test_matches_nash_bayesian_per_point(self, prisoners_dilemma, deadlock, coarse_grid):
        # bayes_sweep shares one candidate set per gamma across the priors;
        # it must give exactly what one nash_bayesian call per (gamma, p) gives
        gammas, priors = [0.0, 0.35, PI / 2], [0.0, 0.4, 1.0]
        brecs = bayes_sweep(prisoners_dilemma, deadlock, coarse_grid, gammas, priors).records
        expected = []
        for g in gammas:
            t1 = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(g))
            t2 = payoff_tensor(deadlock, coarse_grid, EntanglementParam(g))
            for p in priors:
                expected.extend(
                    (g, p, eq.strategy_indices, eq.payoffs)
                    for eq in nash_bayesian(t1, t2, PriorProbability(p))
                )
        got = [
            (r.gamma, r.p, r.equilibrium.strategy_indices, r.equilibrium.payoffs) for r in brecs
        ]
        # every point but the empty gamma = pi/2 contributes
        assert {(g, p) for g, p, _, _ in got} == {(g, p) for g in gammas[:2] for p in priors}
        assert got == expected
        for r in brecs:
            assert r.strategy_params == tuple(
                coarse_grid.params[k] for k in r.equilibrium.strategy_indices
            )

    def test_record_ordering(self, prisoners_dilemma, deadlock, coarse_grid):
        pts = default_gamma_grid(5)
        pp = default_p_grid(3)
        brecs = bayes_sweep(prisoners_dilemma, deadlock, coarse_grid, pts, pp).records
        keys = [(r.gamma, r.p, r.equilibrium.strategy_indices) for r in brecs]
        assert keys == sorted(keys)


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

    @pytest.mark.parametrize("bayes", [False, True], ids=["two-player", "bayes"])
    def test_record_columns_equal_the_table_bit_for_bit(self, bayes_case, bayes):
        game1, game2, grid, gammas, priors = bayes_case
        table = bayes_sweep(*bayes_case) if bayes else gamma_sweep(game1, grid, gammas)
        columns = record_columns(table.records, bayes=bayes)
        assert list(columns) == list(table.columns) == (BAYES_COLUMNS if bayes else TWO_PLAYER_COLUMNS)
        for name, col in table.columns.items():
            assert col.dtype == columns[name].dtype == (np.int64 if name.endswith("index") else np.float64)
            assert col.tobytes() == columns[name].tobytes(), name

    def test_eq_index_restarts_at_every_point(self, bayes_case):
        table = bayes_sweep(*bayes_case)
        expected, counts = [], {}
        for gamma, p in zip(table.columns["gamma"].tolist(), table.columns["p"].tolist()):
            expected.append(counts.get((gamma, p), 0))
            counts[(gamma, p)] = expected[-1] + 1
        assert len(counts) == 6  # gamma = pi/2 has no equilibria
        assert table.columns["eq_index"].tolist() == expected
        assert record_columns(table.records, bayes=True)["eq_index"].tolist() == expected

    def test_angles_are_the_grid_params(self, bayes_case):
        table = bayes_sweep(*bayes_case)
        grid = bayes_case[2]
        for role in ("a", "b1", "b2"):
            index = table.columns[f"{role}_index"].tolist()
            for k, angle in enumerate(("theta", "phi", "alpha")):
                expected = [grid.params[i].astuple()[k] for i in index]
                assert table.columns[f"{angle}_{role}"].tolist() == expected

    def test_records_keep_the_angle_bits(self):
        # -0.0 and 0.0 angles in one column: the records share StrategyParams
        # per distinct triple, told apart by bits
        signed = np.array([0.0, -0.0, PI, 0.0, -0.0])
        columns = {
            "gamma": np.array([0.1, 0.1, 0.2, 0.2, 0.2]),
            "eq_index": np.array([0, 1, 0, 1, 2]),
            "a_index": np.array([0, 1, 2, 0, 1]),
            "b_index": np.array([3, 3, 3, 3, 4]),
            **{f"{angle}_{role}": signed[::-1].copy() if role == "b" else signed.copy()
               for role in ("a", "b") for angle in ("theta", "phi", "alpha")},
            "payoff_a": np.array([1.0, -0.0, 0.0, 2.5, 2.5]),
            "payoff_b": np.array([0.0, 0.0, 1.0, 1.0, 1.0]),
        }
        table = RecordTable({name: columns[name] for name in TWO_PLAYER_COLUMNS})
        records = table.records
        assert records[0].strategy_params[0] is records[3].strategy_params[0]
        assert records[0].strategy_params[0] is not records[1].strategy_params[0]
        rebuilt = record_columns(records)
        for name, col in table.columns.items():
            assert rebuilt[name].tobytes() == col.astype(rebuilt[name].dtype).tobytes(), name

    def test_empty_sweeps_keep_the_schema_and_dtypes(self, matching_pennies, prisoners_dilemma, coarse_grid):
        for table, names in (
            (gamma_sweep(matching_pennies, coarse_grid, [0.0, 0.5]), TWO_PLAYER_COLUMNS),
            (gamma_sweep(matching_pennies, coarse_grid, []), TWO_PLAYER_COLUMNS),
            (bayes_sweep(prisoners_dilemma, matching_pennies, coarse_grid, [], [0.5]), BAYES_COLUMNS),
        ):
            assert len(table) == 0 and table.records == [] and list(table.columns) == names
            for name, col in table.columns.items():
                assert col.dtype == (np.int64 if name.endswith("index") else np.float64)


class TestScatterTheta:
    def test_pd_classical_all_defect(self, pd_records):
        points = scatter_theta([r for r in pd_records if r.gamma == 0.0])
        assert points == [(PI, PI)] * 16

    def test_symmetric_game_scatter_mirrors(self, stag_hunt, coarse_grid):
        records = gamma_sweep(stag_hunt, coarse_grid, default_gamma_grid(9)).records
        points = set(scatter_theta(records))
        assert points == {(b, a) for a, b in points}

    def test_empty(self):
        assert scatter_theta([]) == []


def _record(gamma: float, payoff_a: float) -> SweepRecord:
    eq = NashEquilibrium(strategy_indices=(0, 0), payoffs=(payoff_a, payoff_a))
    p = StrategyParams(0, 0, 0)
    return SweepRecord(gamma=gamma, p=None, equilibrium=eq, strategy_params=(p, p))


class TestPayoffHistogram:
    def test_single_record(self):
        hist = payoff_histogram([_record(0.5, 3.0)], 0.5, 0.1)
        assert len(hist) == 1
        assert hist[0][0] == pytest.approx(3.05, abs=1e-12)
        assert hist[0][1] == 1

    def test_equal_payoffs_share_a_bin(self):
        records = [_record(0.5, 2.0), _record(0.5, 2.0)]
        assert payoff_histogram(records, 0.5, 0.5) == [(2.25, 2)]

    def test_other_gammas_excluded(self):
        records = [_record(0.5, 2.0), _record(0.6, 9.0)]
        assert payoff_histogram(records, 0.5, 0.5) == [(2.25, 1)]

    @pytest.mark.parametrize("bin_width", [1e-300, 0.05, 0.1, 0.3])
    def test_bins_equal_integer_bin_arithmetic(self, bin_width):
        # float bin indices give the centers that Python-int indices give,
        # also where k = payoff / 1e-300 is far past the int64 range
        payoffs = [0.0, -0.0, 1.0, 2.5, 2.5, 3.0, 3.999, 4.0, -1.5, 1e-300, 5e-301, 0.15, 0.45]
        records = [_record(0.5, x) for x in payoffs] + [_record(0.6, 7.0)]
        hist = payoff_histogram(records, 0.5, bin_width)
        expected = reference_histogram([(r.gamma, r.equilibrium.payoffs[0]) for r in records], 0.5, bin_width)
        assert hist == expected
        assert [(type(c), type(n)) for c, n in hist] == [(float, int)] * len(expected)

    @pytest.mark.parametrize("payoff,bin_width", [(5.0, 1e-310), (math.inf, 0.05), (math.nan, 0.05)])
    def test_unbinnable_payoff_raises(self, payoff, bin_width):
        with pytest.raises(ValueError, match="cannot bin payoff"):
            payoff_histogram([_record(0.5, 1.0), _record(0.5, payoff)], 0.5, bin_width)

    def test_bad_bin_width(self):
        for bin_width in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                payoff_histogram([], 0.5, bin_width)

    def test_desk_scale_favored_dilemma_regression(self):
        # Asymmetric single-equilibrium game on the pi/4 grid, sliced at the
        # sweep point nearest 0.7: multimodal, with most equilibria within
        # 0.35 of the constant branch at 5 (frozen from a reference run).
        game = GameDefinition("favored", (5, 2, 4, 1), (4, 3, 0, 1))
        grid = build_grid(SteppingParams(PI / 4, PI / 4, PI / 4))
        g = 29 * PI / 128
        records = gamma_sweep(game, grid, [g]).records
        hist = payoff_histogram(records, g, 0.05)
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
