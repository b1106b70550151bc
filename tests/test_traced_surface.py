"""The object adapters that the benchmark's traced mirror (perfbench/traced.py)
still calls, pinned to the sweep path the CLI runs.

Every other test module reaches the solver through the sweeps, or through
`equilibrium._tables` and the reduction; tests/test_public_api.py checks
that none of them imports or reads an adapter. This module goes when the
mirror runs the sweeps and the adapters are deleted (ROADMAP items 1 and 2).
"""
import dataclasses
import itertools
import math

import numpy as np
import pytest

from ewlgames import (
    GameDefinition,
    RecordTable,
    bayes_sweep,
    build_grid,
    default_gamma_grid,
    default_p_grid,
    gamma_sweep,
    load_default_catalogue,
)
from ewlgames.circuit import EntanglementParam, StrategyParams
from ewlgames.cli import main, parse_steps
from ewlgames.equilibrium import NashEquilibrium, PriorProbability, nash_bayesian, nash_two_player, payoff_tensor
from ewlgames.grid import SteppingParams
from ewlgames.output import (
    fmt,
    read_two_player_csv,
    record_columns,
    write_records_csv,
    write_records_json,
    write_rows_csv,
)
from ewlgames.svgplot import Figure
from ewlgames.sweep import BAYES_COLUMNS, TWO_PLAYER_COLUMNS, SweepRecord, payoff_bins, payoff_histogram, scatter_theta

from oracles import TWO_PLAYER_HEADER, read_records_rows

PI = math.pi


def equilibria(table) -> list[tuple[tuple, tuple]]:
    """(index tuple, payoff tuple) of each record of a sweep table, in record order."""
    roles = ("a", "b1", "b2") if table.bayes else ("a", "b")
    indices = zip(*(table.columns[f"{role}_index"].tolist() for role in roles))
    payoffs = zip(*(table.columns[f"payoff_{role}"].tolist() for role in roles))
    return list(zip(indices, payoffs))


def as_rows(eqs: list[NashEquilibrium]) -> list[tuple[tuple, tuple]]:
    return [(eq.strategy_indices, eq.payoffs) for eq in eqs]


@pytest.fixture(scope="module")
def quarter_grid():
    return build_grid(SteppingParams(PI / 4, PI / 4, PI / 4))


@pytest.fixture(scope="module")
def tensors(coarse_grid, prisoners_dilemma, deadlock):
    gamma = EntanglementParam(0.35)
    return (
        payoff_tensor(prisoners_dilemma, coarse_grid, gamma),
        payoff_tensor(deadlock, coarse_grid, gamma),
    )


class TestAdapters:
    """nash_two_player and nash_bayesian give a one-point sweep's records as objects."""

    @pytest.mark.parametrize("epsilon", [0.0, 1e-9])
    @pytest.mark.parametrize("gamma", [0.0, 0.35, PI / 2])
    @pytest.mark.parametrize("grid", ["coarse_grid", "quarter_grid"])
    def test_two_player(self, request, stag_hunt, grid, gamma, epsilon):
        grid = request.getfixturevalue(grid)
        eqs = nash_two_player(payoff_tensor(stag_hunt, grid, EntanglementParam(gamma)), epsilon)
        assert eqs
        assert as_rows(eqs) == equilibria(gamma_sweep(stag_hunt, grid, [gamma], epsilon))
        assert all(type(i) is int for eq in eqs for i in eq.strategy_indices)
        assert all(type(x) is float for eq in eqs for x in eq.payoffs)

    @pytest.mark.parametrize("grid", ["coarse_grid", "quarter_grid"])
    def test_bayesian(self, request, prisoners_dilemma, deadlock, grid):
        grid = request.getfixturevalue(grid)
        gammas, priors = [0.0, 0.35, PI / 2], [0.0, 0.4, 1.0]
        table = bayes_sweep(prisoners_dilemma, deadlock, grid, gammas, priors)
        points = list(zip(table.columns["gamma"].tolist(), table.columns["p"].tolist()))
        found = 0
        for g in gammas:
            t1, t2 = (payoff_tensor(game, grid, EntanglementParam(g)) for game in (prisoners_dilemma, deadlock))
            for p in priors:
                eqs = nash_bayesian(t1, t2, PriorProbability(p))
                assert as_rows(eqs) == [eq for eq, point in zip(equilibria(table), points) if point == (g, p)]
                found += len(eqs)
        assert found == len(table) > 0

    def test_mismatched_gamma_rejected(self, coarse_grid, prisoners_dilemma):
        t1 = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(0.1))
        t2 = payoff_tensor(prisoners_dilemma, coarse_grid, EntanglementParam(0.2))
        with pytest.raises(ValueError):
            nash_bayesian(t1, t2, PriorProbability(0.5))

    def test_mismatched_grid_rejected(self, coarse_grid, prisoners_dilemma):
        gamma, prior = EntanglementParam(0.1), PriorProbability(0.5)
        other = build_grid(SteppingParams(PI / 2, PI / 2, PI / 2))
        t1 = payoff_tensor(prisoners_dilemma, coarse_grid, gamma)
        t2 = payoff_tensor(prisoners_dilemma, other, gamma)
        with pytest.raises(ValueError):
            nash_bayesian(t1, t2, prior)
        # a grid built separately from equal steps is the same strategy set
        twin = build_grid(coarse_grid.source_steps)
        assert twin is not coarse_grid
        same = nash_bayesian(t1, payoff_tensor(prisoners_dilemma, twin, gamma), prior)
        assert same == nash_bayesian(t1, t1, prior)
        # same length, different steps: caught by the steps, and by the angles alone
        a, b = build_grid(SteppingParams(PI, PI / 2, 1.8)), build_grid(SteppingParams(PI, PI / 2, 2.0))
        assert len(a) == len(b) and not np.array_equal(a.angles, b.angles)
        for grid in (b, dataclasses.replace(b, source_steps=a.source_steps)):
            with pytest.raises(ValueError, match="different strategy grids"):
                nash_bayesian(
                    payoff_tensor(prisoners_dilemma, a, gamma), payoff_tensor(prisoners_dilemma, grid, gamma), prior
                )

    @pytest.mark.parametrize("epsilon", [-1.0, -1e-12, math.nan, math.inf])
    def test_bad_epsilon_rejected(self, tensors, epsilon):
        t1, t2 = tensors
        with pytest.raises(ValueError, match="epsilon"):
            nash_two_player(t1, epsilon)
        with pytest.raises(ValueError, match="epsilon"):
            nash_bayesian(t1, t2, PriorProbability(0.5), epsilon)

    def test_zero_epsilon_accepted(self, tensors):
        t1, t2 = tensors
        nash_two_player(t1, 0.0)
        nash_bayesian(t1, t2, PriorProbability(0.5), 0.0)


class TestLoneTensor:
    """A lone `payoff_tensor` call owns its tables, read-only, and its
    `payoff_b` is B's full member table."""

    GAMMAS = [EntanglementParam(0.0), EntanglementParam(PI / 8)]

    @pytest.fixture(scope="class")
    def eighth_grid(self):
        return build_grid(SteppingParams(PI / 8, PI / 8, PI / 8))

    def test_tables_are_read_only(self, eighth_grid, stag_hunt, deadlock):
        for game, gamma in itertools.product((stag_hunt, deadlock), self.GAMMAS):
            t = payoff_tensor(game, eighth_grid, gamma)
            for rows in (t.rows_a, t.rows_b):
                assert not rows.flags.writeable
                with pytest.raises(ValueError):
                    rows[0, 0] = 0.0

    def test_lone_calls_own_their_tables(self, eighth_grid, stag_hunt):
        first, second = (payoff_tensor(stag_hunt, eighth_grid, self.GAMMAS[0]) for _ in range(2))
        for x, y in itertools.product((first.rows_a, first.rows_b), (second.rows_a, second.rows_b)):
            assert not np.shares_memory(x, y)
        assert np.array_equal(first.rows_a, second.rows_a) and np.array_equal(first.rows_b, second.rows_b)

    @pytest.mark.parametrize("grid", ["coarse_grid", "eighth_grid"])
    def test_tables_are_the_sweeps_tables(self, request, solver_tables, stag_hunt, grid):
        grid = request.getfixturevalue(grid)
        for gamma in self.GAMMAS:
            t = payoff_tensor(stag_hunt, grid, gamma)
            rows_a, rows_b = solver_tables([stag_hunt], grid, gamma.gamma)
            assert t.rows_a.tobytes() == rows_a.tobytes() and t.rows_b.tobytes() == rows_b.tobytes()
            _, payoff_b = solver_tables([stag_hunt], grid, gamma.gamma, "members")
            assert t.payoff_b.shape == (len(grid), len(grid))
            assert t.payoff_b.tobytes() == payoff_b.tobytes()

    def test_repr_leaves_out_the_tables(self, prisoners_dilemma):
        grid = build_grid(SteppingParams(PI / 32, PI / 8, PI / 8))
        assert len(grid) == 7968
        assert len(repr(payoff_tensor(prisoners_dilemma, grid, EntanglementParam(0.5)))) < 1000


@pytest.fixture(scope="module")
def bayes_case(prisoners_dilemma, deadlock, coarse_grid):
    return (prisoners_dilemma, deadlock, coarse_grid, [0.0, 0.35, PI / 2], [0.0, 0.4, 1.0])


@pytest.fixture(scope="module")
def small_sweep(prisoners_dilemma, coarse_grid):
    return gamma_sweep(prisoners_dilemma, coarse_grid, [0.0, PI / 8, PI / 2]).records


class TestRecords:
    """`RecordTable.records`, `record_columns` and the writers' SweepRecord input."""

    @pytest.mark.parametrize("fmt_name", ["csv", "json"])
    @pytest.mark.parametrize("bayes", [False, True], ids=["two-player", "bayes"])
    def test_records_and_table_write_the_same_bytes(
        self, tmp_path, prisoners_dilemma, deadlock, coarse_grid, bayes, fmt_name
    ):
        gammas = [0.0, PI / 8, PI / 2]
        if bayes:
            table = bayes_sweep(prisoners_dilemma, deadlock, coarse_grid, gammas, [0.0, 0.5, 1.0])
        else:
            table = gamma_sweep(prisoners_dilemma, coarse_grid, gammas)
        paths = [tmp_path / f"table.{fmt_name}", tmp_path / f"records.{fmt_name}"]
        for path, source in zip(paths, [table, table.records]):
            if fmt_name == "csv":
                write_records_csv(path, source, bayes=bayes)
            else:
                write_records_json(path, source, bayes=bayes, metadata={"command": "test"})
        assert len(table) > 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("bayes", [False, True], ids=["two-player", "bayes"])
    def test_record_columns_equal_the_table_bit_for_bit(self, bayes_case, bayes):
        game1, game2, grid, gammas, priors = bayes_case
        table = bayes_sweep(*bayes_case) if bayes else gamma_sweep(game1, grid, gammas)
        columns = record_columns(table.records, bayes=bayes)
        assert list(columns) == list(table.columns) == (BAYES_COLUMNS if bayes else TWO_PLAYER_COLUMNS)
        for name, col in table.columns.items():
            assert col.dtype == columns[name].dtype == (np.int64 if name.endswith("index") else np.float64)
            assert col.tobytes() == columns[name].tobytes(), name

    def test_records_carry_the_grid_params(self, bayes_case):
        grid = bayes_case[2]
        records = bayes_sweep(*bayes_case).records
        assert records
        for r in records:
            assert r.strategy_params == tuple(grid.params[k] for k in r.equilibrium.strategy_indices)

    def test_eq_index_restarts_at_every_point(self, bayes_case):
        table = bayes_sweep(*bayes_case)
        assert record_columns(table.records, bayes=True)["eq_index"].tolist() == table.columns["eq_index"].tolist()

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

    def test_record_columns_match_the_written_file(self, tmp_path, small_sweep):
        path = tmp_path / "records.csv"
        write_records_csv(path, small_sweep, bayes=False)
        read, built = read_two_player_csv(path).columns, record_columns(small_sweep)
        for name in TWO_PLAYER_COLUMNS:
            assert built[name].dtype == read[name].dtype
            np.testing.assert_allclose(built[name], read[name], rtol=0, atol=1e-9)
        assert built["gamma"].tolist() == [r.gamma for r in small_sweep]

    def test_records_view_matches_the_oracle(self, tmp_path):
        path = tmp_path / "records.csv"
        path.write_text(
            TWO_PLAYER_HEADER + "\n"
            "\n"
            "0,0,4,5,3.14159265359,6.28318530718,-1e-12,0,0,0,1.25,-2\n"
            "0,1,4,6,1.57079632679,-0,1e-10,3.14159265358,6.2831853071,1,1e-300,4\n"
            "\n\n"
            "1.57079632679,0,0,1823,0,0,0,3.14159265359,3.14159265359,6.28318530718,3.999999999999,0\n"
            "1.5707963268,1,12,13,0.785398163397,0.785398163397,0.785398163397,0,0,0,-0,1e16\n"
        )
        rows = read_records_rows(path.read_text())
        records = read_two_player_csv(path).records
        for row, r in zip(rows, records, strict=True):
            assert r.gamma == row[0] and r.p is None
            assert r.equilibrium.strategy_indices == tuple(row[2:4])
            assert r.equilibrium.payoffs == tuple(row[10:12])
            assert [p.astuple() for p in r.strategy_params] == [tuple(row[4:7]), tuple(row[7:10])]
            assert all(type(v) is int for v in r.equilibrium.strategy_indices)

    def test_empty_tables_have_no_records(self, tmp_path, matching_pennies, prisoners_dilemma, coarse_grid):
        path = tmp_path / "empty.csv"
        path.write_text(TWO_PLAYER_HEADER + "\n\n")
        for table in (
            gamma_sweep(matching_pennies, coarse_grid, [0.0, 0.5]),
            gamma_sweep(matching_pennies, coarse_grid, []),
            bayes_sweep(prisoners_dilemma, matching_pennies, coarse_grid, [], [0.5]),
            read_two_player_csv(path),
        ):
            assert len(table) == 0 and table.records == []


def _record(gamma: float, payoff_a: float) -> SweepRecord:
    eq = NashEquilibrium(strategy_indices=(0, 0), payoffs=(payoff_a, payoff_a))
    p = StrategyParams(0, 0, 0)
    return SweepRecord(gamma=gamma, p=None, equilibrium=eq, strategy_params=(p, p))


class TestRecordProjections:
    """scatter_theta and payoff_histogram read SweepRecords as the CLI reads columns."""

    def test_scatter_theta_is_the_theta_columns(self, stag_hunt, coarse_grid):
        table = gamma_sweep(stag_hunt, coarse_grid, default_gamma_grid(9))
        points = scatter_theta(table.records)
        assert points and points == list(zip(table.columns["theta_a"].tolist(), table.columns["theta_b"].tolist()))
        assert scatter_theta([]) == []

    @pytest.mark.parametrize("bin_width", [1e-300, 0.05, 0.3])
    def test_payoff_histogram_is_payoff_bins(self, bin_width):
        game = GameDefinition("favored", (5, 2, 4, 1), (4, 3, 0, 1))
        grid = build_grid(SteppingParams(PI / 4, PI / 4, PI / 4))
        g = 29 * PI / 128
        table = gamma_sweep(game, grid, [0.0, g])
        hist = payoff_histogram(table.records, g, bin_width)
        assert hist and hist == payoff_bins(table.columns["gamma"], table.columns["payoff_a"], g, bin_width)

    def test_payoff_histogram_checks_like_payoff_bins(self):
        with pytest.raises(ValueError, match="cannot bin payoff"):
            payoff_histogram([_record(0.5, 1.0), _record(0.5, math.inf)], 0.5, 0.05)
        for bin_width in (0.0, -0.1, math.inf, math.nan):
            with pytest.raises(ValueError):
                payoff_histogram([], 0.5, bin_width)


class TestRowWriter:
    def test_bytes_equal_per_field_fmt(self, tmp_path):
        rows = [
            [0, 2.5, 3],
            (np.int64(7), np.float64(-0.0), np.float32(0.1)),
            [-0.0, 1e-300, -1e-300],
            [1e16, float("nan"), 1e12],
            [float("inf"), float("-inf"), 0.1 + 0.2],
            [True, 10**13, -(2**70)],
            [np.int32(-3), np.float64(1 / 3), 12345678901234.5],
            [1, 2],
            [],
            [2.5, 0, 1.0],
        ]
        path = tmp_path / "rows.csv"
        write_rows_csv(path, ["a", "b", "c"], iter(rows))
        expected = "a,b,c\n" + "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)
        assert path.read_bytes() == expected.encode()


class TestPlotsFromColumns:
    """The CLI draws from table columns; the SVGs equal figures built from records."""

    STEPS = "pi/4,pi/4,pi/4"

    def test_sweep_plot(self, tmp_path):
        svg = tmp_path / "sweep.svg"
        main(["sweep", "--game", "stag_hunt", "--steps", self.STEPS, "--gamma-grid", "9",
              "--out", str(tmp_path / "sweep.csv"), "--plot", str(svg)])
        game = load_default_catalogue().get("stag_hunt")
        records = gamma_sweep(game, build_grid(parse_steps(self.STEPS)), default_gamma_grid(9)).records
        fig = Figure("stag_hunt: equilibrium payoffs vs entanglement", "entanglement gamma (rad)", "payoff")
        fig.add_scatter("player A", sorted({(r.gamma, r.equilibrium.payoffs[0]) for r in records}))
        fig.add_scatter("player B", sorted({(r.gamma, r.equilibrium.payoffs[1]) for r in records}))
        fig.render(tmp_path / "expected.svg")
        assert svg.read_bytes() == (tmp_path / "expected.svg").read_bytes()

    def test_bayes_plot(self, tmp_path):
        svg = tmp_path / "bayes.svg"
        main(["bayes-sweep", "--game", "prisoners_dilemma", "--game2", "deadlock", "--steps", self.STEPS,
              "--gamma-grid", "5", "--p-grid", "5", "--out", str(tmp_path / "bayes.csv"), "--plot", str(svg)])
        catalogue = load_default_catalogue()
        p_points = default_p_grid(5)
        records = bayes_sweep(
            catalogue.get("prisoners_dilemma"), catalogue.get("deadlock"),
            build_grid(parse_steps(self.STEPS)), default_gamma_grid(5), p_points,
        ).records
        fig = Figure("prisoners_dilemma vs deadlock: A payoff", "entanglement gamma (rad)", "payoff A")
        for p in (0.0, 0.5, 1.0):
            points = {(r.gamma, r.equilibrium.payoffs[0]) for r in records if r.p == p}
            fig.add_scatter(f"p={p:.3g}", sorted(points))
        fig.render(tmp_path / "expected.svg")
        assert svg.read_bytes() == (tmp_path / "expected.svg").read_bytes()
