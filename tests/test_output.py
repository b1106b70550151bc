import json
import math
import os
import re

import numpy as np
import pytest

from ewlgames import RecordTable, __version__, bayes_sweep, gamma_sweep
from ewlgames.output import (
    BAYES_COLUMNS,
    TWO_PLAYER_COLUMNS,
    _WRITE_BLOCK,
    _column_field,
    _group_fields,
    atomic_writer,
    fmt,
    read_two_player_csv,
    write_columns_csv,
    write_records_csv,
    write_records_json,
)
from ewlgames.svgplot import Figure

from oracles import TWO_PLAYER_HEADER, read_records_rows, records_csv_text, records_json_text

PI = math.pi


@pytest.fixture(scope="module")
def small_sweep(prisoners_dilemma, coarse_grid):
    return gamma_sweep(prisoners_dilemma, coarse_grid, [0.0, PI / 8, PI / 2])


class TestFormatting:
    def test_twelve_significant_digits(self):
        assert fmt(math.pi) == "3.14159265359"
        assert fmt(1.0) == "1"
        assert fmt(0.1) == "0.1"
        assert fmt(-2.5e-13) == "-2.5e-13"

    def test_int_passthrough(self):
        assert fmt(42) == "42"


class TestCsv:
    def test_two_player_schema_and_line_endings(self, tmp_path, small_sweep):
        path = tmp_path / "records.csv"
        write_records_csv(path, small_sweep, bayes=False)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().strip().split("\n")
        assert lines[0] == ",".join(TWO_PLAYER_COLUMNS)
        assert len(lines) == 1 + len(small_sweep)
        first = lines[1].split(",")
        assert first[0] == "0"  # gamma
        assert first[1] == "0"  # eq_index
        assert first[10] == "1" and first[11] == "1"  # classical PD payoffs

    def test_eq_index_resets_per_gamma(self, tmp_path, small_sweep):
        path = tmp_path / "records.csv"
        write_records_csv(path, small_sweep, bayes=False)
        rows = [ln.split(",") for ln in path.read_text().strip().split("\n")[1:]]
        seen = {}
        for row in rows:
            gamma, eq_index = row[0], int(row[1])
            assert eq_index == seen.get(gamma, -1) + 1
            seen[gamma] = eq_index

    def test_header_only_when_no_equilibria(self, tmp_path, matching_pennies, coarse_grid):
        table = gamma_sweep(matching_pennies, coarse_grid, [0.0, 0.5])
        path = tmp_path / "empty.csv"
        write_records_csv(path, table, bayes=False)
        assert path.read_text() == ",".join(TWO_PLAYER_COLUMNS) + "\n"

    def test_bayes_schema(self, tmp_path, prisoners_dilemma, deadlock, coarse_grid):
        table = bayes_sweep(
            prisoners_dilemma, deadlock, coarse_grid, [0.0], [0.0, 1.0]
        )
        path = tmp_path / "bayes.csv"
        write_records_csv(path, table, bayes=True)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(BAYES_COLUMNS)
        assert len(lines[1].split(",")) == len(BAYES_COLUMNS)

    def test_read_round_trip(self, tmp_path, small_sweep):
        path = tmp_path / "records.csv"
        write_records_csv(path, small_sweep, bayes=False)
        loaded = read_two_player_csv(path)
        assert len(loaded) == len(small_sweep)
        assert loaded.gamma_values == pytest.approx(
            sorted(set(small_sweep.columns["gamma"].tolist())), abs=1e-9
        )
        for name in ("a_index", "b_index"):
            assert loaded.columns[name].tolist() == small_sweep.columns[name].tolist()
        for name in ("payoff_a", "payoff_b", "theta_a"):
            np.testing.assert_allclose(loaded.columns[name], small_sweep.columns[name], rtol=0, atol=1e-9)

    def test_read_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            read_two_player_csv(path)


class TestColumnWriter:
    # 8 distinct float bit patterns and 8 distinct int64 values
    FLOATS = [-0.0, 0.0, 0.1 + 0.2, 1e16, float("nan"), float("inf"), float("-inf"), 5e-324]
    INTS = [10**13, -(10**13), 0, 1, -1, 2**62, 7, 42]

    @pytest.mark.parametrize("rows", [15, 16, 17, 2 * _WRITE_BLOCK + 1])
    def test_bytes_equal_per_field_fmt(self, tmp_path, rows):
        # at 16 rows the 8-value columns sit on the half-distinct boundary and keep
        # per-distinct texts; at 15 they are printed in place, at 17 not
        rng = np.random.default_rng(rows)
        distinct = rng.uniform(-1e3, 1e3, rows)
        distinct[: len(self.FLOATS)] = self.FLOATS
        columns = [
            np.resize(np.array([0.5, -0.0]), rows),
            distinct,
            np.resize(np.array(self.FLOATS), rows),
            np.resize(np.array(self.INTS, dtype=np.int64), rows),
            np.arange(rows, dtype=np.int64) + 10**13,
        ]
        names = ["low", "distinct", "floats", "ints", "index"]
        in_place = 2 * len(self.FLOATS) > rows
        conversions = [_column_field(col, fmt, "%x")[0] for col in columns]
        assert conversions == ["%s", "%x", "%x" if in_place else "%s", "%x" if in_place else "%s", "%x"]
        path = tmp_path / "columns.csv"
        write_columns_csv(path, names, columns)
        fields = "".join(",".join(fmt(v) for v in row) + "\n" for row in zip(*(col.tolist() for col in columns)))
        assert path.read_bytes() == (",".join(names) + "\n" + fields).encode()

    # integer columns: those with every value in [0, rows) take a table of used
    # values instead of a sort, every other one the sort
    RNG = np.random.default_rng(61)
    UNIQUE_CASES = {
        "random-below-rows": RNG.integers(0, 900, 1000),
        "random-wide": RNG.integers(0, 2000, 1000),
        "permutation": RNG.permutation(64),
        "at-rows": np.append(np.arange(63), 64),
        "empty": np.empty(0, dtype=np.int64),
        "one-zero": np.zeros(1, dtype=np.int64),
        "constant-below-rows": np.full(50, 7),
        "constant-at-rows": np.full(7, 7),
        "negative": RNG.integers(-5, 5, 100),
        "int32": RNG.integers(0, 20, 100).astype(np.int32),
        "uint8": RNG.integers(0, 20, 100).astype(np.uint8),
    }

    @pytest.mark.parametrize("case", list(UNIQUE_CASES))
    def test_distinct_values_and_index_are_np_unique(self, case):
        col = self.UNIQUE_CASES[case]
        conversion, values, index = _column_field(col, repr)
        distinct, inverse = np.unique(col, return_inverse=True)
        assert conversion == "%s"
        assert values.tolist() == [repr(v) for v in distinct.tolist()]
        np.testing.assert_array_equal(index, inverse)


def _read_case(tmp_path, body: str):
    path = tmp_path / "records.csv"
    path.write_text(TWO_PLAYER_HEADER + "\n" + body)
    return path


class TestReader:
    BODY = (
        "\n"
        "0,0,4,5,3.14159265359,6.28318530718,-1e-12,0,0,0,1.25,-2\n"
        "0,1,4,6,1.57079632679,-0,1e-10,3.14159265358,6.2831853071,1,1e-300,4\n"
        "\n\n"
        "1.57079632679,0,0,1823,0,0,0,3.14159265359,3.14159265359,6.28318530718,3.999999999999,0\n"
        "1.5707963268,1,12,13,0.785398163397,0.785398163397,0.785398163397,0,0,0,-0,1e16\n"
    )

    def test_columns_equal_the_per_row_oracle_bit_for_bit(self, tmp_path):
        path = _read_case(tmp_path, self.BODY)
        rows = read_records_rows(path.read_text())
        loaded = read_two_player_csv(path)
        assert len(loaded) == len(rows) == 4
        for k, name in enumerate(TWO_PLAYER_COLUMNS):
            col = loaded.columns[name]
            assert col.dtype == (np.int64 if k in (1, 2, 3) else np.float64)
            assert col.tobytes() == np.array([row[k] for row in rows], dtype=col.dtype).tobytes(), name
        # the boundary snaps: pi and 2pi prints come back as pi and 2pi, -1e-12 as 0
        assert loaded.columns["theta_a"][0] == math.pi and loaded.columns["phi_a"][0] == 2 * math.pi
        assert loaded.columns["alpha_a"][0] == 0.0 and loaded.columns["gamma"][3] == math.pi / 2
        assert loaded.gamma_values == [0.0, rows[2][0], math.pi / 2]

    def test_header_only_and_blank_lines_give_no_records(self, tmp_path):
        loaded = read_two_player_csv(_read_case(tmp_path, "\n\n"))
        assert len(loaded) == 0 and loaded.gamma_values == []

    GOOD = "0.5,0,4,5,3.14159265359,0,0,3.14159265359,0,1.57079632679,1.25,1.25"

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param("#" + GOOD + "\n", id="comment-line"),
            pytest.param(GOOD + "\n# trailing note\n", id="hash-line"),
            pytest.param(GOOD.rsplit(",", 1)[0] + "\n", id="11-fields"),
            pytest.param(GOOD + ",1\n", id="13-fields"),
            pytest.param(GOOD.replace(",4,5,", ",3.0,5,") + "\n", id="float-index"),
            pytest.param(GOOD.replace(",4,5,", ",4,3e0,") + "\n", id="exponent-index"),
            pytest.param(GOOD.replace(",3.14159265359,0,0,", ",3.2,0,0,", 1) + "\n", id="theta-3.2"),
            pytest.param(GOOD.replace(",1.25,1.25", ",inf,1.25") + "\n", id="inf-payoff"),
            pytest.param(GOOD.replace(",1.25,1.25", ",1.25,nan") + "\n", id="nan-payoff"),
            pytest.param(GOOD.replace("0.5,", "1.6,", 1) + "\n", id="gamma-1.6"),
            pytest.param(GOOD.replace("0.5,", "-0.1,", 1) + "\n", id="negative-gamma"),
            pytest.param(GOOD.replace("0.5,", "nan,", 1) + "\n", id="nan-gamma"),
            pytest.param(GOOD.replace(",0,1.57079632679,", ",-inf,1.57079632679,") + "\n", id="inf-phi"),
            pytest.param(GOOD + "\n   \n", id="whitespace-line"),
            pytest.param(GOOD.replace("0.5,0,", "0.5,-3,", 1) + "\n", id="negative-eq-index"),
            pytest.param(GOOD.replace(",4,5,", ",-4,5,") + "\n", id="negative-a-index"),
        ],
    )
    def test_bad_rows_raise_naming_the_file(self, tmp_path, body):
        path = _read_case(tmp_path, body)
        with pytest.raises(ValueError):
            read_records_rows(path.read_text())
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_two_player_csv(path)

    @pytest.mark.parametrize("header", ["x,y", ",".join(TWO_PLAYER_COLUMNS[:-1]), ""])
    def test_header_mismatch_names_the_file(self, tmp_path, header):
        path = tmp_path / "foreign.csv"
        path.write_text(header + "\n" + self.GOOD + "\n")
        with pytest.raises(ValueError):
            read_records_rows(path.read_text())
        # an empty first line is skipped, so the good record on line 2 is read as the header
        line = 1 if header else 2
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line {line}: not a two-player records CSV')}$"):
            read_two_player_csv(path)

    @pytest.mark.parametrize("text", ["", "\n\n"])
    def test_a_file_without_a_header_names_no_line(self, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: not a two-player records CSV')}$"):
            read_two_player_csv(path)

    # Every error names the file's own line, counted from 1 with the blank
    # lines: two before the header (line 3), one after it, and one between
    # the two records, so the good record is line 5 and the bad one line 7.
    @pytest.mark.parametrize(
        "bad,problem",
        [
            pytest.param("   ", "expected 12 fields, got 1", id="spaces"),
            pytest.param(GOOD.rsplit(",", 1)[0], "expected 12 fields, got 11", id="11-fields"),
            pytest.param(GOOD + ",1", "expected 12 fields, got 13", id="13-fields"),
            pytest.param(GOOD.replace("0.5,0,", "0.5,x,", 1), "eq_index must be an integer, got 'x'", id="x-index"),
            pytest.param(GOOD.replace(",4,5,", ",3.0,5,"), "a_index must be an integer, got '3.0'", id="float-index"),
            pytest.param(GOOD.replace(",1.25,1.25", ",1.25,"), "payoff_b must be a number, got ''", id="empty-payoff"),
            pytest.param(GOOD.replace("0.5,", "y,", 1), "gamma must be a number, got 'y'", id="y-gamma"),
            pytest.param(
                GOOD.replace(",3.14159265359,0,0,", ",3.2,0,0,", 1),
                f"theta_a must be in [0, {PI!r}], got 3.2",
                id="theta-3.2",
            ),
            pytest.param(GOOD.replace(",1.25,1.25", ",inf,1.25"), "payoff_a must be finite, got inf", id="inf-payoff"),
            pytest.param(GOOD.replace(",4,5,", ",4,-5,"), "b_index must be non-negative, got -5", id="negative-index"),
        ],
    )
    def test_errors_name_the_file_line(self, tmp_path, bad, problem):
        path = tmp_path / "records.csv"
        path.write_text("\n\n" + TWO_PLAYER_HEADER + "\n\n" + self.GOOD + "\n\n" + bad + "\n" + self.GOOD + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: line 7: {problem}')}$"):
            read_two_player_csv(path)

    @pytest.mark.parametrize("before", [_WRITE_BLOCK - 1, _WRITE_BLOCK, 2 * _WRITE_BLOCK + 5])
    def test_a_bad_line_past_the_first_block_names_its_line(self, tmp_path, before):
        # the reread takes the records in blocks; the bad one is record `before`
        # (from 0), so its line is `before` + 2 after the header and one blank line
        path = tmp_path / "records.csv"
        bad = self.GOOD.replace("0.5,0,", "0.5,x,", 1)
        path.write_text(TWO_PLAYER_HEADER + "\n\n" + (self.GOOD + "\n") * before + bad + "\n" + self.GOOD + "\n")
        with pytest.raises(ValueError, match=f": line {before + 3}: eq_index must be an integer, got 'x'$"):
            read_two_player_csv(path)


# Values that the per-distinct-value writers must keep apart: -0.0 next to
# 0.0, 0.1+0.2 next to 0.3 (same 12-digit text, different JSON text), and
# extreme and non-finite payoffs.
MIXED_FLOATS = [
    -0.0, 0.0, 0.1 + 0.2, 0.3, 1e16, 1e-300, float("nan"), float("inf"), float("-inf"),
    1 / 3, 2.5, -2.5e-13, 0.3, -0.0,
]


def mixed_table(bayes: bool, rows: int) -> RecordTable:
    names = BAYES_COLUMNS if bayes else TWO_PLAYER_COLUMNS
    ints = [0, 7, 1823, 10**13, 7]
    columns = {}
    for k, name in enumerate(names):
        if name.endswith("_index"):
            columns[name] = np.array([ints[(3 * r + k) % len(ints)] for r in range(rows)], dtype=np.int64)
        else:
            values = [MIXED_FLOATS[(r * (k + 1) + k) % len(MIXED_FLOATS)] for r in range(rows)]
            columns[name] = np.array(values, dtype=np.float64)
    return RecordTable(columns)


def table_rows(table: RecordTable, names) -> list[list]:
    return [list(row) for row in zip(*(table.columns[name].tolist() for name in names))]


class TestRecordWriters:
    @pytest.mark.parametrize("rows", [0, 1, 57])
    @pytest.mark.parametrize("bayes", [False, True], ids=["two-player", "bayes"])
    def test_bytes_equal_the_per_field_oracle(self, tmp_path, bayes, rows):
        names = BAYES_COLUMNS if bayes else TWO_PLAYER_COLUMNS
        table = mixed_table(bayes, rows)
        metadata = {"command": "test", "epsilon": 1e-9, "steps": [0.1 + 0.2, -0.0]}
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        write_records_csv(csv_path, table, bayes=bayes)
        write_records_json(json_path, table, bayes=bayes, metadata=metadata)
        expected_meta = {"tool": "ewlgames", "version": __version__, **metadata}
        rows = table_rows(table, names)
        assert csv_path.read_bytes() == records_csv_text(names, rows).encode()
        assert json_path.read_bytes() == records_json_text(names, rows, expected_meta).encode()
        # the column writer alone, against `fmt` field by field
        columns_path = tmp_path / "c.csv"
        write_columns_csv(columns_path, names, [table.columns[name] for name in names])
        fields = "".join(",".join(fmt(v) for v in row) + "\n" for row in rows)
        assert columns_path.read_bytes() == (",".join(names) + "\n" + fields).encode()

    def test_distinct_bit_patterns_keep_their_own_text(self, tmp_path):
        table = mixed_table(False, 57)
        write_records_json(tmp_path / "r.json", table, bayes=False, metadata={})
        write_records_csv(tmp_path / "r.csv", table, bayes=False)
        text = (tmp_path / "r.json").read_text()
        literals = ("-0.0", ": 0.0", "0.30000000000000004", ": 0.3,", "NaN", "-Infinity", "1e-300", "1e+16")
        assert all(literal in text for literal in literals)
        assert {"-0", "0", "0.3"} <= set((tmp_path / "r.csv").read_text().replace("\n", ",").split(","))

    def test_empty_table_files(self, tmp_path):
        write_records_csv(tmp_path / "r.csv", mixed_table(True, 0), bayes=True)
        write_records_json(tmp_path / "r.json", mixed_table(True, 0), bayes=True, metadata={})
        assert (tmp_path / "r.csv").read_text() == ",".join(BAYES_COLUMNS) + "\n"
        assert (tmp_path / "r.json").read_text().endswith('\n  "records": []\n}\n')

    def test_table_of_the_other_schema_is_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="two-player table"):
            write_records_csv(tmp_path / "r.csv", mixed_table(False, 3), bayes=True)
        with pytest.raises(ValueError, match="Bayesian table"):
            write_records_json(tmp_path / "r.json", mixed_table(True, 3), bayes=False, metadata={})


class TestGroupedWriter:
    # Tables shaped like a sweep's: each (gamma, p) point's records are adjacent,
    # eq_index counts within the point, and every angle is a function of its
    # player's index, so adjacent columns are jointly low-cardinality and the
    # writer merges them into group fields. Group members hold bit patterns
    # that must keep their own text: -0.0 and 0.0, 0.1+0.2 and 0.3, NaN, ±inf.
    INDICES = [0, 7, 1823, 10**13, 3, 12, 99, 2**40]
    ANGLES = [-0.0, 0.0, 0.1 + 0.2, 0.3, float("nan"), float("inf"), float("-inf"), 1 / 3]
    POINTS = [(0.0, 0.3), (-0.0, 0.1 + 0.2), (0.1 + 0.2, -0.0), (0.3, 0.0)]

    def table(self, bayes: bool, rows: int) -> RecordTable:
        rng = np.random.default_rng(rows)
        point = np.sort(rng.integers(0, len(self.POINTS), rows))
        starts = np.searchsorted(point, point)
        codes = {role: rng.integers(0, len(self.INDICES), rows) for role in ("a", "b1", "b2", "b")}
        columns = {}
        for name in BAYES_COLUMNS if bayes else TWO_PLAYER_COLUMNS:
            if name in ("gamma", "p"):
                columns[name] = np.array([self.POINTS[k][name == "p"] for k in point])
            elif name == "eq_index":
                columns[name] = np.arange(rows, dtype=np.int64) - starts
            elif name.endswith("_index"):
                columns[name] = np.array(self.INDICES, dtype=np.int64)[codes[name[: -len("_index")]]]
            else:
                stem, role = name.split("_")
                code = codes[role]
                if stem == "payoff":
                    columns[name] = np.array(MIXED_FLOATS)[(code + 5 * point) % len(MIXED_FLOATS)]
                else:
                    shift = ("theta", "phi", "alpha").index(stem)
                    columns[name] = np.array(self.ANGLES)[(3 * code + shift) % len(self.ANGLES)]
        return RecordTable(columns)

    # 8 distinct indices and angles: at 15 rows the CSV prints them in place, from 16
    # on they keep per-distinct texts; an index pair spans 64 codes; 2 * _WRITE_BLOCK + 1
    # rows take three blocks
    @pytest.mark.parametrize("rows", [1, 15, 16, 17, 63, 64, 65, 2 * _WRITE_BLOCK + 1])
    @pytest.mark.parametrize("bayes", [False, True], ids=["two-player", "bayes"])
    def test_bytes_equal_the_per_field_oracle(self, tmp_path, bayes, rows):
        names = BAYES_COLUMNS if bayes else TWO_PLAYER_COLUMNS
        table = self.table(bayes, rows)
        metadata = {"command": "test"}
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        write_records_csv(csv_path, table, bayes=bayes)
        write_records_json(json_path, table, bayes=bayes, metadata=metadata)
        expected_meta = {"tool": "ewlgames", "version": __version__, **metadata}
        rows = table_rows(table, names)
        assert csv_path.read_bytes() == records_csv_text(names, rows).encode()
        assert json_path.read_bytes() == records_json_text(names, rows, expected_meta).encode()

    @pytest.mark.parametrize("rows", [64, 2 * _WRITE_BLOCK + 1])
    def test_adjacent_low_cardinality_fields_merge(self, rows):
        columns = [self.table(True, rows).columns[name] for name in BAYES_COLUMNS]
        fields = [_column_field(col, repr) for col in columns]
        grouped, joins = _group_fields(rows, fields, ",".join(["%s"] * len(fields)).split("%s"))
        # gamma and p form one group whatever the rest does
        assert len(grouped) < len(fields) and len(joins) == len(grouped) + 1
        gamma_p = {f"{g!r},{p!r}" for g, p in self.POINTS}
        assert set(grouped[0][1].tolist()) <= gamma_p and grouped[0][2].shape == (rows,)


class TestJson:
    def test_round_trip_byte_identical(self, tmp_path, small_sweep):
        path = tmp_path / "records.json"
        write_records_json(
            path, small_sweep, bayes=False, metadata={"command": "sweep", "epsilon": 1e-9}
        )
        raw = path.read_text()
        payload = json.loads(raw)
        re_emitted = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert re_emitted == raw

    def test_metadata_and_records(self, tmp_path, small_sweep):
        path = tmp_path / "records.json"
        write_records_json(
            path, small_sweep, bayes=False, metadata={"command": "sweep", "grid_size": 8}
        )
        payload = json.loads(path.read_text())
        assert payload["metadata"]["tool"] == "ewlgames"
        assert payload["metadata"]["grid_size"] == 8
        assert "version" in payload["metadata"]
        assert len(payload["records"]) == len(small_sweep)
        assert set(payload["records"][0]) == set(TWO_PLAYER_COLUMNS)


class TestAtomicWrites:
    def test_exception_mid_write_keeps_target_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "rows.csv"
        target.write_text("old\n")
        with pytest.raises(RuntimeError, match="row generator failed"):
            with atomic_writer(target) as fh:
                fh.write("a,b\n1,2.5\n")
                raise RuntimeError("row generator failed")
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]

    @pytest.mark.parametrize("writer", ["csv", "json", "svg"])
    def test_failed_rename_keeps_target_and_leaves_no_temp(self, tmp_path, monkeypatch, small_sweep, writer):
        target = tmp_path / f"out.{writer}"
        target.write_text("old\n")

        def fail(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="rename failed"):
            if writer == "csv":
                write_records_csv(target, small_sweep, bayes=False)
            elif writer == "json":
                write_records_json(target, small_sweep, bayes=False, metadata={})
            else:
                Figure("t", "x", "y").render(target)
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == [target.name]

    def test_symlink_is_written_through(self, tmp_path, small_sweep):
        real = tmp_path / "real.csv"
        real.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(real)
        write_records_csv(link, small_sweep, bayes=False)
        assert link.is_symlink()
        assert real.read_text().startswith("gamma,eq_index,")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.csv", "real.csv"]
