import json
import math
import os

import pytest

from ewlgames import bayes_sweep, gamma_sweep
from ewlgames.output import (
    BAYES_COLUMNS,
    TWO_PLAYER_COLUMNS,
    fmt,
    read_two_player_csv,
    write_records_csv,
    write_records_json,
    write_rows_csv,
)
from ewlgames.svgplot import Figure

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
        records = gamma_sweep(matching_pennies, coarse_grid, [0.0, 0.5])
        path = tmp_path / "empty.csv"
        write_records_csv(path, records, bayes=False)
        assert path.read_text() == ",".join(TWO_PLAYER_COLUMNS) + "\n"

    def test_bayes_schema(self, tmp_path, prisoners_dilemma, deadlock, coarse_grid):
        records = bayes_sweep(
            prisoners_dilemma, deadlock, coarse_grid, [0.0], [0.0, 1.0]
        )
        path = tmp_path / "bayes.csv"
        write_records_csv(path, records, bayes=True)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(BAYES_COLUMNS)
        assert len(lines[1].split(",")) == len(BAYES_COLUMNS)

    def test_read_round_trip(self, tmp_path, small_sweep):
        path = tmp_path / "records.csv"
        write_records_csv(path, small_sweep, bayes=False)
        loaded = read_two_player_csv(path)
        assert len(loaded.records) == len(small_sweep)
        assert loaded.gamma_values == pytest.approx(
            sorted({r.gamma for r in small_sweep}), abs=1e-9
        )
        for got, orig in zip(loaded.records, small_sweep):
            assert got.equilibrium.strategy_indices == orig.equilibrium.strategy_indices
            assert got.equilibrium.payoffs == pytest.approx(orig.equilibrium.payoffs, abs=1e-9)
            assert got.strategy_params[0].theta == pytest.approx(
                orig.strategy_params[0].theta, abs=1e-9
            )

    def test_read_rejects_foreign_csv(self, tmp_path):
        path = tmp_path / "foreign.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            read_two_player_csv(path)


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

        def rows():
            yield [1, 2.5]
            raise RuntimeError("row generator failed")

        with pytest.raises(RuntimeError, match="row generator failed"):
            write_rows_csv(target, ["a", "b"], rows())
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
