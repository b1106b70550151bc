"""CSV and JSON emission of sweep records, and the CSV reader analyze uses.

Numeric CSV fields carry 12 significant digits with a dot decimal
separator and LF line endings. JSON files hold a metadata header plus the
record array with full-precision floats, so a load/dump cycle is
byte-identical. Every file is written to a temporary file beside its target
and renamed onto it, so a failed write leaves the target as it was.
"""
from __future__ import annotations

import json
import math
import os
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .circuit import TWO_PI, StrategyParams
from .equilibrium import NashEquilibrium
from .sweep import SweepRecord

TWO_PLAYER_COLUMNS = [
    "gamma", "eq_index", "a_index", "b_index",
    "theta_a", "phi_a", "alpha_a", "theta_b", "phi_b", "alpha_b",
    "payoff_a", "payoff_b",
]
BAYES_COLUMNS = [
    "gamma", "p", "eq_index", "a_index", "b1_index", "b2_index",
    "theta_a", "phi_a", "alpha_a",
    "theta_b1", "phi_b1", "alpha_b1", "theta_b2", "phi_b2", "alpha_b2",
    "payoff_a", "payoff_b1", "payoff_b2",
]
STRATEGY_COLUMNS = ["index", "theta", "phi", "alpha"]

# Column types of a two-player records CSV: the three index columns are
# integers, the rest floats.
TWO_PLAYER_DTYPE = np.dtype(
    [(name, np.int64 if name.endswith("_index") else np.float64) for name in TWO_PLAYER_COLUMNS]
)
# Upper bound of each angle column (the lower bound is 0): gamma as in
# EntanglementParam, theta/phi/alpha as in StrategyParams.
_ANGLE_BOUNDS = {
    "gamma": math.pi / 2,
    "theta_a": math.pi, "phi_a": TWO_PI, "alpha_a": TWO_PI,
    "theta_b": math.pi, "phi_b": TWO_PI, "alpha_b": TWO_PI,
}


def fmt(value: float | int) -> str:
    """Locale-independent numeric field: ints verbatim, floats at 12 digits."""
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def _eq_indices(records: Sequence[SweepRecord]) -> list[int]:
    """Per-point running equilibrium index (resets whenever (gamma, p) changes)."""
    out = []
    prev_key = object()
    counter = 0
    for r in records:
        key = (r.gamma, r.p)
        counter = counter + 1 if key == prev_key else 0
        prev_key = key
        out.append(counter)
    return out


def record_rows(records: Sequence[SweepRecord], bayes: bool) -> list[list[float | int]]:
    rows = []
    for eq_index, r in zip(_eq_indices(records), records):
        eq = r.equilibrium
        row: list[float | int] = [r.gamma]
        if bayes:
            row.append(0.0 if r.p is None else r.p)
        row.append(eq_index)
        row.extend(eq.strategy_indices)
        for p in r.strategy_params:
            row.extend(p.astuple())
        row.extend(eq.payoffs)
        expected = len(BAYES_COLUMNS) if bayes else len(TWO_PLAYER_COLUMNS)
        if len(row) != expected:
            raise ValueError("record arity does not match the schema")
        rows.append(row)
    return rows


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8, LF text handle on a new temporary file beside `path`.

    The file replaces `path` when the block ends; if the block raises, the
    temporary file is removed and `path` is left untouched. A symlink or a
    non-regular file (/dev/null, /dev/stdout) is written through instead,
    since replacing it would replace the link or device itself.
    """
    target = Path(path)
    if target.is_symlink() or (target.exists() and not target.is_file()):
        with open(target, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    temp = target.with_name(f".{target.name}.{os.urandom(8).hex()}.tmp")
    try:
        with open(temp, "x", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _row_format(types: tuple[type, ...]) -> str:
    # `fmt` as one %-format: str() for ints, 12 digits for everything else
    return ",".join("%s" if issubclass(t, int) else "%.12g" for t in types)


def write_rows_csv(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then each row's fields formatted by `fmt`, comma-joined."""
    formats: dict[tuple[type, ...], str] = {}
    with atomic_writer(path) as fh:
        lines = [",".join(columns)]
        for row in rows:
            types = tuple(map(type, row))
            spec = formats.get(types)
            if spec is None:
                spec = formats[types] = _row_format(types)
            lines.append(spec % tuple(row))
        fh.write("\n".join(lines) + "\n")


def write_records_csv(path: str | Path, records: Sequence[SweepRecord], *, bayes: bool) -> None:
    write_rows_csv(path, BAYES_COLUMNS if bayes else TWO_PLAYER_COLUMNS, record_rows(records, bayes))


def write_records_json(
    path: str | Path,
    records: Sequence[SweepRecord],
    *,
    bayes: bool,
    metadata: dict,
) -> None:
    columns = BAYES_COLUMNS if bayes else TWO_PLAYER_COLUMNS
    payload = {
        "metadata": {"tool": "ewlgames", "version": __version__, **metadata},
        "records": [
            dict(zip(columns, row)) for row in record_rows(records, bayes)
        ],
    }
    with atomic_writer(path) as fh:
        # streamed: the whole document is never held as one string
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


@dataclass(frozen=True)
class LoadedRecords:
    """Two-player records read from a CSV file, one array per column.

    `columns` maps every TWO_PLAYER_COLUMNS name to its array: int64 for
    the three index columns, float64 for the rest. `gamma_values` lists
    the file's gammas in order, once per run of equal values. `records`
    builds SweepRecord objects on each access; the analyze command never
    needs them.
    """

    columns: dict[str, np.ndarray]
    gamma_values: list[float]

    def __len__(self) -> int:
        return len(self.columns["gamma"])

    @property
    def records(self) -> list[SweepRecord]:
        c = {name: col.tolist() for name, col in self.columns.items()}
        return [
            SweepRecord(
                gamma=gamma,
                p=None,
                equilibrium=NashEquilibrium(strategy_indices=(a, b), payoffs=(pay_a, pay_b)),
                strategy_params=(StrategyParams(ta, fa, aa), StrategyParams(tb, fb, ab)),
            )
            for gamma, a, b, ta, fa, aa, tb, fb, ab, pay_a, pay_b in zip(
                *(c[name] for name in TWO_PLAYER_COLUMNS if name != "eq_index")
            )
        ]


def record_columns(records: Sequence[SweepRecord]) -> dict[str, np.ndarray]:
    """Two-player records as the column arrays `read_two_player_csv` gives."""
    table = np.array(record_rows(records, bayes=False), dtype=np.float64)
    table = table.reshape(len(records), len(TWO_PLAYER_COLUMNS))
    return {
        name: table[:, k].astype(TWO_PLAYER_DTYPE[name]) for k, name in enumerate(TWO_PLAYER_COLUMNS)
    }


def _checked_column(name: str, col: np.ndarray) -> np.ndarray:
    """`col` with its boundary angles snapped; ValueError on a value out of range."""
    high = _ANGLE_BOUNDS.get(name)
    if high is not None:
        # 12-digit CSV rounding can push a boundary angle past its interval
        # (e.g. pi prints as 3.14159265359 > pi); snap it back.
        col[(col < 0.0) & (col > -1e-9)] = 0.0
        col[(col > high) & (col - high < 1e-9)] = high
        bad = ~((col >= 0.0) & (col <= high))
        rule = f"in [0, {high:g}]"
    elif name.startswith("payoff"):
        bad = ~np.isfinite(col)
        rule = "finite"
    else:
        return col
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"record {k + 1}: {name} must be {rule}, got {col[k].item()!r}")
    return col


def read_two_player_csv(path: str | Path) -> LoadedRecords:
    """Parse a two-player sweep/solve CSV into column arrays.

    The first non-blank line must be the TWO_PLAYER_COLUMNS header, and
    every other non-blank line a record of exactly 12 fields: integer
    indices, finite payoffs, gamma in [0, pi/2], theta in [0, pi], phi
    and alpha in [0, 2pi]. An angle less than 1e-9 outside its interval,
    as 12-digit rounding prints pi, is snapped onto the bound. Anything
    else raises ValueError naming the file.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            header = "\n"
            while header == "\n":
                header = fh.readline()
            if header.rstrip("\n").split(",") != TWO_PLAYER_COLUMNS:
                raise ValueError("not a two-player records CSV")
            with warnings.catch_warnings():
                # a header-only file is an empty record set
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(fh, delimiter=",", comments=None, dtype=TWO_PLAYER_DTYPE, ndmin=1)
        columns = {
            name: _checked_column(name, np.ascontiguousarray(table[name])) for name in TWO_PLAYER_COLUMNS
        }
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    gamma = columns["gamma"]
    first_of_run = np.ones(len(gamma), dtype=bool)
    first_of_run[1:] = gamma[1:] != gamma[:-1]
    return LoadedRecords(columns=columns, gamma_values=gamma[first_of_run].tolist())
