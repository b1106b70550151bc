"""CSV and JSON emission of sweep records, and the CSV reader analyze uses.

Numeric CSV fields carry 12 significant digits with a dot decimal
separator and LF line endings. JSON files hold a metadata header plus the
record array with full-precision floats, byte for byte what
`json.dump(..., indent=2, sort_keys=True)` writes, so a load/dump cycle is
byte-identical. Every file is written to a temporary file beside its target
and renamed onto it, so a failed write leaves the target as it was.

Every CLI CSV is written by `write_columns_csv`, which formats each
column's distinct values once; `write_rows_csv` is the per-field form for
arbitrary rows. The record writers take a `RecordTable`; a `SweepRecord`
sequence is first turned into a table by `record_columns`. The reader
returns a table too.
"""
from __future__ import annotations

import json
import math
import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .circuit import TWO_PI
from .sweep import BAYES_COLUMNS, TWO_PLAYER_COLUMNS, RecordTable, SweepRecord, record_columns

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


def write_rows_csv(path: str | Path, columns: Sequence[str], rows: Iterable[Sequence]) -> None:
    """A header line, then each row's fields formatted by `fmt`, comma-joined."""
    with atomic_writer(path) as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(fmt, row)) + "\n" for row in rows)


def _record_table(records: RecordTable | Sequence[SweepRecord], bayes: bool) -> RecordTable:
    if not isinstance(records, RecordTable):
        records = RecordTable(record_columns(records, bayes=bayes))
    if records.bayes != bayes:
        schema = "Bayesian" if records.bayes else "two-player"
        raise ValueError(f"a {schema} table written with bayes={bayes}")
    return records


def _column_text(col: np.ndarray, text: Callable[[float | int], str]) -> tuple[np.ndarray, np.ndarray]:
    """(strings, inverse): `strings[inverse]` is `text` of every value of `col`.

    `text` is called once per distinct value. Floats are keyed on their bit
    pattern, so -0.0 and 0.0, or two floats that print alike at 12 digits,
    each get their own text.
    """
    keys = col.view(np.int64) if col.dtype == np.float64 else col
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return np.array([text(v) for v in col[first].tolist()], dtype=object), inverse


# Rows formatted and written per step, so a large table is never held as text.
_WRITE_BLOCK = 4096


def _write_rows(
    fh: TextIO,
    columns: Sequence[np.ndarray],
    template: str,
    text: Callable[[float | int], str],
    sep: str,
) -> None:
    """`template % row` for every row of the equal-length `columns`, `sep`-joined.

    The fields of a row are `text` of its values, in column order.
    """
    texts = [_column_text(col, text) for col in columns]
    for start in range(0, len(columns[0]), _WRITE_BLOCK):
        block = slice(start, start + _WRITE_BLOCK)
        rows = zip(*(strings[inverse[block]].tolist() for strings, inverse in texts))
        fh.write((sep if start else "") + sep.join(map(template.__mod__, rows)))


def write_columns(fh: TextIO, names: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """A header line, then one line of `fmt` fields per row of the equal-length `columns`."""
    fh.write(",".join(names) + "\n")
    _write_rows(fh, columns, ",".join(["%s"] * len(names)) + "\n", fmt, "")


def write_columns_csv(path: str | Path, names: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """`write_columns` to `path`, through `atomic_writer`."""
    with atomic_writer(path) as fh:
        write_columns(fh, names, columns)


def write_records_csv(path: str | Path, records: RecordTable | Sequence[SweepRecord], *, bayes: bool) -> None:
    """The schema header, then one line of `fmt` fields per record."""
    table = _record_table(records, bayes)
    names = BAYES_COLUMNS if bayes else TWO_PLAYER_COLUMNS
    write_columns_csv(path, names, [table.columns[name] for name in names])


def write_records_json(
    path: str | Path,
    records: RecordTable | Sequence[SweepRecord],
    *,
    bayes: bool,
    metadata: dict,
) -> None:
    """{"metadata": ..., "records": [...]} as `json.dump(indent=2, sort_keys=True)` writes it."""
    table = _record_table(records, bayes)
    names = sorted(BAYES_COLUMNS if bayes else TWO_PLAYER_COLUMNS)
    head = json.dumps(
        {"metadata": {"tool": "ewlgames", "version": __version__, **metadata}}, indent=2, sort_keys=True
    )
    # a record as the indented encoder lays out a dict inside the list
    template = "    {\n" + ",\n".join(f"      {json.dumps(name)}: %s" for name in names) + "\n    }"
    with atomic_writer(path) as fh:
        # drop the head's closing "\n}" and add the records array after the metadata
        fh.write(f'{head[:-2]},\n  "records": [')
        if len(table):
            fh.write("\n")
            _write_rows(fh, [table.columns[name] for name in names], template, json.dumps, ",\n")
            fh.write("\n  ")
        fh.write("]\n}\n")


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
        bad = col < 0
        rule = "non-negative"
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"record {k + 1}: {name} must be {rule}, got {col[k].item()!r}")
    return col


def read_two_player_csv(path: str | Path) -> RecordTable:
    """Parse a two-player sweep/solve CSV into column arrays.

    The first non-blank line must be the TWO_PLAYER_COLUMNS header, and
    every other non-blank line a record of exactly 12 fields: non-negative
    integer indices, finite payoffs, gamma in [0, pi/2], theta in [0, pi],
    phi and alpha in [0, 2pi]. An angle less than 1e-9 outside its
    interval, as 12-digit rounding prints pi, is snapped onto the bound.
    Anything else raises ValueError naming the file.
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
    return RecordTable(columns)
