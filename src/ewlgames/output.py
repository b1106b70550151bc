"""CSV and JSON emission of sweep records, and the CSV reader analyze uses.

Numeric CSV fields carry 12 significant digits with a dot decimal
separator and LF line endings. JSON files hold a metadata header plus the
record array with full-precision floats, byte for byte what
`json.dump(..., indent=2, sort_keys=True)` writes, so a load/dump cycle is
byte-identical. Every file is written to a temporary file beside its target
and renamed onto it, so a failed write leaves the target as it was.

Every CLI CSV is written by `write_columns_csv`, and both record files
go through one row writer, `_write_rows`. A column with at most half as
many distinct values as rows has each distinct value formatted once
(keyed on its bit pattern); any other int or float column is printed in
place by `%d` or `%.12g`, which print what `fmt` does. JSON columns are
always formatted per distinct value, by `repr`, or by `json.dumps` for a
column holding NaN or ±inf. Then each run of adjacent per-distinct
columns becomes one group field: while the group's distinct texts times
the next column's are at most the row count, the pair codes are combined
densely and each combination's text is built once. A Bayes record of
the 1824-grid prisoner's dilemma/deadlock sweep thus fills five group
fields in CSV and four in JSON, where it filled 18. Each part of a group
text still depends only on its own value's bits, so every byte is what
formatting each field alone would write. `write_rows_csv` is the
per-field form for arbitrary rows. The record writers take a
`RecordTable`; a `SweepRecord` sequence is first turned into a table by
`record_columns`. The reader returns a table too.
"""
from __future__ import annotations

import json
import os
import warnings
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

from . import __version__
from .circuit import ANGLE_BOUNDS, GAMMA_MAX
from .sweep import BAYES_COLUMNS, TWO_PLAYER_COLUMNS, RecordTable, SweepRecord, _roles, record_columns

STRATEGY_COLUMNS = ["index", "theta", "phi", "alpha"]

# Column types of a two-player records CSV: the three index columns are
# integers, the rest floats.
TWO_PLAYER_DTYPE = np.dtype(
    [(name, np.int64 if name.endswith("_index") else np.float64) for name in TWO_PLAYER_COLUMNS]
)
# Upper bound of each angle column (the lower bound is 0): gamma as in
# EntanglementParam, theta/phi/alpha of each player as in StrategyParams.
_ANGLE_BOUNDS = {"gamma": GAMMA_MAX} | {
    f"{angle}_{role}": bound for role in _roles(False) for angle, bound in ANGLE_BOUNDS.items()
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
        fh = open(temp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:
        exc.filename = os.fspath(path)  # name the caller's file, not the hidden temporary one
        raise
    try:
        with fh:
            yield fh
        os.replace(temp, target)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, text: str) -> None:
    """`text` to `path`, through `atomic_writer`."""
    with atomic_writer(path) as fh:
        fh.write(text)


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


# `%` conversions that print a value as `fmt` does (checked for ±0, ±inf,
# nan, 5e-324 and 1e15), by dtype kind.
_FMT_CONVERSIONS = {"f": "%.12g", "i": "%d", "u": "%d"}


def _renumber(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct `keys`, integers in [0, size), in increasing order, and each key's position among them."""
    used = np.zeros(size, dtype=bool)
    used[keys] = True
    return np.flatnonzero(used), (np.cumsum(used) - 1)[keys]


def _column_field(
    col: np.ndarray, text: Callable[[float | int], str], conversion: str | None = None
) -> tuple[str, np.ndarray, np.ndarray | None]:
    """(conversion, values, index): how `_write_rows` prints the column `col`.

    Row k's field is `conversion % values[index[k]]`, or `conversion %
    values[k]` when `index` is None. By default `text` is called once per
    distinct value and the field is `"%s"` of that text. Floats are keyed on
    their bit pattern, so -0.0 and 0.0, or two floats that print alike at 12
    digits, each get their own text. When a `conversion` is given and `col`
    has more than half as many distinct values as rows, little text would be
    shared, so `col` is printed in place by `conversion` instead.

    An integer column whose values all lie in [0, rows), such as an index
    column of a table with more rows than strategies, needs no sort:
    `_renumber` gives the distinct values in increasing order and each
    row's position among them.
    Any other column's distinct keys come from `np.unique(keys,
    return_inverse=True)`, which sorts with quicksort; asking for
    `return_index` too would make it a stable mergesort, about 4x slower.
    Each distinct key viewed back as `col.dtype` is the value it was taken
    from, bit for bit. Counting the distinct values with a bare
    `np.unique(keys)` is no cheaper: from numpy 2.3 it takes a hash path,
    far slower than a sort on 130k distinct floats. Both ways give the
    same distinct values in the same order, and the same index.
    """
    if col.dtype.kind in "iu" and len(col) and col.min() >= 0 and col.max() < len(col):
        distinct, inverse = _renumber(col, len(col))
        distinct = distinct.astype(col.dtype)
    else:
        keys = col.view(np.int64) if col.dtype == np.float64 else col
        distinct, inverse = np.unique(keys, return_inverse=True)
        distinct = distinct.view(col.dtype)
    if conversion is not None and 2 * len(distinct) > len(col):
        return conversion, col, None
    return "%s", np.array([text(v) for v in distinct.tolist()], dtype=object), inverse


# Rows formatted and written per step, so a large table is never held as text.
_WRITE_BLOCK = 4096


def _group_fields(
    rows: int, fields: Sequence[tuple[str, np.ndarray, np.ndarray | None]], joins: Sequence[str]
) -> tuple[list[tuple[str, np.ndarray, np.ndarray | None]], list[str]]:
    """`fields` and `joins` with each run of adjacent per-distinct fields merged into one.

    A field with an index joins the group before it when the group's text
    count times the field's is at most `rows`. The pair key `code * m +
    code'` is renumbered densely by `_renumber` over that span, so no
    sort is needed, and each used key's text is the group's text, the
    join between them, then the field's text. A row's bytes do not change:
    each part of a group text still depends only on its own field's value.
    """
    grouped, joined = [fields[0]], [joins[0], joins[1]]
    for (conversion, values, index), join in zip(fields[1:], joins[2:]):
        _, texts, codes = grouped[-1]
        m = len(values)
        if codes is None or index is None or len(texts) * m > rows:
            grouped.append((conversion, values, index))
            joined.append(join)
            continue
        pairs, inverse = _renumber(codes * m + index, len(texts) * m)
        grouped[-1] = ("%s", texts[pairs // m] + (joined[-1] + values[pairs % m]), inverse)
        joined[-1] = join
    return grouped, joined


def _write_rows(
    fh: TextIO,
    rows: int,
    fields: Sequence[tuple[str, np.ndarray, np.ndarray | None]],
    layout: str,
    sep: str,
) -> None:
    """`rows` rows of `fields`, `sep`-joined.

    A row is `layout` with its k-th `%s` replaced by field k's text of that
    row. The fields come from `_column_field` and are first merged by
    `_group_fields`. Each block of rows is formatted by one `%` of the row
    template repeated.
    """
    fields, joins = _group_fields(rows, fields, layout.split("%s"))
    template = joins[0] + "".join(conversion + join for (conversion, _, _), join in zip(fields, joins[1:]))
    for start in range(0, rows, _WRITE_BLOCK):
        block = slice(start, min(start + _WRITE_BLOCK, rows))
        table = np.empty((block.stop - start, len(fields)), dtype=object)
        for j, (_, values, index) in enumerate(fields):
            table[:, j] = values[block] if index is None else values[index[block]]
        fh.write((sep if start else "") + sep.join([template] * len(table)) % tuple(table.ravel().tolist()))


def _json_text(col: np.ndarray) -> Callable[[float | int], str]:
    """`repr`, which prints an int or a finite float as `json.dumps` does, unless `col` holds NaN or ±inf."""
    return json.dumps if col.dtype.kind == "f" and not np.isfinite(col).all() else repr


def write_columns(fh: TextIO, names: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """A header line, then one line of `fmt` fields per row of the equal-length `columns`."""
    fh.write(",".join(names) + "\n")
    fields = [_column_field(col, fmt, _FMT_CONVERSIONS.get(col.dtype.kind)) for col in columns]
    _write_rows(fh, len(columns[0]), fields, ",".join(["%s"] * len(fields)) + "\n", "")


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
    layout = "    {\n" + ",\n".join(f"      {json.dumps(name)}: %s" for name in names) + "\n    }"
    with atomic_writer(path) as fh:
        # drop the head's closing "\n}" and add the records array after the metadata
        fh.write(f'{head[:-2]},\n  "records": [')
        if len(table):
            fh.write("\n")
            fields = [_column_field(col, _json_text(col)) for col in map(table.columns.get, names)]
            _write_rows(fh, len(table), fields, layout, ",\n")
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
        rule = f"in [0, {high!r}]"
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

    The first non-empty line must be the TWO_PLAYER_COLUMNS header, and
    every other non-empty line a record of exactly 12 fields: non-negative
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
