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
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence, TextIO

from . import __version__
from .circuit import StrategyParams
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


def write_rows_csv(path: str | Path, columns: Sequence[str], rows: Sequence[Sequence]) -> None:
    with atomic_writer(path) as fh:
        lines = [",".join(columns)]
        lines.extend(",".join(fmt(v) for v in row) for row in rows)
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
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class LoadedRecords:
    """Two-player records round-tripped through a CSV file."""

    records: list[SweepRecord]
    gamma_values: list[float]


def _clamped_angle(text: str, high: float) -> float:
    # 12-digit CSV rounding can push a boundary angle past its interval
    # (e.g. pi prints as 3.14159265359 > pi); snap it back.
    v = float(text)
    return min(max(v, 0.0), high) if abs(v - high) < 1e-9 or abs(v) < 1e-9 else v


def read_two_player_csv(path: str | Path) -> LoadedRecords:
    """Parse a two-player sweep/solve CSV back into records."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0].split(",") != TWO_PLAYER_COLUMNS:
        raise ValueError(f"{path}: not a two-player records CSV")
    pi, two_pi = math.pi, 2.0 * math.pi
    records = []
    gammas: list[float] = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(TWO_PLAYER_COLUMNS):
            raise ValueError(f"{path}: bad row {ln!r}")
        gamma = float(parts[0])
        a_index, b_index = int(parts[2]), int(parts[3])
        pa = StrategyParams(
            _clamped_angle(parts[4], pi), _clamped_angle(parts[5], two_pi), _clamped_angle(parts[6], two_pi)
        )
        pb = StrategyParams(
            _clamped_angle(parts[7], pi), _clamped_angle(parts[8], two_pi), _clamped_angle(parts[9], two_pi)
        )
        eq = NashEquilibrium(
            strategy_indices=(a_index, b_index),
            payoffs=(float(parts[10]), float(parts[11])),
        )
        records.append(SweepRecord(gamma=gamma, p=None, equilibrium=eq, strategy_params=(pa, pb)))
        if not gammas or gammas[-1] != gamma:
            gammas.append(gamma)
    return LoadedRecords(records=records, gamma_values=gammas)
