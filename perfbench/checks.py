"""Output checks: record parsing, canonical digests, and an independent
unilateral-deviation check built on a pure-Python EWL circuit.

Nothing here imports ewlgames, so a fault in the package's kernel cannot
hide itself from these checks.
"""
from __future__ import annotations

import cmath
import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

# The CLI's default tie tolerance, plus room for 12-digit angle rounding.
DEVIATION_TOL = 2e-9
PAYOFF_TOL = 1e-8
# Digests round payoffs to this many decimals, so that last-ulp kernel
# changes do not read as failures.
DIGEST_DECIMALS = 9


@dataclass(frozen=True)
class Record:
    gamma: float
    p: float | None
    indices: tuple[int, ...]
    angles: tuple[tuple[float, float, float], ...]
    payoffs: tuple[float, ...]


def _record(row: dict, roles: tuple[str, ...]) -> Record:
    return Record(
        gamma=float(row["gamma"]),
        p=float(row["p"]) if "p" in row else None,
        indices=tuple(int(row[f"{r}_index"]) for r in roles),
        angles=tuple(
            (float(row[f"theta_{r}"]), float(row[f"phi_{r}"]), float(row[f"alpha_{r}"]))
            for r in roles
        ),
        payoffs=tuple(float(row[f"payoff_{r}"]) for r in roles),
    )


def read_records(path: Path) -> list[Record]:
    """Records from a two-player CSV or a Bayesian JSON file."""
    if path.suffix == ".json":
        rows = json.loads(path.read_text(encoding="utf-8"))["records"]
        return [_record(row, ("a", "b1", "b2")) for row in rows]
    with open(path, newline="", encoding="utf-8") as fh:
        return [_record(row, ("a", "b")) for row in csv.DictReader(fh)]


def _num(value: float) -> str:
    return f"{round(value, DIGEST_DECIMALS) + 0.0:.{DIGEST_DECIMALS}f}"


def records_digest(records: list[Record]) -> str:
    """sha256 over index tuples, gamma and p (12 digits) and rounded payoffs."""
    h = hashlib.sha256()
    for r in records:
        key = [format(r.gamma, ".12g")]
        if r.p is not None:
            key.append(format(r.p, ".12g"))
        key.append(",".join(map(str, r.indices)))
        key.extend(_num(v) for v in r.payoffs)
        h.update(("|".join(key) + "\n").encode())
    return h.hexdigest()


def rows_digest(named_rows: dict[str, list[list[str]]]) -> str:
    """sha256 over numeric CSV rows (fields as strings), rounded like payoffs."""
    h = hashlib.sha256()
    for name in sorted(named_rows):
        h.update(f"[{name}]\n".encode())
        for row in named_rows[name]:
            h.update((",".join(_num(float(v)) for v in row) + "\n").encode())
    return h.hexdigest()


def rows_match(actual: list[list[str]], expected: list[list[str]]) -> bool:
    """Equal as written, or equal once rounded as the digest rounds them."""
    return actual == expected or rows_digest({"": actual}) == rows_digest({"": expected})


def structure_problems(records: list[Record], grid_size: int) -> list[str]:
    """Order and index-range faults; records must be sorted by (gamma, p, indices)."""
    problems = []
    keys = [(r.gamma, r.p or 0.0, r.indices) for r in records]
    if keys != sorted(keys):
        problems.append("records are not in (gamma, p, index) order")
    if any(not 0 <= i < grid_size for r in records for i in r.indices):
        problems.append(f"strategy index outside [0, {grid_size})")
    return problems


# --- pure-Python EWL circuit -------------------------------------------------

def strategy(theta: float, phi: float, alpha: float) -> tuple[complex, ...]:
    """U(theta, phi, alpha) as its entries (u00, u01, u10, u11)."""
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return (
        cmath.exp(-1j * phi) * c,
        cmath.exp(1j * alpha) * s,
        -cmath.exp(-1j * alpha) * s,
        cmath.exp(1j * phi) * c,
    )


def outcome_probs(gamma: float, ua, ub) -> tuple[float, float, float, float]:
    """|<m| J^dag (Ua x Ub) J |00>|^2 for m in (00, 01, 10, 11).

    J = cos(g/2) I + i sin(g/2) X x X, so J|00> = c|00> + i s|11> and
    J^dag maps v[m] to c v[m] - i s v[3 - m].
    """
    c, s = math.cos(gamma / 2), math.sin(gamma / 2)
    v = [
        ua[2 * i] * ub[2 * k] * c + ua[2 * i + 1] * ub[2 * k + 1] * 1j * s
        for i in (0, 1)
        for k in (0, 1)
    ]
    return tuple(abs(c * v[m] - 1j * s * v[3 - m]) ** 2 for m in range(4))


def _pay(gamma: float, ua, ub, w) -> float:
    probs = outcome_probs(gamma, ua, ub)
    return sum(q * x for q, x in zip(probs, w))


def player_payoffs(gamma: float, p: float | None, games, profile) -> tuple[float, ...]:
    """Every player's payoff for a 2-profile (A, B) or a Bayesian 3-profile (A, B1, B2).

    `games` holds (payoff_a, payoff_b) vectors: one game for two players,
    (game1, game2) for the Bayesian composition, where A scores
    p * game1 + (1 - p) * game2 and each B-type its own game.
    """
    if p is None:
        (wa, wb), = games
        ua, ub = profile
        return (_pay(gamma, ua, ub, wa), _pay(gamma, ua, ub, wb))
    (w1a, w1b), (w2a, w2b) = games
    ua, ub1, ub2 = profile
    return (
        p * _pay(gamma, ua, ub1, w1a) + (1 - p) * _pay(gamma, ua, ub2, w2a),
        _pay(gamma, ua, ub1, w1b),
        _pay(gamma, ua, ub2, w2b),
    )


def multiples(step: float, bound: float) -> list[float]:
    """In-bounds multiples of step, as build_grid enumerates them."""
    return [min(j * step, bound) for j in range(int(math.floor(bound / step + 1e-9)) + 1)]


def candidate_strategies(steps: tuple[float, float, float]) -> list[tuple[complex, ...]]:
    """Every grid triple before deduplication; duplicates do not change a maximum."""
    return [
        strategy(t, ph, al)
        for t in multiples(steps[0], math.pi)
        for ph in multiples(steps[1], 2 * math.pi)
        for al in multiples(steps[2], 2 * math.pi)
    ]


def equilibrium_problems(record: Record, games, candidates) -> list[str]:
    """Why `record` is not an equilibrium with the payoffs it states; empty if it is."""
    profile = [strategy(*a) for a in record.angles]
    base = player_payoffs(record.gamma, record.p, games, profile)
    problems = [
        f"player {k} payoff {stated!r} != circuit {actual!r}"
        for k, (stated, actual) in enumerate(zip(record.payoffs, base))
        if abs(stated - actual) > PAYOFF_TOL
    ]
    for k in range(len(profile)):
        trial = list(profile)
        best = -math.inf
        for m in candidates:
            trial[k] = m
            best = max(best, player_payoffs(record.gamma, record.p, games, trial)[k])
        if best - base[k] > DEVIATION_TOL:
            problems.append(f"player {k} gains {best - base[k]:.3g} by deviating")
    return problems


def sample_by_point(records: list[Record], k: int, rng: random.Random) -> list[Record]:
    """k random records spread over up to k random sweep points."""
    by_point: dict[tuple, list[Record]] = {}
    for r in records:
        by_point.setdefault((r.gamma, r.p), []).append(r)
    chosen = sorted(rng.sample(sorted(by_point), min(k, len(by_point))))
    return [rng.choice(by_point[chosen[i % len(chosen)]]) for i in range(k)] if chosen else []


# --- analyze ------------------------------------------------------------------

def read_rows(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def analyze_expected(records_csv: str, gamma_slice: float, bin_width: float) -> dict:
    """What `analyze` must write for a records CSV, keyed by output suffix.

    theta_scatter is (theta_a, theta_b) per record, theta_payoff is
    (theta_a, payoff_a), and payoff_hist counts payoff_a in bins
    [k w, (k+1) w) at the swept gamma nearest `gamma_slice`.
    """
    rows = [ln.split(",") for ln in records_csv.split("\n")[1:] if ln]
    gammas = sorted({float(r[0]) for r in rows})
    nearest = min(gammas, key=lambda g: abs(g - gamma_slice))
    counts: dict[int, int] = {}
    for r in rows:
        if float(r[0]) == nearest:
            k = math.floor(float(r[10]) / bin_width + 1e-9)
            counts[k] = counts.get(k, 0) + 1
    return {
        "theta_scatter": [[r[4], r[7]] for r in rows],
        "payoff_hist": [[format((k + 0.5) * bin_width, ".12g"), str(counts[k])] for k in sorted(counts)],
        "theta_payoff": [[r[4], r[10]] for r in rows],
    }


def svg_problems(path: Path) -> list[str]:
    if not path.is_file():
        return [f"{path.name} missing"]
    text = path.read_text(encoding="utf-8")
    if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
        return [f"{path.name} is not a complete SVG document"]
    return []
