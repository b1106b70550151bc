"""Seeded benchmark inputs, generated before any timing starts.

Seed 0 is the shipped game catalogue byte for byte. Any other seed
replaces every payoff with an integer in 0..9 such that each player's
ordinal ranking of the four outcomes (ties included) is unchanged, so
the named games keep their strategic character. The same seed also
drives the records CSV that `analyze` reads.
"""
from __future__ import annotations

import math
import random
import re

GAMMA_MAX = math.pi / 2
ANALYZE_GAMMAS = 65
ANALYZE_ROWS_PER_GAMMA = 2000
ANALYZE_GRID_SIZE = 1824  # index range of the pi/8 grid the records imitate
ANGLE_STEP = math.pi / 8
ANALYZE_PAYOFF_MAX = 4.0

# The package's CSV schema, restated so that the untraced harness never
# imports the package it measures.
TWO_PLAYER_COLUMNS = [
    "gamma", "eq_index", "a_index", "b_index",
    "theta_a", "phi_a", "alpha_a", "theta_b", "phi_b", "alpha_b",
    "payoff_a", "payoff_b",
]

_PAYOFF_LINE = re.compile(r"^(payoff_[ab])\s*=\s*(.+?)\s*$")


def fmt(value: float) -> str:
    """The CLI's 12-significant-digit CSV number format."""
    return format(float(value), ".12g")


def ordinal_remap(values: list[float], rng: random.Random) -> list[int]:
    """Distinct integers in 0..9 that rank like `values`, ties kept as ties."""
    levels = sorted(set(values))
    drawn = sorted(rng.sample(range(10), len(levels)))
    mapping = dict(zip(levels, drawn))
    return [mapping[v] for v in values]


def catalogue_text(shipped: str, seed: int) -> str:
    """The catalogue file for `seed`; seed 0 returns `shipped` unchanged."""
    if seed == 0:
        return shipped
    rng = random.Random(seed)
    lines = []
    for line in shipped.splitlines(keepends=True):
        m = _PAYOFF_LINE.match(line)
        if m:
            values = [float(x) for x in m.group(2).split(",")]
            line = f"{m.group(1)} = {', '.join(map(str, ordinal_remap(values, rng)))}\n"
        lines.append(line)
    return "".join(lines)


def analyze_records_csv(seed: int) -> str:
    """A two-player records CSV shaped like a 1824-strategy x 65-gamma sweep.

    Gammas are the CLI's 65-point grid, angles multiples of pi/8 and
    payoffs uniform in [0, 4]; rows are sorted by (gamma, a, b) as a
    sweep writes them.
    """
    rng = random.Random(seed)
    lines = [",".join(TWO_PLAYER_COLUMNS)]
    for g in range(ANALYZE_GAMMAS):
        gamma = fmt(GAMMA_MAX * g / (ANALYZE_GAMMAS - 1))
        pairs = sorted(
            (rng.randrange(ANALYZE_GRID_SIZE), rng.randrange(ANALYZE_GRID_SIZE))
            for _ in range(ANALYZE_ROWS_PER_GAMMA)
        )
        for k, (a, b) in enumerate(pairs):
            angles = [
                ANGLE_STEP * rng.randint(0, n) for _ in range(2) for n in (8, 16, 16)
            ]
            payoffs = [rng.uniform(0.0, ANALYZE_PAYOFF_MAX) for _ in range(2)]
            lines.append(",".join([gamma, str(k), str(a), str(b), *map(fmt, angles + payoffs)]))
    return "\n".join(lines) + "\n"
