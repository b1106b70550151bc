"""Independent reference implementations used only by the tests.

Everything here is plain Python over nested lists and cmath, written
directly from the math with no package imports, so it shares no code
path with the vectorized implementations it cross-checks.
"""
from __future__ import annotations

import cmath
import io
import json
import math


def u_matrix(theta: float, phi: float, alpha: float) -> list[list[complex]]:
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    return [
        [cmath.exp(-1j * phi) * c, cmath.exp(1j * alpha) * s],
        [-cmath.exp(-1j * alpha) * s, cmath.exp(1j * phi) * c],
    ]


def phase_partners(triples, tol: float = 1e-9) -> dict[int, list[int]]:
    """Index -> the other indices whose U(theta, phi, alpha) is -U, entrywise within tol."""
    mats = [u_matrix(*t) for t in triples]
    out: dict[int, list[int]] = {}
    for i, mi in enumerate(mats):
        for j, mj in enumerate(mats):
            if i != j and all(abs(mi[r][c] + mj[r][c]) <= tol for r in range(2) for c in range(2)):
                out.setdefault(i, []).append(j)
    return out


def j_matrix(gamma: float) -> list[list[complex]]:
    c = math.cos(gamma / 2)
    s = math.sin(gamma / 2)
    out = [[0j] * 4 for _ in range(4)]
    for k in range(4):
        out[k][k] = complex(c)
        out[k][3 - k] = 1j * s
    return out


def dag(m: list[list[complex]]) -> list[list[complex]]:
    n = len(m)
    return [[m[j][i].conjugate() for j in range(n)] for i in range(n)]


def kron22(a: list[list[complex]], b: list[list[complex]]) -> list[list[complex]]:
    out = [[0j] * 4 for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    out[2 * i + k][2 * j + l] = a[i][j] * b[k][l]
    return out


def mat_vec(m: list[list[complex]], v: list[complex]) -> list[complex]:
    return [sum(m[i][j] * v[j] for j in range(len(v))) for i in range(len(m))]


def circuit_probs(gamma: float, ua: list[list[complex]], ub: list[list[complex]]) -> list[float]:
    j = j_matrix(gamma)
    state = mat_vec(j, [1 + 0j, 0j, 0j, 0j])
    state = mat_vec(kron22(ua, ub), state)
    state = mat_vec(dag(j), state)
    return [abs(amp) ** 2 for amp in state]


def circuit_payoffs(
    gamma: float,
    ua: list[list[complex]],
    ub: list[list[complex]],
    payoff_a: tuple[float, ...],
    payoff_b: tuple[float, ...],
) -> tuple[float, float]:
    probs = circuit_probs(gamma, ua, ub)
    return (
        sum(p * w for p, w in zip(probs, payoff_a)),
        sum(p * w for p, w in zip(probs, payoff_b)),
    )


# ---------------------------------------------------------------------------
# unilateral-deviation checks (pure loops; no best-response intersection)

def passes_deviation(pay_a, pay_b, i: int, j: int, eps: float) -> bool:
    """No single player can improve by more than eps by switching index."""
    n = len(pay_a)
    here_a = pay_a[i][j]
    for k in range(n):
        if pay_a[k][j] > here_a + eps:
            return False
    here_b = pay_b[i][j]
    for l in range(n):
        if pay_b[i][l] > here_b + eps:
            return False
    return True


def brute_force_nash(pay_a, pay_b, eps: float) -> list[tuple[int, int]]:
    n = len(pay_a)
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if passes_deviation(pay_a, pay_b, i, j, eps)
    ]


def passes_deviation_bayes(t1a, t1b, t2a, t2b, p, a, b1, b2, eps) -> bool:
    n = len(t1a)
    here = p * t1a[a][b1] + (1 - p) * t2a[a][b2]
    for k in range(n):
        if p * t1a[k][b1] + (1 - p) * t2a[k][b2] > here + eps:
            return False
    for l in range(n):
        if t1b[a][l] > t1b[a][b1] + eps:
            return False
    for l in range(n):
        if t2b[a][l] > t2b[a][b2] + eps:
            return False
    return True


def brute_force_bayes(t1a, t1b, t2a, t2b, p, eps) -> list[tuple[int, int, int]]:
    n = len(t1a)
    return [
        (a, b1, b2)
        for a in range(n)
        for b1 in range(n)
        for b2 in range(n)
        if passes_deviation_bayes(t1a, t1b, t2a, t2b, p, a, b1, b2, eps)
    ]


# ---------------------------------------------------------------------------
# records CSV reading and payoff binning, one row / one record at a time

TWO_PLAYER_HEADER = (
    "gamma,eq_index,a_index,b_index,theta_a,phi_a,alpha_a,theta_b,phi_b,alpha_b,payoff_a,payoff_b"
)
_INDEX_FIELDS = (1, 2, 3)
_PAYOFF_FIELDS = (10, 11)
# field -> upper bound of an angle field (gamma, theta, phi, alpha, theta, phi, alpha)
_ANGLE_FIELDS = {
    0: math.pi / 2,
    4: math.pi, 5: 2.0 * math.pi, 6: 2.0 * math.pi,
    7: math.pi, 8: 2.0 * math.pi, 9: 2.0 * math.pi,
}


def read_records_rows(text: str) -> list[list]:
    """Rows of a two-player records CSV, parsed field by field.

    int() for the three index fields, which must be non-negative, and
    float() for the rest; an angle within 1e-9 of a bound is clamped onto
    it, then must lie in its interval, and payoffs must be finite. Blank
    lines are skipped. Any violation raises ValueError.
    """
    lines = [ln for ln in text.split("\n") if ln]
    if not lines or lines[0] != TWO_PLAYER_HEADER:
        raise ValueError("not a two-player records CSV")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 12:
            raise ValueError(f"{len(parts)} fields")
        row = [int(t) if k in _INDEX_FIELDS else float(t) for k, t in enumerate(parts)]
        for k in _INDEX_FIELDS:
            if row[k] < 0:
                raise ValueError(f"field {k} negative: {row[k]!r}")
        for k, high in _ANGLE_FIELDS.items():
            v = row[k]
            if abs(v - high) < 1e-9 or abs(v) < 1e-9:
                v = min(max(v, 0.0), high)
            if not (math.isfinite(v) and 0.0 <= v <= high):
                raise ValueError(f"field {k} out of range: {v!r}")
            row[k] = v
        for k in _PAYOFF_FIELDS:
            if not math.isfinite(row[k]):
                raise ValueError(f"field {k} not finite: {row[k]!r}")
        rows.append(row)
    return rows


def payoff_histogram(points, gamma_slice: float, bin_width: float) -> list[tuple[float, int]]:
    """(bin center, count) of the (gamma, payoff) points at gamma_slice, bins k*w with integer k."""
    counts: dict[int, int] = {}
    for gamma, payoff in points:
        if abs(gamma - gamma_slice) <= 1e-12:
            k = math.floor(payoff / bin_width + 1e-9)
            counts[k] = counts.get(k, 0) + 1
    return [((k + 0.5) * bin_width, counts[k]) for k in sorted(counts)]


# ---------------------------------------------------------------------------
# records CSV and JSON text, one field / one dict at a time

def _fmt(value) -> str:
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".12g")


def records_csv_text(columns: list[str], rows: list[list]) -> str:
    """The header, then every row's fields formatted one by one, comma-joined."""
    return ",".join(columns) + "\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)


def records_json_text(columns: list[str], rows: list[list], metadata: dict) -> str:
    """json.dump of {"metadata", "records"} with one dict per row, indent 2, sorted keys."""
    payload = {"metadata": metadata, "records": [dict(zip(columns, row)) for row in rows]}
    fh = io.StringIO()
    json.dump(payload, fh, indent=2, sort_keys=True)
    return fh.getvalue() + "\n"
