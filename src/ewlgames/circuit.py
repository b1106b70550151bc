"""The EWL game model: strategies, entanglement, games and their gates.

The protocol: both qubits start in |0>, an entangling gate J(gamma) is
applied, each player applies a single-qubit strategy rotation U(theta,
phi, alpha), J is undone, and the four outcome probabilities are dotted
with per-player payoff vectors. This module holds the model and its
gates, and the circuit's Pauli form: `rotation_features` gives each
strategy 10 gamma-free features and `payoff_forms` each player's 10x10
matrix K at one gamma, so that a payoff is f_A^T K f_B. The payoff kernel
in `equilibrium` is that product, the package's one evaluator of the
circuit.

J(gamma) = cos(gamma/2) I + i sin(gamma/2) (sigma_x (x) sigma_x), the
exponential form: identity at gamma=0, a Bell-state maker at gamma=pi/2.
With this form a one-sided i*sigma_x move commutes through J, so the
strategy pair classes {U(0,0,0), U(pi,0,pi/2)} reproduce the classical
game's cells at every entanglement level.

Outcome |0> is read as confess/cooperate, |1> as defect. Two-qubit
objects use the basis order (|00>, |01>, |10>, |11>) with player A's bit
first, so payoff vectors, state vectors and 4x4 operators all share one
indexing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Each strategy angle lies in [0, ANGLE_BOUNDS[name]], and gamma in [0, GAMMA_MAX].
ANGLE_BOUNDS = {"theta": math.pi, "phi": 2.0 * math.pi, "alpha": 2.0 * math.pi}
GAMMA_MAX = math.pi / 2
# Largest payoff magnitude a game may have. A payoff table entry is a convex
# combination of the payoff vector, and a crude count bounds the kernel's
# intermediate sums by 2e5 times its largest |w|, so all of them stay finite.
PAYOFF_LIMIT = 1e300


def _require_range(name: str, value: float, low: float, high: float) -> None:
    if not (math.isfinite(value) and low <= value <= high):
        raise ValueError(f"{name} must be in [{low!r}, {high!r}], got {value!r}")


@dataclass(frozen=True)
class StrategyParams:
    """Strategy rotation angles: theta in [0,pi], phi and alpha in [0,2pi]."""

    theta: float
    phi: float
    alpha: float

    def __post_init__(self) -> None:
        for name, bound in ANGLE_BOUNDS.items():
            _require_range(name, getattr(self, name), 0.0, bound)

    def astuple(self) -> tuple[float, float, float]:
        return (self.theta, self.phi, self.alpha)


@dataclass(frozen=True)
class EntanglementParam:
    """Entangler angle gamma in [0, pi/2]; pi/2 is maximal entanglement."""

    gamma: float

    def __post_init__(self) -> None:
        _require_range("gamma", self.gamma, 0.0, GAMMA_MAX)


@dataclass(frozen=True)
class GameDefinition:
    """A named bimatrix game: four payoffs per player in (00,01,10,11) order."""

    name: str
    payoff_a: tuple[float, float, float, float]
    payoff_b: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        for tag, vec in (("payoff_a", self.payoff_a), ("payoff_b", self.payoff_b)):
            vec = tuple(float(x) for x in vec)
            if len(vec) != 4:
                raise ValueError(f"{self.name}: {tag} needs exactly 4 entries, got {len(vec)}")
            if not all(abs(x) <= PAYOFF_LIMIT for x in vec):  # also false for nan
                raise ValueError(f"{self.name}: {tag} needs finite entries with |w| <= {PAYOFF_LIMIT:g}")
            object.__setattr__(self, tag, vec)


def entangler(gamma: EntanglementParam) -> np.ndarray:
    """4x4 entangling gate: cos(g/2) diagonal, i*sin(g/2) anti-diagonal."""
    c = math.cos(gamma.gamma / 2.0)
    s = math.sin(gamma.gamma / 2.0)
    j = np.zeros((4, 4), dtype=np.complex128)
    np.fill_diagonal(j, c)
    for k in range(4):
        j[k, 3 - k] = 1j * s
    return j


def strategy_matrix(p: StrategyParams) -> np.ndarray:
    """2x2 strategy rotation for parameters (theta, phi, alpha).

    [[exp(-i phi) cos(t/2),  exp(i alpha) sin(t/2)],
     [-exp(-i alpha) sin(t/2), exp(i phi) cos(t/2)]]
    """
    c = math.cos(p.theta / 2.0)
    s = math.sin(p.theta / 2.0)
    (d0, d1), (o0, o1) = _rotation_entries(c, s, p.phi, p.alpha)
    return np.array([[d0, o0], [o1, d1]], dtype=np.complex128)


def _rotation_entries(c, s, phi, alpha):
    """strategy_matrix's (diagonal, off-diagonal) entry pairs; the grid passes
    arrays and relies on numpy's array exp matching its scalar exp bit for bit."""
    return (
        (np.exp(-1j * phi) * c, np.exp(1j * phi) * c),
        (np.exp(1j * alpha) * s, -np.exp(-1j * alpha) * s),
    )


# The Paulis (I, sx, sy, sz). Row mu * 4 + nu of _PAULI_FORM is conj(sigma_mu (x) sigma_nu)
# flattened, so _PAULI_FORM @ op.ravel() is Tr(op sigma_mu (x) sigma_nu), real for Hermitian op.
_PAULIS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
_PAULI_FORM = np.einsum("pab,qcd->pqacbd", _PAULIS, _PAULIS).reshape(16, 16).conj()
# The flat positions mu' * 4 + mu where R_U[mu', mu] can be nonzero: (0, 0) and the 3x3 block.
_ROTATION = [0, 5, 6, 7, 9, 10, 11, 13, 14, 15]
# Index grids that pick from 4x4 forms q and r the two factors of kron(q, r) at every
# pair of those positions: kron(q, r)[s, t] = q[s // 4, t // 4] * r[s % 4, t % 4].
_ROTATION_PAIRS = [np.ix_(part, part) for part in np.divmod(_ROTATION, 4)]


# Matrices per block of `rotation_features`: its temporaries take about
# 800 B per matrix, so 0.8 MB per block, not per class of the grid. Even,
# because OpenBLAS's Sandybridge zgemm kernel takes rows in pairs: there an
# odd block's last row gets other bits than in a whole stack of even height.
_FEATURE_BLOCK = 1024


def _blocks(count: int, size: int) -> list[tuple[int, int]]:
    """(start, stop) bounds of consecutive blocks of `size` rows that cover `count` rows.

    A 1-row tail joins the block before it, which then has `size` + 1
    rows: numpy takes a 1-row product as a matrix-vector product, whose
    bits differ from the same row of the matrix product.
    """
    starts = list(range(0, count, size))
    if len(starts) > 1 and count - starts[-1] == 1:
        del starts[-1]
    return list(zip(starts, [*starts[1:], count]))


def _pauli_form(ops) -> np.ndarray:
    """Tr(op sigma_mu (x) sigma_nu) at flat mu * 4 + nu, for each 4x4 op in a stack."""
    return (ops.reshape(-1, 16) @ _PAULI_FORM.T).real


def rotation_features(mats) -> np.ndarray:
    """The 10 gamma-free rotation features of each 2x2 strategy in an (N, 2, 2) stack.

    Conjugation by U rotates the Paulis, U sigma_mu U^dag = sum_mu' R_U[mu', mu]
    sigma_mu', with R_U[mu', mu] = 1/2 Tr(sigma_mu' U sigma_mu U^dag) real,
    R_U[0, 0] = 1 and zeros on the rest of row and column 0. A strategy's
    features are R_U at (0, 0) and in its 3x3 block, flattened. U and -U
    share them bit for bit: negating U leaves every product U[b, c]
    conj(U[a, d]) exactly as it was.

    The stack is taken in `_blocks` of _FEATURE_BLOCK matrices, so the
    complex temporaries stay one block's size. Each row is the same
    product as over the whole stack, of at least 2 rows, so it has the
    same bits.

    Returns an (N, 10) float array in Fortran order, whose transpose is
    C-contiguous: the payoff kernel multiplies by that transpose.
    """
    mats = np.asarray(mats, dtype=np.complex128)
    if mats.ndim != 3 or mats.shape[1:] != (2, 2):
        raise ValueError("strategy stacks must have shape (N, 2, 2)")
    out = np.empty((len(mats), len(_ROTATION)), order="F")
    for start, stop in _blocks(len(mats), _FEATURE_BLOCK):
        block = mats[start:stop]
        # R_U[mu', mu] is 1/2 the Pauli form of V[(b, d), (a, c)] = U[b, c] conj(U[a, d]).
        out[start:stop] = 0.5 * _pauli_form(np.einsum("nbc,nad->nbdac", block, block.conj()))[:, _ROTATION]
    return out


def payoff_forms(gamma: EntanglementParam, game: GameDefinition) -> tuple[np.ndarray, np.ndarray]:
    """Each player's 10x10 payoff form K at one entanglement, as (K_a, K_b).

    A payoff is Tr(Q (Ua (x) Ub) rho0 (Ua (x) Ub)^dag), with rho0 = J|00><00|J^dag
    and Q = J diag(w) J^dag for the player's payoff vector w. With the Pauli
    forms r[mu, nu] = Tr(rho0 sigma_mu (x) sigma_nu) and q alike for Q, and
    the rotations R of `rotation_features`,

        payoff(i, j) = 1/4 sum q[mu', nu'] r[mu, nu] R_i[mu', mu] R_j[nu', nu] = f_i^T K f_j

    for the features f of strategies i and j and K = 1/4 kron(q, r) at the
    features' positions. Only those 10 x 10 products of kron(q, r) are
    taken, each from the same two factors as in the full product, so K has
    its bits. Tests hold f_i^T K f_j to the pure-Python circuit in
    `tests/oracles.py` at 1e-12.
    """
    j = entangler(gamma)
    r = _pauli_form(np.outer(j[:, 0], j[:, 0].conj())).reshape(4, 4)  # J|00> is J's first column
    forms = []
    for pay in (game.payoff_a, game.payoff_b):
        q = _pauli_form((j * np.asarray(pay, dtype=np.float64)) @ j.conj().T).reshape(4, 4)
        forms.append(0.25 * (q[_ROTATION_PAIRS[0]] * r[_ROTATION_PAIRS[1]]))
    return forms[0], forms[1]
