"""Solver and sweep toolkit for EWL-quantized two-player games and their
Bayesian three-player compositions."""

__version__ = "0.1.0"

from .circuit import GameDefinition, StrategyParams
from .equilibrium import DEFAULT_EPSILON
from .grid import SteppingParams, StrategyGrid, build_grid
from .catalogue import CatalogueError, GameCatalogue, load_catalogue, load_default_catalogue
from .sweep import (
    CriticalBracket,
    RecordTable,
    bayes_sweep,
    critical_gamma,
    default_gamma_grid,
    default_p_grid,
    gamma_sweep,
)

# Outside __all__: the traced benchmark mirror (perfbench/traced.py) still
# reads these as ewlgames.<name>, until ROADMAP item 1 moves it to the sweeps.
from .circuit import EntanglementParam
from .equilibrium import PriorProbability, nash_bayesian, nash_two_player, payoff_tensor
from .sweep import SweepRecord, payoff_histogram, scatter_theta

__all__ = [
    "__version__",
    "GameDefinition",
    "StrategyParams",
    "SteppingParams",
    "StrategyGrid",
    "build_grid",
    "DEFAULT_EPSILON",
    "default_gamma_grid",
    "default_p_grid",
    "gamma_sweep",
    "bayes_sweep",
    "RecordTable",
    "critical_gamma",
    "CriticalBracket",
    "GameCatalogue",
    "CatalogueError",
    "load_catalogue",
    "load_default_catalogue",
]
