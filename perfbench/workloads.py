"""The benchmark's workloads: one ewlgames CLI invocation each.

Each one stresses different layers; perfbench/README.md records why each
was chosen and which metrics it should move.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .inputs import ANALYZE_GAMMAS, ANALYZE_ROWS_PER_GAMMA

CATALOGUE = "games.ini"
ANALYZE_INPUT = "input.csv"
GAMMA_SLICE = "0.7"
BIN_WIDTH = 0.05
ANALYSIS_COLUMNS = {
    "theta_scatter": ["theta_a", "theta_b"],
    "payoff_hist": ["bin_center", "count"],
    "theta_payoff": ["theta_a", "payoff_a"],
}
ANALYSIS_PARTS = tuple(ANALYSIS_COLUMNS)


def parse_angle(text: str) -> float:
    """Radians from 'pi/N' (computed as the CLI does) or a decimal literal."""
    if text.startswith("pi/"):
        return 1.0 * math.pi / float(text[3:])
    return float(text)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str
    games: tuple[str, ...] = ()
    steps: str = ""
    grid_size: int = 0
    gamma: str = ""
    gamma_grid: int = 0
    p_grid: int = 0
    out: str = "records.csv"
    plot: str = ""

    @property
    def bayes(self) -> bool:
        return self.command == "bayes-sweep"

    @property
    def analyze(self) -> bool:
        return self.command == "analyze"

    @property
    def step_values(self) -> tuple[float, float, float]:
        return tuple(parse_angle(s) for s in self.steps.split(","))

    @property
    def points(self) -> int:
        """Sweep points per operation; records analysed for `analyze`."""
        if self.analyze:
            return ANALYZE_GAMMAS * ANALYZE_ROWS_PER_GAMMA
        return (self.gamma_grid or 1) * (self.p_grid or 1)

    def argv(self) -> list[str]:
        """CLI arguments after `python -m ewlgames`, relative to the work directory."""
        args = [self.command]
        if self.analyze:
            args += ["--records", ANALYZE_INPUT, "--gamma-slice", GAMMA_SLICE]
        else:
            args += ["--catalogue", CATALOGUE, "--game", self.games[0]]
            if self.bayes:
                args += ["--game2", self.games[1]]
            args += ["--steps", self.steps]
        if self.gamma:
            args += ["--gamma", self.gamma]
        if self.gamma_grid:
            args += ["--gamma-grid", str(self.gamma_grid)]
        if self.p_grid:
            args += ["--p-grid", str(self.p_grid)]
        if self.out.endswith(".json"):
            args += ["--format", "json"]
        args += ["--out", self.out]
        if self.plot:
            args += ["--plot", self.plot]
        return args

    def outputs(self) -> list[str]:
        """Data files one operation writes (records, or analysis CSVs)."""
        if self.analyze:
            return [f"{self.out}_{part}.csv" for part in ANALYSIS_PARTS]
        return [self.out]

    def svgs(self) -> list[str]:
        if self.analyze:
            return [f"{self.plot}_{part}.svg" for part in ANALYSIS_PARTS]
        return [self.plot] if self.plot else []


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-pd-1824",
            why="1824 strategies x 65 gammas: kernel and Nash reduction dominate",
            command="sweep",
            games=("prisoners_dilemma",),
            steps="pi/8,pi/8,pi/8",
            grid_size=1824,
            gamma_grid=65,
            plot="records.svg",
        ),
        Workload(
            name="bayes-pd-deadlock-1824",
            why="1824 strategies x 5 gammas x 5 priors: Bayesian composition and JSON emission",
            command="bayes-sweep",
            games=("prisoners_dilemma", "deadlock"),
            steps="pi/8,pi/8,pi/8",
            grid_size=1824,
            gamma_grid=5,
            p_grid=5,
            out="records.json",
            plot="records.svg",
        ),
        Workload(
            name="solve-stag-7968",
            why="one gamma on the 7968 grid: 508 MB tables, peak memory and grid build",
            command="solve",
            games=("stag_hunt",),
            steps="pi/32,pi/8,pi/8",
            grid_size=7968,
            gamma="pi/8",
        ),
        Workload(
            name="analyze-stag-130k",
            why="130k-row records CSV: read path, row writing and SVG rendering, no kernel",
            command="analyze",
            out="analysis",
            plot="analysis",
        ),
    )
}
