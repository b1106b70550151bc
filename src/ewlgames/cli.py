"""Command-line front end.

Subcommands: solve, sweep, bayes-sweep, analyze, strategies. Every option
can also come from a `[run]` section in an INI config file (--config);
explicit flags win over the file, which wins over built-in defaults.

Exit codes: 0 success (an empty equilibrium set is a result, not an
error), 1 usage/config error, 2 I/O error.
"""
from __future__ import annotations

import argparse
import configparser
import math
import re
import sys

from . import __version__
from .catalogue import CatalogueError, load_catalogue, load_default_catalogue
from .circuit import EntanglementParam, GameDefinition
from .grid import SteppingParams, build_grid
from .output import (
    STRATEGY_COLUMNS,
    fmt,
    read_two_player_csv,
    write_records_csv,
    write_records_json,
    write_rows_csv,
)
from .sweep import (
    SweepRecord,
    bayes_sweep,
    default_gamma_grid,
    default_p_grid,
    gamma_sweep,
    payoff_histogram,
    scatter_theta,
)
from .svgplot import Figure

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2

DEFAULTS = {
    "steps": "pi,pi/2,pi/2",
    "gamma": "0",
    "gamma_grid": 65,
    "p_grid": 21,
    "epsilon": 1e-9,
    "format": "csv",
    "bin_width": 0.05,
}

_ANGLE_RE = re.compile(r"^(?P<num>\d+(?:\.\d+)?)?\s*\*?\s*pi\s*(?:/\s*(?P<den>\d+(?:\.\d+)?))?$")


class ConfigError(Exception):
    """Bad option value or inconsistent run configuration."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract reserves 2 for I/O.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def parse_angle(text: str) -> float:
    """Radians from a decimal literal or a 'pi', '2pi', 'pi/8', '3pi/4' form."""
    s = str(text).strip().lower().replace(" ", "")
    m = _ANGLE_RE.match(s)
    if m:
        num = float(m.group("num")) if m.group("num") else 1.0
        den = float(m.group("den")) if m.group("den") else 1.0
        return num * math.pi / den
    try:
        return float(s)
    except ValueError:
        raise ConfigError(f"cannot parse angle {text!r} (use radians or pi fractions like pi/8)") from None


def parse_steps(text: str) -> SteppingParams:
    parts = [p for p in str(text).split(",") if p.strip()]
    if len(parts) != 3:
        raise ConfigError(f"--steps needs three comma-separated angles, got {text!r}")
    t, p, a = (parse_angle(x) for x in parts)
    try:
        return SteppingParams(t, p, a)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _read_config_file(path: str) -> dict[str, str]:
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh, source=path)
        except configparser.Error as exc:
            raise ConfigError(f"bad config file: {exc}") from exc
    if "run" not in parser:
        raise ConfigError(f"{path}: config file needs a [run] section")
    known = {
        "game", "game2", "catalogue", "steps", "gamma", "gamma_grid", "p_grid",
        "epsilon", "out", "format", "plot", "records", "gamma_slice",
        "bin_width",
    }
    values = dict(parser["run"])
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    return values


class Settings:
    """Flag / config-file / default resolution for one command invocation."""

    def __init__(self, args: argparse.Namespace):
        self.args = vars(args)
        self.file = _read_config_file(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, convert=str, default=None):
        flag = self.args.get(key)
        if flag is not None:
            raw = flag
        elif key in self.file:
            raw = self.file[key]
        elif key in DEFAULTS:
            raw = DEFAULTS[key]
        else:
            return default
        if isinstance(raw, str):
            try:
                return convert(raw)
            except ConfigError:
                raise
            except ValueError:
                raise ConfigError(f"bad value for {key!r}: {raw!r}") from None
        return raw

    def require(self, key: str, convert=str):
        value = self.get(key, convert)
        if value is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
        return value


def _load_games(settings: Settings, names: list[str]) -> list[GameDefinition]:
    path = settings.get("catalogue")
    catalogue = load_catalogue(path) if path else load_default_catalogue()
    return [catalogue.get(n) for n in names]


def _gamma_points(settings: Settings) -> list[float]:
    n = settings.get("gamma_grid", int)
    return default_gamma_grid(n)


def _emit_records(
    settings: Settings,
    records: list[SweepRecord],
    *,
    bayes: bool,
    metadata: dict,
) -> None:
    out = settings.require("out")
    fmt_name = settings.get("format")
    if fmt_name not in ("csv", "json"):
        raise ConfigError(f"--format must be csv or json, got {fmt_name!r}")
    if fmt_name == "csv":
        write_records_csv(out, records, bayes=bayes)
    else:
        write_records_json(out, records, bayes=bayes, metadata=metadata)
    print(f"wrote {len(records)} record(s) to {out}")


def _plot_two_player(records: list[SweepRecord], title: str, path: str) -> None:
    fig = Figure(title=title, xlabel="entanglement gamma (rad)", ylabel="payoff")
    seen_a = sorted({(r.gamma, r.equilibrium.payoffs[0]) for r in records})
    seen_b = sorted({(r.gamma, r.equilibrium.payoffs[1]) for r in records})
    fig.add_scatter("player A", seen_a)
    fig.add_scatter("player B", seen_b)
    fig.render(path)


def _plot_bayes(records: list[SweepRecord], p_points: list[float], title: str, path: str) -> None:
    fig = Figure(title=title, xlabel="entanglement gamma (rad)", ylabel="payoff A")
    slices = sorted({p_points[0], p_points[len(p_points) // 2], p_points[-1]})
    for p in slices:
        pts = sorted({(r.gamma, r.equilibrium.payoffs[0]) for r in records if r.p == p})
        fig.add_scatter(f"p={p:.3g}", pts)
    fig.render(path)


def cmd_solve(args: argparse.Namespace) -> int:
    settings = Settings(args)
    (game,) = _load_games(settings, [settings.require("game")])
    grid = build_grid(settings.get("steps", parse_steps))
    gamma = settings.get("gamma", parse_angle)
    try:
        gamma_param = EntanglementParam(gamma)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    epsilon = settings.get("epsilon", float)
    records = gamma_sweep(game, grid, [gamma_param.gamma], epsilon)
    _emit_records(
        settings,
        records,
        bayes=False,
        metadata={
            "command": "solve",
            "game": game.name,
            "steps": list(grid.source_steps.astuple()),
            "gamma": gamma,
            "epsilon": epsilon,
            "grid_size": len(grid),
        },
    )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    settings = Settings(args)
    (game,) = _load_games(settings, [settings.require("game")])
    grid = build_grid(settings.get("steps", parse_steps))
    gamma_points = _gamma_points(settings)
    epsilon = settings.get("epsilon", float)
    records = gamma_sweep(game, grid, gamma_points, epsilon)
    _emit_records(
        settings,
        records,
        bayes=False,
        metadata={
            "command": "sweep",
            "game": game.name,
            "steps": list(grid.source_steps.astuple()),
            "gamma_points": len(gamma_points),
            "epsilon": epsilon,
            "grid_size": len(grid),
        },
    )
    plot = settings.get("plot")
    if plot:
        _plot_two_player(records, f"{game.name}: equilibrium payoffs vs entanglement", plot)
        print(f"wrote plot to {plot}")
    return EXIT_OK


def cmd_bayes_sweep(args: argparse.Namespace) -> int:
    settings = Settings(args)
    game1, game2 = _load_games(
        settings, [settings.require("game"), settings.require("game2")]
    )
    grid = build_grid(settings.get("steps", parse_steps))
    gamma_points = _gamma_points(settings)
    p_points = default_p_grid(settings.get("p_grid", int))
    epsilon = settings.get("epsilon", float)
    records = bayes_sweep(game1, game2, grid, gamma_points, p_points, epsilon)
    _emit_records(
        settings,
        records,
        bayes=True,
        metadata={
            "command": "bayes-sweep",
            "game": game1.name,
            "game2": game2.name,
            "steps": list(grid.source_steps.astuple()),
            "gamma_points": len(gamma_points),
            "p_points": len(p_points),
            "epsilon": epsilon,
            "grid_size": len(grid),
        },
    )
    plot = settings.get("plot")
    if plot:
        _plot_bayes(
            records, p_points, f"{game1.name} vs {game2.name}: A payoff", plot
        )
        print(f"wrote plot to {plot}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    settings = Settings(args)
    records_path = settings.get("records")
    if records_path:
        loaded = read_two_player_csv(records_path)
        records, gamma_values = loaded.records, loaded.gamma_values
    else:
        (game,) = _load_games(settings, [settings.require("game")])
        grid = build_grid(settings.get("steps", parse_steps))
        gamma_values = _gamma_points(settings)
        records = gamma_sweep(game, grid, gamma_values, settings.get("epsilon", float))

    gamma_slice = settings.require("gamma_slice", parse_angle)
    swept = sorted({r.gamma for r in records} | set(gamma_values))
    if not swept:
        raise ConfigError(f"{records_path}: no records to analyze")
    if gamma_slice < swept[0] - 1e-12 or gamma_slice > swept[-1] + 1e-12:
        raise ConfigError(
            f"--gamma-slice {gamma_slice:.12g} outside the swept range "
            f"[{swept[0]:.12g}, {swept[-1]:.12g}]"
        )
    nearest = min(swept, key=lambda g: abs(g - gamma_slice))
    if nearest != gamma_slice:
        print(f"note: histogram slice snapped to the nearest swept gamma {nearest:.12g}")
        gamma_slice = nearest
    bin_width = settings.get("bin_width", float)

    prefix = settings.require("out")
    theta_points = scatter_theta(records)
    hist = payoff_histogram(records, gamma_slice, bin_width)
    theta_payoff = [
        (r.strategy_params[0].theta, r.equilibrium.payoffs[0]) for r in records
    ]

    paths = {
        "theta_scatter": f"{prefix}_theta_scatter.csv",
        "payoff_hist": f"{prefix}_payoff_hist.csv",
        "theta_payoff": f"{prefix}_theta_payoff.csv",
    }
    write_rows_csv(paths["theta_scatter"], ["theta_a", "theta_b"], theta_points)
    write_rows_csv(paths["payoff_hist"], ["bin_center", "count"], hist)
    write_rows_csv(paths["theta_payoff"], ["theta_a", "payoff_a"], theta_payoff)
    for name, p in paths.items():
        print(f"wrote {name} to {p}")

    plot = settings.get("plot")
    if plot:
        fig = Figure("equilibrium strategy angles", "theta_A (rad)", "theta_B (rad)")
        fig.add_scatter("", theta_points)
        fig.render(f"{plot}_theta_scatter.svg")
        fig = Figure(f"A payoffs at gamma={gamma_slice:.4g}", "payoff A", "count")
        fig.add_bars((c, n, bin_width) for c, n in hist)
        fig.render(f"{plot}_payoff_hist.svg")
        fig = Figure("A payoff vs theta_A", "theta_A (rad)", "payoff A")
        fig.add_scatter("", theta_payoff)
        fig.render(f"{plot}_theta_payoff.svg")
        print(f"wrote plots to {plot}_*.svg")
    return EXIT_OK


def cmd_strategies(args: argparse.Namespace) -> int:
    settings = Settings(args)
    grid = build_grid(settings.get("steps", parse_steps))
    rows = [
        [i, p.theta, p.phi, p.alpha] for i, p in enumerate(grid.params)
    ]
    out = settings.get("out")
    if out:
        write_rows_csv(out, STRATEGY_COLUMNS, rows)
        print(f"wrote {len(rows)} strategies to {out}")
    else:
        print(",".join(STRATEGY_COLUMNS))
        for row in rows:
            print(",".join(fmt(v) for v in row))
    return EXIT_OK


def _add_common(sub: argparse.ArgumentParser, *, bayes: bool = False) -> None:
    sub.add_argument("--config", help="INI file with a [run] section of option defaults")
    sub.add_argument("--game", help="game name from the catalogue")
    if bayes:
        sub.add_argument("--game2", help="second game name (B2's payoffs)")
    sub.add_argument("--catalogue", help="catalogue file (default: built-in)")
    sub.add_argument("--steps", help="grid steps as T,P,A angles (e.g. pi,pi/2,pi/2)")
    sub.add_argument("--epsilon", help="payoff tie tolerance (default 1e-9)")
    sub.add_argument("--out", help="output file path")
    sub.add_argument("--format", choices=["csv", "json"], help="output format (default csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ewlgames", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ewlgames {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="equilibria of one game at one entanglement")
    _add_common(p)
    p.add_argument("--gamma", help="entanglement angle (radians or pi fraction)")
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("sweep", help="two-player equilibria across entanglement values")
    _add_common(p)
    p.add_argument("--gamma-grid", dest="gamma_grid", help="number of gamma points (default 65)")
    p.add_argument("--plot", help="write an SVG payoff-vs-gamma plot here")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("bayes-sweep", help="Bayesian equilibria over the (gamma, p) grid")
    _add_common(p, bayes=True)
    p.add_argument("--gamma-grid", dest="gamma_grid", help="number of gamma points (default 65)")
    p.add_argument("--p-grid", dest="p_grid", help="number of prior points (default 21)")
    p.add_argument("--plot", help="write an SVG A-payoff plot (p slices) here")
    p.set_defaults(func=cmd_bayes_sweep)

    p = subs.add_parser("analyze", help="theta scatters and payoff histogram from records")
    _add_common(p)
    p.add_argument("--records", help="existing two-player sweep CSV (skips the inline sweep)")
    p.add_argument("--gamma-grid", dest="gamma_grid", help="gamma points for an inline sweep")
    p.add_argument("--gamma-slice", dest="gamma_slice", help="gamma value for the payoff histogram")
    p.add_argument("--bin-width", dest="bin_width", help="histogram bin width (default 0.05)")
    p.add_argument("--plot", help="SVG output prefix (writes <prefix>_*.svg)")
    p.set_defaults(func=cmd_analyze)

    p = subs.add_parser("strategies", help="list the deduplicated strategy grid as CSV")
    p.add_argument("--config", help="INI file with a [run] section of option defaults")
    p.add_argument("--steps", help="grid steps as T,P,A angles")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_strategies)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, CatalogueError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
