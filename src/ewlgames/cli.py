"""Command-line front end.

Subcommands: solve, sweep, bayes-sweep, analyze, strategies. Each option
is declared once in OPTIONS (type, default, help), and COMMANDS names the
options each subcommand takes; `ewlgames <command> --help` shows every
default. A `[run]` section in an INI config file (--config) replaces those
defaults: its keys are the flag names with `_` for `-`, its values are
converted and checked exactly like flags, and a key that belongs to another
subcommand is ignored. Explicit flags win over the file, which wins over
the built-in defaults.

Exit codes: 0 success (an empty equilibrium set is a result, not an
error), 1 usage/config error (an unknown key, a bad value, a non-finite
angle or bin width), 2 I/O error.
"""
from __future__ import annotations

import argparse
import configparser
import math
import re
import sys

from . import __version__
from .catalogue import CatalogueError, load_catalogue, load_default_catalogue
from .circuit import GameDefinition
from .equilibrium import DEFAULT_EPSILON
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
    DEFAULT_BIN_WIDTH,
    DEFAULT_GAMMA_POINTS,
    DEFAULT_P_POINTS,
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
    """Finite radians from a decimal literal or a 'pi', '2pi', 'pi/8', '3pi/4' form."""
    s = str(text).strip().lower().replace(" ", "")
    m = _ANGLE_RE.match(s)
    if m:
        num = float(m.group("num")) if m.group("num") else 1.0
        den = float(m.group("den")) if m.group("den") else 1.0
        value = num * math.pi / den if den else math.inf
    else:
        try:
            value = float(s)
        except ValueError:
            raise ConfigError(f"cannot parse angle {text!r} (use radians or pi fractions like pi/8)") from None
    if not math.isfinite(value):
        raise ConfigError(f"angle {text!r} is not finite")
    return value


def parse_steps(text: str) -> SteppingParams:
    parts = [p for p in str(text).split(",") if p.strip()]
    if len(parts) != 3:
        raise ConfigError(f"--steps needs three comma-separated angles, got {text!r}")
    t, p, a = (parse_angle(x) for x in parts)
    try:
        return SteppingParams(t, p, a)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _output_format(text: str) -> str:
    if text not in ("csv", "json"):
        raise ConfigError(f"--format must be csv or json, got {text!r}")
    return text


# name -> (type, default, help). The flag is --name with '-' for '_'; the
# config-file key is the name itself.
OPTIONS = {
    "game": (str, None, "game name from the catalogue"),
    "game2": (str, None, "second game name (B2's payoffs)"),
    "catalogue": (str, None, "catalogue file (default: built-in)"),
    "steps": (parse_steps, "pi,pi/2,pi/2", "grid steps as T,P,A angles"),
    "gamma": (parse_angle, "0", "entanglement angle (radians or pi fraction)"),
    "gamma_grid": (int, DEFAULT_GAMMA_POINTS, "number of gamma points"),
    "p_grid": (int, DEFAULT_P_POINTS, "number of prior points"),
    "epsilon": (float, DEFAULT_EPSILON, "payoff tie tolerance"),
    "out": (str, None, "output path (analyze: prefix of the CSV files)"),
    "format": (_output_format, "csv", "output format, csv or json"),
    "plot": (str, None, "SVG output path (analyze: prefix of the SVG files)"),
    "records": (str, None, "existing two-player sweep CSV (skips the inline sweep)"),
    "gamma_slice": (parse_angle, None, "gamma value for the payoff histogram"),
    "bin_width": (float, DEFAULT_BIN_WIDTH, "histogram bin width"),
}


def _read_config_file(path: str) -> dict[str, str]:
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh, source=path)
        except configparser.Error as exc:
            raise ConfigError(f"bad config file: {exc}") from exc
    if "run" not in parser:
        raise ConfigError(f"{path}: config file needs a [run] section")
    values = dict(parser["run"])
    unknown = set(values) - set(OPTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    return values


def _require(args: argparse.Namespace, key: str):
    value = getattr(args, key)
    if value is None:
        raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return value


def _load_games(args: argparse.Namespace, names: list[str]) -> list[GameDefinition]:
    catalogue = load_catalogue(args.catalogue) if args.catalogue else load_default_catalogue()
    return [catalogue.get(n) for n in names]


def _emit_records(
    args: argparse.Namespace,
    records: list[SweepRecord],
    *,
    bayes: bool,
    metadata: dict,
) -> None:
    out = _require(args, "out")
    if args.format == "csv":
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
    (game,) = _load_games(args, [_require(args, "game")])
    grid = build_grid(args.steps)
    records = gamma_sweep(game, grid, [args.gamma], args.epsilon)
    _emit_records(
        args,
        records,
        bayes=False,
        metadata={
            "command": "solve",
            "game": game.name,
            "steps": list(grid.source_steps.astuple()),
            "gamma": args.gamma,
            "epsilon": args.epsilon,
            "grid_size": len(grid),
        },
    )
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    (game,) = _load_games(args, [_require(args, "game")])
    grid = build_grid(args.steps)
    gamma_points = default_gamma_grid(args.gamma_grid)
    records = gamma_sweep(game, grid, gamma_points, args.epsilon)
    _emit_records(
        args,
        records,
        bayes=False,
        metadata={
            "command": "sweep",
            "game": game.name,
            "steps": list(grid.source_steps.astuple()),
            "gamma_points": len(gamma_points),
            "epsilon": args.epsilon,
            "grid_size": len(grid),
        },
    )
    if args.plot:
        _plot_two_player(records, f"{game.name}: equilibrium payoffs vs entanglement", args.plot)
        print(f"wrote plot to {args.plot}")
    return EXIT_OK


def cmd_bayes_sweep(args: argparse.Namespace) -> int:
    game1, game2 = _load_games(args, [_require(args, "game"), _require(args, "game2")])
    grid = build_grid(args.steps)
    gamma_points = default_gamma_grid(args.gamma_grid)
    p_points = default_p_grid(args.p_grid)
    records = bayes_sweep(game1, game2, grid, gamma_points, p_points, args.epsilon)
    _emit_records(
        args,
        records,
        bayes=True,
        metadata={
            "command": "bayes-sweep",
            "game": game1.name,
            "game2": game2.name,
            "steps": list(grid.source_steps.astuple()),
            "gamma_points": len(gamma_points),
            "p_points": len(p_points),
            "epsilon": args.epsilon,
            "grid_size": len(grid),
        },
    )
    if args.plot:
        _plot_bayes(records, p_points, f"{game1.name} vs {game2.name}: A payoff", args.plot)
        print(f"wrote plot to {args.plot}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.records:
        loaded = read_two_player_csv(args.records)
        records, gamma_values = loaded.records, loaded.gamma_values
    else:
        (game,) = _load_games(args, [_require(args, "game")])
        grid = build_grid(args.steps)
        gamma_values = default_gamma_grid(args.gamma_grid)
        records = gamma_sweep(game, grid, gamma_values, args.epsilon)

    gamma_slice = _require(args, "gamma_slice")
    swept = sorted({r.gamma for r in records} | set(gamma_values))
    if not swept:
        raise ConfigError(f"{args.records}: no records to analyze")
    if gamma_slice < swept[0] - 1e-12 or gamma_slice > swept[-1] + 1e-12:
        raise ConfigError(
            f"--gamma-slice {gamma_slice:.12g} outside the swept range "
            f"[{swept[0]:.12g}, {swept[-1]:.12g}]"
        )
    nearest = min(swept, key=lambda g: abs(g - gamma_slice))
    if nearest != gamma_slice:
        print(f"note: histogram slice snapped to the nearest swept gamma {nearest:.12g}")
        gamma_slice = nearest

    prefix = _require(args, "out")
    theta_points = scatter_theta(records)
    hist = payoff_histogram(records, gamma_slice, args.bin_width)
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

    plot = args.plot
    if plot:
        fig = Figure("equilibrium strategy angles", "theta_A (rad)", "theta_B (rad)")
        fig.add_scatter("", theta_points)
        fig.render(f"{plot}_theta_scatter.svg")
        fig = Figure(f"A payoffs at gamma={gamma_slice:.4g}", "payoff A", "count")
        fig.add_bars((c, n, args.bin_width) for c, n in hist)
        fig.render(f"{plot}_payoff_hist.svg")
        fig = Figure("A payoff vs theta_A", "theta_A (rad)", "payoff A")
        fig.add_scatter("", theta_payoff)
        fig.render(f"{plot}_theta_payoff.svg")
        print(f"wrote plots to {plot}_*.svg")
    return EXIT_OK


def cmd_strategies(args: argparse.Namespace) -> int:
    grid = build_grid(args.steps)
    rows = [
        [i, p.theta, p.phi, p.alpha] for i, p in enumerate(grid.params)
    ]
    if args.out:
        write_rows_csv(args.out, STRATEGY_COLUMNS, rows)
        print(f"wrote {len(rows)} strategies to {args.out}")
    else:
        print(",".join(STRATEGY_COLUMNS))
        for row in rows:
            print(",".join(fmt(v) for v in row))
    return EXIT_OK


_RECORD_OPTIONS = ("game", "catalogue", "steps", "epsilon", "out", "format")

# subcommand -> (handler, summary, option names); every one also takes --config
COMMANDS = {
    "solve": (cmd_solve, "equilibria of one game at one entanglement", (*_RECORD_OPTIONS, "gamma")),
    "sweep": (
        cmd_sweep,
        "two-player equilibria across entanglement values",
        (*_RECORD_OPTIONS, "gamma_grid", "plot"),
    ),
    "bayes-sweep": (
        cmd_bayes_sweep,
        "Bayesian equilibria over the (gamma, p) grid",
        (*_RECORD_OPTIONS, "game2", "gamma_grid", "p_grid", "plot"),
    ),
    "analyze": (
        cmd_analyze,
        "theta scatters and payoff histogram from records",
        (*_RECORD_OPTIONS, "records", "gamma_grid", "gamma_slice", "bin_width", "plot"),
    ),
    "strategies": (cmd_strategies, "list the deduplicated strategy grid as CSV", ("steps", "out")),
}


def build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The full CLI parser; `config` values replace the built-in option defaults.

    argparse converts a string default with the option's type when the flag
    is absent, so config values are checked like flags and flags still win.
    """
    config = config or {}
    parser = _Parser(prog="ewlgames", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"ewlgames {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (func, summary, names) in COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        sub.add_argument("--config", help="INI file with a [run] section of option defaults")
        for name in names:
            convert, default, text = OPTIONS[name]
            default = config.get(name, default)
            if default is not None:
                text += " (default: %(default)s)"
            sub.add_argument("--" + name.replace("_", "-"), type=convert, default=default, help=text)
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.config:
            args = build_parser(_read_config_file(args.config)).parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ConfigError, CatalogueError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
