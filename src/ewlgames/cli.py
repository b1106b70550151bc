"""Command-line front end.

Subcommands: solve, sweep, bayes-sweep, analyze, strategies. Each option
is declared once in OPTIONS (type, default, help), and COMMANDS names the
options each subcommand takes and which of them it requires; a missing
one is reported before any work starts. `ewlgames <command> --help` shows
every default. A `[run]` section in an INI config file (--config) replaces
those defaults, in --help too: its keys are the flag names with `_` for
`-`, its values are converted and checked exactly like flags, and a key
that belongs to another subcommand is ignored. Explicit flags win over the
file, which wins over the built-in defaults.

Exit codes: 0 success (an empty equilibrium set is a result, not an
error), 1 usage/config error (an unknown key, a bad value, a non-finite
angle or bin width, a malformed or out-of-range --records file), 2 I/O
error.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import math
import re
import sys

import numpy as np

from . import __version__
from .catalogue import CatalogueError, load_catalogue, load_default_catalogue
from .circuit import GameDefinition
from .equilibrium import DEFAULT_EPSILON
from .grid import SteppingParams, StrategyGrid, build_grid
from .output import (
    STRATEGY_COLUMNS,
    atomic_writer,
    read_two_player_csv,
    write_columns,
    write_columns_csv,
    write_records_csv,
    write_records_json,
)
from .sweep import (
    _GAMMA_MATCH,
    DEFAULT_BIN_WIDTH,
    DEFAULT_GAMMA_POINTS,
    DEFAULT_P_POINTS,
    RecordTable,
    bayes_sweep,
    default_gamma_grid,
    default_p_grid,
    gamma_sweep,
    payoff_bins,
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
    """Finite radians from a decimal literal or a 'pi', '2pi', 'pi/8', '3pi/4' form; never -0.0."""
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
    return value + 0.0  # '-0' is 0.0, not -0.0


def parse_steps(text: str) -> SteppingParams:
    parts = [p for p in str(text).split(",") if p.strip()]
    if len(parts) != 3:
        raise ConfigError(f"--steps needs three comma-separated angles, got {text!r}")
    t, p, a = (parse_angle(x) for x in parts)
    try:
        return SteppingParams(t, p, a)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_epsilon(text: str) -> float:
    """A finite tie tolerance >= 0, checked before any command reads or writes a file."""
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise ConfigError(f"epsilon must be finite and >= 0, got {text!r}")
    return value


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
    "epsilon": (_parse_epsilon, DEFAULT_EPSILON, "payoff tie tolerance"),
    "out": (str, None, "output path (analyze: prefix of the CSV files)"),
    "format": (_output_format, "csv", "output format, csv or json"),
    "plot": (str, None, "SVG output path (analyze: prefix of the SVG files)"),
    "records": (str, None, "existing two-player sweep CSV (skips the inline sweep)"),
    "gamma_slice": (parse_angle, None, "gamma value for the payoff histogram"),
    "bin_width": (float, DEFAULT_BIN_WIDTH, "histogram bin width"),
}


class _FileValue(str):
    """A `[run]` value, tagged with the file and key it came from."""

    def __new__(cls, text: str, where: str):
        value = super().__new__(cls, text)
        value.where = where
        return value


def _reporting_file(convert):
    """`convert`, but a bad `_FileValue` is reported by its file and key.

    argparse converts a config value only when its flag is absent, and would
    report a bad one as if the flag had been given.
    """

    @functools.wraps(convert)  # keeps the type name argparse prints for a bad flag
    def converted(text):
        try:
            return convert(text)
        except ConfigError as exc:
            if not isinstance(text, _FileValue):
                raise
            raise ConfigError(f"{text.where}: {exc}") from None
        except (TypeError, ValueError):
            if not isinstance(text, _FileValue):
                raise
            raise ConfigError(f"{text.where}: invalid {convert.__name__} value: {str(text)!r}") from None

    return converted


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
    return {key: _FileValue(text, f"{path}: [run] {key}") for key, text in values.items()}


def _load_games(args: argparse.Namespace, names: list[str]) -> list[GameDefinition]:
    catalogue = load_catalogue(args.catalogue) if args.catalogue else load_default_catalogue()
    return [catalogue.get(n) for n in names]


def _emit_records(args: argparse.Namespace, grid: StrategyGrid, table: RecordTable, **metadata) -> None:
    """Write `table` as --format says; JSON metadata is the run's plus the command's own keys."""
    if args.format == "csv":
        write_records_csv(args.out, table, bayes=table.bayes)
    else:
        metadata.update(
            command=args.command,
            steps=list(grid.source_steps.astuple()),
            epsilon=args.epsilon,
            grid_size=len(grid),
        )
        write_records_json(args.out, table, bayes=table.bayes, metadata=metadata)
    print(f"wrote {len(table)} record(s) to {args.out}")


def _branch_points(table: RecordTable, payoff: str, rows=slice(None)) -> list[tuple[float, float]]:
    """The distinct (gamma, payoff) points of the selected rows, sorted.

    The set is filled in record order, so of two equal points (0.0 and
    -0.0) the first record's is the one drawn.
    """
    gamma, value = (table.columns[name][rows].tolist() for name in ("gamma", payoff))
    return sorted(set(zip(gamma, value)))


def _plot_two_player(table: RecordTable, title: str, path: str) -> None:
    fig = Figure(title=title, xlabel="entanglement gamma (rad)", ylabel="payoff")
    fig.add_scatter("player A", _branch_points(table, "payoff_a"))
    fig.add_scatter("player B", _branch_points(table, "payoff_b"))
    fig.render(path)


def _plot_bayes(table: RecordTable, p_points: list[float], title: str, path: str) -> None:
    fig = Figure(title=title, xlabel="entanglement gamma (rad)", ylabel="payoff A")
    slices = sorted({p_points[0], p_points[len(p_points) // 2], p_points[-1]})
    for p in slices:
        fig.add_scatter(f"p={p:.3g}", _branch_points(table, "payoff_a", table.columns["p"] == p))
    fig.render(path)


def cmd_solve(args: argparse.Namespace) -> int:
    (game,) = _load_games(args, [args.game])
    grid = build_grid(args.steps)
    table = gamma_sweep(game, grid, [args.gamma], args.epsilon)
    _emit_records(args, grid, table, game=game.name, gamma=args.gamma)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    (game,) = _load_games(args, [args.game])
    grid = build_grid(args.steps)
    gamma_points = default_gamma_grid(args.gamma_grid)
    table = gamma_sweep(game, grid, gamma_points, args.epsilon)
    _emit_records(args, grid, table, game=game.name, gamma_points=len(gamma_points))
    if args.plot:
        _plot_two_player(table, f"{game.name}: equilibrium payoffs vs entanglement", args.plot)
        print(f"wrote plot to {args.plot}")
    return EXIT_OK


def cmd_bayes_sweep(args: argparse.Namespace) -> int:
    game1, game2 = _load_games(args, [args.game, args.game2])
    grid = build_grid(args.steps)
    gamma_points = default_gamma_grid(args.gamma_grid)
    p_points = default_p_grid(args.p_grid)
    table = bayes_sweep(game1, game2, grid, gamma_points, p_points, args.epsilon)
    _emit_records(
        args, grid, table, game=game1.name, game2=game2.name,
        gamma_points=len(gamma_points), p_points=len(p_points),
    )
    if args.plot:
        _plot_bayes(table, p_points, f"{game1.name} vs {game2.name}: A payoff", args.plot)
        print(f"wrote plot to {args.plot}")
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.records:
        loaded = read_two_player_csv(args.records)
        if not len(loaded):
            raise ConfigError(f"{args.records}: no records to analyze")
        columns = loaded.columns
        # The file only holds gammas with equilibria; the swept grid holds the rest.
        gamma_values = loaded.gamma_values + [
            g
            for g in default_gamma_grid(args.gamma_grid)
            if all(abs(g - r) > _GAMMA_MATCH for r in loaded.gamma_values)
        ]
    else:
        (game,) = _load_games(args, [args.game])
        grid = build_grid(args.steps)
        gamma_values = default_gamma_grid(args.gamma_grid)
        columns = gamma_sweep(game, grid, gamma_values, args.epsilon).columns

    gamma_slice = args.gamma_slice
    # every record's gamma is one of gamma_values
    swept = sorted(set(gamma_values))
    if gamma_slice < swept[0] - 1e-12 or gamma_slice > swept[-1] + 1e-12:
        raise ConfigError(
            f"--gamma-slice {gamma_slice:.12g} outside the swept range "
            f"[{swept[0]:.12g}, {swept[-1]:.12g}]"
        )
    nearest = min(swept, key=lambda g: abs(g - gamma_slice))
    if nearest != gamma_slice:
        print(f"note: histogram slice snapped to the nearest swept gamma {nearest:.12g}")
        gamma_slice = nearest

    hist = payoff_bins(columns["gamma"], columns["payoff_a"], gamma_slice, args.bin_width)
    # every figure is drawn, and so checked, before any file is written
    svgs = {}
    if args.plot:
        theta_a, theta_b, payoff_a = (columns[name] for name in ("theta_a", "theta_b", "payoff_a"))
        fig = Figure("equilibrium strategy angles", "theta_A (rad)", "theta_B (rad)")
        fig.add_scatter("", np.column_stack((theta_a, theta_b)))
        svgs[f"{args.plot}_theta_scatter.svg"] = fig.svg()
        fig = Figure(f"A payoffs at gamma={gamma_slice:.4g}", "payoff A", "count")
        fig.add_bars((c, n, args.bin_width) for c, n in hist)
        svgs[f"{args.plot}_payoff_hist.svg"] = fig.svg()
        fig = Figure("A payoff vs theta_A", "theta_A (rad)", "payoff A")
        fig.add_scatter("", np.column_stack((theta_a, payoff_a)))
        svgs[f"{args.plot}_theta_payoff.svg"] = fig.svg()

    bins = np.array(hist, dtype=[("bin_center", np.float64), ("count", np.int64)])
    tables = {
        "theta_scatter": {name: columns[name] for name in ("theta_a", "theta_b")},
        "payoff_hist": {name: bins[name] for name in bins.dtype.names},
        "theta_payoff": {name: columns[name] for name in ("theta_a", "payoff_a")},
    }
    paths = {name: f"{args.out}_{name}.csv" for name in tables}
    for name, table in tables.items():
        write_columns_csv(paths[name], list(table), list(table.values()))
    for name, p in paths.items():
        print(f"wrote {name} to {p}")

    for path, text in svgs.items():
        with atomic_writer(path) as fh:
            fh.write(text)
    if args.plot:
        print(f"wrote plots to {args.plot}_*.svg")
    return EXIT_OK


def cmd_strategies(args: argparse.Namespace) -> int:
    grid = build_grid(args.steps)
    columns = [np.arange(len(grid)), *grid.angles.T]
    if args.out:
        write_columns_csv(args.out, STRATEGY_COLUMNS, columns)
        print(f"wrote {len(grid)} strategies to {args.out}")
    else:
        write_columns(sys.stdout, STRATEGY_COLUMNS, columns)
    return EXIT_OK


_RECORD_OPTIONS = ("game", "catalogue", "steps", "epsilon", "out")

# subcommand -> (handler, summary, option names, required option names in the
# order `main` checks them); every one also takes --config. analyze needs
# --game only without --records.
COMMANDS = {
    "solve": (
        cmd_solve,
        "equilibria of one game at one entanglement",
        (*_RECORD_OPTIONS, "format", "gamma"),
        ("game", "out"),
    ),
    "sweep": (
        cmd_sweep,
        "two-player equilibria across entanglement values",
        (*_RECORD_OPTIONS, "format", "gamma_grid", "plot"),
        ("game", "out"),
    ),
    "bayes-sweep": (
        cmd_bayes_sweep,
        "Bayesian equilibria over the (gamma, p) grid",
        (*_RECORD_OPTIONS, "format", "game2", "gamma_grid", "p_grid", "plot"),
        ("game", "game2", "out"),
    ),
    "analyze": (
        cmd_analyze,
        "theta scatters and payoff histogram from records",
        (*_RECORD_OPTIONS, "records", "gamma_grid", "gamma_slice", "bin_width", "plot"),
        ("game", "gamma_slice", "out"),
    ),
    "strategies": (cmd_strategies, "list the deduplicated strategy grid as CSV", ("steps", "out"), ()),
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
    for command, (func, summary, names, _) in COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        sub.add_argument("--config", help="INI file with a [run] section of option defaults")
        for name in names:
            convert, default, text = OPTIONS[name]
            default = config.get(name, default)
            if isinstance(default, _FileValue):
                convert = _reporting_file(convert)
            if default is not None:
                text += " (default: %(default)s)"
            sub.add_argument("--" + name.replace("_", "-"), type=convert, default=default, help=text)
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # --config is read before the full parse so that --help shows the file's
        # defaults; a bare --config is left for the full parser to report.
        pre = _Parser(add_help=False)
        pre.add_argument("--config", nargs="?")
        path = pre.parse_known_args(argv)[0].config
        args = build_parser(_read_config_file(path) if path else None).parse_args(argv)
        for name in COMMANDS[args.command][3]:
            if getattr(args, name) is None and not (name == "game" and getattr(args, "records", None)):
                raise ConfigError(f"missing required option --{name.replace('_', '-')}")
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
