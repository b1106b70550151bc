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
error), 1 usage/config error (an unknown key; a bad option value, which
exits before any game, grid or file is read: a non-finite angle, a gamma
or --gamma-slice outside [0, pi/2], a gamma or p grid below 2 points or
not an integer (`error: invalid int value: ...`), an epsilon or bin width
out of range;
a malformed or out-of-range --records file; --out and --plot naming the
same file; a plot that cannot be drawn: every command draws its figures
before it writes any file, so none is left), 2 I/O error.
"""
from __future__ import annotations

import argparse
import configparser
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .catalogue import CatalogueError, load_catalogue, load_default_catalogue
from .circuit import GAMMA_MAX, EntanglementParam, GameDefinition
from .equilibrium import DEFAULT_EPSILON, _require_epsilon
from .grid import SteppingParams, StrategyGrid, build_grid
from .output import (
    STRATEGY_COLUMNS,
    read_two_player_csv,
    write_columns,
    write_columns_csv,
    write_records_csv,
    write_records_json,
    write_text,
)
from .sweep import (
    _GAMMA_MATCH,
    DEFAULT_BIN_WIDTH,
    DEFAULT_GAMMA_POINTS,
    DEFAULT_P_POINTS,
    RecordTable,
    _require_bin_width,
    _require_points,
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


def _number(parse, check):
    """An option type: the number `parse` reads from the text, once `check` accepts it.

    It raises only ConfigError: `invalid <parse> value: '<text>'`, or the
    message of `check`'s ValueError, which shows the parsed value. '-0'
    reads as 0.
    """

    def convert(text: str):
        try:
            value = parse(text) + 0
        except ValueError:
            raise ConfigError(f"invalid {parse.__name__} value: {text!r}") from None
        try:
            check(value)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return value

    return convert


def _require_swept(gamma: float) -> None:
    """ValueError unless gamma lies within 1e-12 of [0, pi/2].

    Every sweep covers that range: the default gamma grid spans it, and the
    records reader rejects gammas outside it.
    """
    if not -1e-12 <= gamma <= GAMMA_MAX + 1e-12:
        raise ValueError(f"--gamma-slice {gamma:.12g} outside the swept range [0, {GAMMA_MAX:.12g}]")


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
    "gamma": (_number(parse_angle, EntanglementParam), "0", "entanglement angle (radians or pi fraction)"),
    "gamma_grid": (_number(int, lambda n: _require_points("gamma", n)), DEFAULT_GAMMA_POINTS, "number of gamma points"),
    "p_grid": (_number(int, lambda n: _require_points("p", n)), DEFAULT_P_POINTS, "number of prior points"),
    "epsilon": (_number(float, _require_epsilon), DEFAULT_EPSILON, "payoff tie tolerance"),
    "out": (str, None, "output path (analyze: prefix of the CSV files)"),
    "format": (_output_format, "csv", "output format, csv or json"),
    "plot": (str, None, "SVG output path (analyze: prefix of the SVG files)"),
    "records": (str, None, "existing two-player sweep CSV (skips the inline sweep)"),
    "gamma_slice": (_number(parse_angle, _require_swept), None, "gamma value for the payoff histogram"),
    "bin_width": (_number(float, _require_bin_width), DEFAULT_BIN_WIDTH, "histogram bin width"),
}


class _FileValue(str):
    """A `[run]` value, tagged with the file and key it came from."""

    def __new__(cls, text: str, where: str):
        value = super().__new__(cls, text)
        value.where = where
        return value


def _reporting_file(convert):
    """`convert`, but a bad `_FileValue` is reported by its file and key.

    argparse converts a config value only when its flag is absent, and every
    option type's error names only the value.
    """

    def converted(text):
        try:
            return convert(text)
        except ConfigError as exc:
            if not isinstance(text, _FileValue):
                raise
            raise ConfigError(f"{text.where}: {exc}") from None

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


def _figure(title: str, xlabel: str, ylabel: str, series=(), bars=()) -> str:
    """`Figure.svg()` of (label, points) scatter series and (x, height, width) bars; ValueError if not drawable."""
    fig = Figure(title, xlabel, ylabel, bars=list(bars))
    for label, points in series:
        fig.add_scatter(label, points)
    return fig.svg()


def _write_figures(figures: dict[str, str] | None, note: str) -> None:
    """Write each path's `_figure` text, then print `note`; no figures, no note."""
    if figures:
        for path, text in figures.items():
            write_text(path, text)
        print(note)


def _emit_records(args: argparse.Namespace, grid: StrategyGrid, table: RecordTable, svg=None, **metadata) -> None:
    """Write `table` as --format says (JSON metadata: the run's plus `metadata`), then `svg` to --plot."""
    if args.format == "csv":
        write_records_csv(args.out, table, bayes=table.bayes)
    else:
        metadata.update(
            command=args.command, steps=list(grid.source_steps.astuple()), epsilon=args.epsilon, grid_size=len(grid)
        )
        write_records_json(args.out, table, bayes=table.bayes, metadata=metadata)
    print(f"wrote {len(table)} record(s) to {args.out}")
    if svg:
        _write_figures({args.plot: svg}, f"wrote plot to {args.plot}")


def _branch_points(table: RecordTable, payoff: str, rows=slice(None)) -> list[tuple[float, float]]:
    """The distinct (gamma, payoff) points of the selected rows, sorted.

    The set is filled in record order, so of two equal points (0.0 and
    -0.0) the first record's is the one drawn.
    """
    gamma, value = (table.columns[name][rows].tolist() for name in ("gamma", payoff))
    return sorted(set(zip(gamma, value)))


def cmd_solve(args: argparse.Namespace) -> None:
    (game,) = _load_games(args, [args.game])
    grid = build_grid(args.steps)
    table = gamma_sweep(game, grid, [args.gamma], args.epsilon)
    _emit_records(args, grid, table, game=game.name, gamma=args.gamma)


def cmd_sweep(args: argparse.Namespace) -> None:
    (game,) = _load_games(args, [args.game])
    grid = build_grid(args.steps)
    gamma_points = default_gamma_grid(args.gamma_grid)
    table = gamma_sweep(game, grid, gamma_points, args.epsilon)
    svg = args.plot and _figure(
        f"{game.name}: equilibrium payoffs vs entanglement", "entanglement gamma (rad)", "payoff",
        [(f"player {r}", _branch_points(table, f"payoff_{r.lower()}")) for r in "AB"],
    )
    _emit_records(args, grid, table, svg, game=game.name, gamma_points=len(gamma_points))


def cmd_bayes_sweep(args: argparse.Namespace) -> None:
    game1, game2 = _load_games(args, [args.game, args.game2])
    grid = build_grid(args.steps)
    gamma_points = default_gamma_grid(args.gamma_grid)
    p_points = default_p_grid(args.p_grid)
    table = bayes_sweep(game1, game2, grid, gamma_points, p_points, args.epsilon)
    slices = sorted({p_points[0], p_points[len(p_points) // 2], p_points[-1]})
    svg = args.plot and _figure(
        f"{game1.name} vs {game2.name}: A payoff", "entanglement gamma (rad)", "payoff A",
        [(f"p={p:.3g}", _branch_points(table, "payoff_a", table.columns["p"] == p)) for p in slices],
    )
    _emit_records(
        args, grid, table, svg, game=game1.name, game2=game2.name,
        gamma_points=len(gamma_points), p_points=len(p_points),
    )


def cmd_analyze(args: argparse.Namespace) -> None:
    if args.records:
        loaded = read_two_player_csv(args.records)
        if not len(loaded):
            raise ConfigError(f"{args.records}: no records to analyze")
        columns = loaded.columns
        # The file only holds gammas with equilibria; the swept grid holds the rest.
        recorded = loaded.gamma_values
        gamma_values = recorded + [
            g for g in default_gamma_grid(args.gamma_grid) if all(abs(g - r) > _GAMMA_MATCH for r in recorded)
        ]
    else:
        (game,) = _load_games(args, [args.game])
        grid = build_grid(args.steps)
        gamma_values = default_gamma_grid(args.gamma_grid)
        columns = gamma_sweep(game, grid, gamma_values, args.epsilon).columns

    gamma_slice = args.gamma_slice
    # every record's gamma is one of gamma_values
    nearest = min(sorted(set(gamma_values)), key=lambda g: abs(g - gamma_slice))
    if nearest != gamma_slice:
        print(f"note: histogram slice snapped to the nearest swept gamma {nearest:.12g}")
        gamma_slice = nearest

    hist = payoff_bins(columns["gamma"], columns["payoff_a"], gamma_slice, args.bin_width)
    theta_a, theta_b, payoff_a = (columns[name] for name in ("theta_a", "theta_b", "payoff_a"))
    figures = args.plot and {
        f"{args.plot}_theta_scatter.svg": _figure(
            "equilibrium strategy angles", "theta_A (rad)", "theta_B (rad)", [("", np.column_stack((theta_a, theta_b)))]
        ),
        f"{args.plot}_payoff_hist.svg": _figure(
            f"A payoffs at gamma={gamma_slice:.4g}", "payoff A", "count", bars=[(c, n, args.bin_width) for c, n in hist]
        ),
        f"{args.plot}_theta_payoff.svg": _figure(
            "A payoff vs theta_A", "theta_A (rad)", "payoff A", [("", np.column_stack((theta_a, payoff_a)))]
        ),
    }

    bins = np.array(hist, dtype=[("bin_center", np.float64), ("count", np.int64)])
    tables = {
        "theta_scatter": {name: columns[name] for name in ("theta_a", "theta_b")},
        "payoff_hist": {name: bins[name] for name in bins.dtype.names},
        "theta_payoff": {name: columns[name] for name in ("theta_a", "payoff_a")},
    }
    for name, table in tables.items():
        write_columns_csv(f"{args.out}_{name}.csv", list(table), list(table.values()))
        print(f"wrote {name} to {args.out}_{name}.csv")
    _write_figures(figures, f"wrote plots to {args.plot}_*.svg")


def cmd_strategies(args: argparse.Namespace) -> None:
    grid = build_grid(args.steps)
    columns = [np.arange(len(grid)), *grid.angles.T]
    if args.out:
        write_columns_csv(args.out, STRATEGY_COLUMNS, columns)
        print(f"wrote {len(grid)} strategies to {args.out}")
    else:
        write_columns(sys.stdout, STRATEGY_COLUMNS, columns)


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
        if args.command in ("sweep", "bayes-sweep") and args.plot:  # analyze's --out and --plot are prefixes
            if os.path.realpath(args.plot) == os.path.realpath(args.out):
                raise ConfigError(f"--out and --plot name the same file {args.out!r}")
        args.func(args)
        return EXIT_OK
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
