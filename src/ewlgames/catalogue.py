"""Named game catalogues read from INI-style files.

Each section is a game; `payoff_a` and `payoff_b` hold four comma-separated
numbers in outcome order (00, 01, 10, 11). A default catalogue with the
canonical prisoner's dilemma plus editable textbook entries ships with the
package.
"""
from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .circuit import GameDefinition


class CatalogueError(Exception):
    """Base for catalogue file problems."""


class CatalogueParseError(CatalogueError):
    """The file is not parseable as a sectioned key-value catalogue."""


class CatalogueValidationError(CatalogueError):
    """The file parsed but a game entry is malformed."""


class UnknownGameError(CatalogueError):
    """A requested game name is not in the catalogue."""


@dataclass(frozen=True)
class GameCatalogue:
    games: dict[str, GameDefinition]

    @property
    def names(self) -> list[str]:
        return list(self.games)

    def get(self, name: str) -> GameDefinition:
        try:
            return self.games[name]
        except KeyError:
            known = ", ".join(self.names) or "(none)"
            raise UnknownGameError(f"unknown game {name!r}; available: {known}") from None


def _parse_payoffs(game: str, key: str, raw: str) -> tuple[float, float, float, float]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if len(parts) != 4:
        raise CatalogueValidationError(
            f"game {game!r}: {key} needs exactly 4 comma-separated payoffs, got {len(parts)}"
        )
    values = []
    for p in parts:
        try:
            v = float(p)
        except ValueError:
            raise CatalogueValidationError(f"game {game!r}: {key} entry {p!r} is not a number") from None
        if not math.isfinite(v):
            raise CatalogueValidationError(f"game {game!r}: {key} entry {p!r} is not finite")
        values.append(v)
    return tuple(values)


def load_catalogue(path: str | Path) -> GameCatalogue:
    """Read and validate a catalogue file.

    Raises CatalogueParseError for unreadable structure (with the line
    configparser reports), CatalogueValidationError for bad game entries
    (a payoff beyond `circuit.PAYOFF_LIMIT` among them), FileNotFoundError
    if the file is missing.
    """
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            parser.read_file(fh, source=str(path))
        except configparser.DuplicateSectionError as exc:
            raise CatalogueValidationError(str(exc)) from exc
        except configparser.Error as exc:
            raise CatalogueParseError(str(exc)) from exc

    if not parser.sections():
        raise CatalogueParseError(f"{path}: no game sections found")

    games: dict[str, GameDefinition] = {}
    for section in parser.sections():
        entries = parser[section]
        for key in ("payoff_a", "payoff_b"):
            if key not in entries:
                raise CatalogueValidationError(f"game {section!r}: missing {key}")
        extra = set(entries) - {"payoff_a", "payoff_b"}
        if extra:
            raise CatalogueValidationError(
                f"game {section!r}: unexpected keys {sorted(extra)}"
            )
        payoff_a = _parse_payoffs(section, "payoff_a", entries["payoff_a"])
        payoff_b = _parse_payoffs(section, "payoff_b", entries["payoff_b"])
        try:
            games[section] = GameDefinition(section, payoff_a, payoff_b)
        except ValueError as exc:
            raise CatalogueValidationError(str(exc)) from exc
    return GameCatalogue(games=games)


def default_catalogue_path() -> Path:
    """Location of the catalogue file shipped with the package."""
    return Path(resources.files("ewlgames").joinpath("data/games.ini"))


def load_default_catalogue() -> GameCatalogue:
    return load_catalogue(default_catalogue_path())
