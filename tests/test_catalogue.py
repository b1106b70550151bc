import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from ewlgames import load_catalogue, load_default_catalogue
from ewlgames.catalogue import CatalogueParseError, CatalogueValidationError, UnknownGameError


@pytest.fixture(scope="module")
def default_catalogue():
    return load_default_catalogue()


class TestDefaultCatalogue:
    def test_prisoners_dilemma_table(self, default_catalogue):
        pd = default_catalogue.get("prisoners_dilemma")
        assert pd.payoff_a == (3, 0, 5, 1)
        assert pd.payoff_b == (3, 5, 0, 1)

    def test_shipped_names(self, default_catalogue):
        assert default_catalogue.names == [
            "prisoners_dilemma",
            "deadlock",
            "stag_hunt",
            "das_brother",
            "matching_pennies",
        ]

    def test_type_b_slot_is_not_defined(self, default_catalogue):
        with pytest.raises(UnknownGameError):
            default_catalogue.get("type_b")

    def test_matching_pennies_is_zero_sum(self, default_catalogue):
        mp = default_catalogue.get("matching_pennies")
        assert all(a + b == 0 for a, b in zip(mp.payoff_a, mp.payoff_b))

    def test_unknown_game_lists_names(self, default_catalogue):
        with pytest.raises(UnknownGameError, match="prisoners_dilemma"):
            default_catalogue.get("quantum_chess")


@pytest.mark.parametrize("with_src", [False, True], ids=["copy-only", "copy-and-src"])
def test_default_catalogue_is_read_from_the_package_under_its_own_name(tmp_path, with_src):
    # a copy of the package under another name, with one payoff edited, reads
    # its own games.ini: not none (copy only) and not src's (both on the path)
    src = Path(__file__).resolve().parent.parent / "src"
    copy = tmp_path / "ewl_copy"
    shutil.copytree(src / "ewlgames", copy, ignore=shutil.ignore_patterns("__pycache__"))
    ini = copy / "data" / "games.ini"
    text = ini.read_text(encoding="utf-8")
    assert text.count("payoff_a = 3, 0, 5, 1") == 1
    ini.write_text(text.replace("payoff_a = 3, 0, 5, 1", "payoff_a = 7, 0, 5, 1"), encoding="utf-8")
    code = (
        "from ewl_copy.catalogue import load_default_catalogue\n"
        "print(load_default_catalogue().get('prisoners_dilemma').payoff_a)\n"
    )
    path = os.pathsep.join([str(tmp_path), str(src)] if with_src else [str(tmp_path)])
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(7.0, 0.0, 5.0, 1.0)\n"


def test_cli_start_does_not_import_importlib_resources():
    # only default_catalogue_path needs it; a child without `site` (whose .pth
    # files may import it first) and with numpy's directory on the path
    # compares the modules before and after the import, so it holds either way
    import numpy

    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join([str(src), str(Path(numpy.__file__).resolve().parent.parent)])
    code = "import sys; before = set(sys.modules); import ewlgames.cli; sys.exit('importlib.resources' in set(sys.modules) - before)"
    proc = subprocess.run([sys.executable, "-S", "-c", code], timeout=60, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0


class TestLoadCatalogue:
    def write(self, tmp_path, text):
        path = tmp_path / "games.ini"
        path.write_text(text, encoding="utf-8")
        return path

    def test_round_trip(self, tmp_path):
        path = self.write(
            tmp_path,
            "[mini]\npayoff_a = 1, 2, 3.5, -4\npayoff_b = 0, 0, 0, 0\n",
        )
        cat = load_catalogue(path)
        assert cat.get("mini").payoff_a == (1.0, 2.0, 3.5, -4.0)

    def test_three_entries_rejected_naming_game(self, tmp_path):
        path = self.write(tmp_path, "[bad]\npayoff_a = 1, 2, 3\npayoff_b = 0,0,0,0\n")
        with pytest.raises(CatalogueValidationError, match=r"^bad: payoff_a needs exactly 4 entries, got 3$"):
            load_catalogue(path)

    def test_empty_file_is_a_parse_error(self, tmp_path):
        path = self.write(tmp_path, "")
        with pytest.raises(CatalogueParseError):
            load_catalogue(path)

    def test_malformed_line_is_a_parse_error(self, tmp_path):
        path = self.write(tmp_path, "[a]\npayoff_a = 1,2,3,4\njunk without equals\n")
        with pytest.raises(CatalogueParseError):
            load_catalogue(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_catalogue(tmp_path / "missing.ini")

    def test_non_numeric_payoff(self, tmp_path):
        path = self.write(tmp_path, "[a]\npayoff_a = 1, 2, x, 4\npayoff_b = 0,0,0,0\n")
        with pytest.raises(CatalogueValidationError, match=r"^a: payoff_a entry 'x' is not a number$"):
            load_catalogue(path)

    def test_non_finite_payoff(self, tmp_path):
        path = self.write(tmp_path, "[a]\npayoff_a = 1, 2, inf, 4\npayoff_b = 0,0,0,0\n")
        with pytest.raises(CatalogueValidationError, match=r"^a: payoff_a needs finite entries with \|w\| <= 1e\+300$"):
            load_catalogue(path)

    def test_payoff_beyond_the_limit(self, tmp_path):
        # GameDefinition's ValueError reaches a library caller as a CatalogueError
        path = self.write(tmp_path, "[a]\npayoff_a = 1e308, 0, 0, 0\npayoff_b = 0,0,0,0\n")
        with pytest.raises(CatalogueValidationError, match="a: payoff_a"):
            load_catalogue(path)

    def test_missing_payoff_b(self, tmp_path):
        path = self.write(tmp_path, "[a]\npayoff_a = 1, 2, 3, 4\n")
        with pytest.raises(CatalogueValidationError, match=r"^a: missing payoff_b$"):
            load_catalogue(path)

    def test_unexpected_keys(self, tmp_path):
        path = self.write(
            tmp_path, "[a]\npayoff_a = 1,2,3,4\npayoff_b = 1,2,3,4\nbonus = 7\n"
        )
        with pytest.raises(CatalogueValidationError, match=r"^a: unexpected keys \['bonus'\]$"):
            load_catalogue(path)

    def test_duplicate_game_name(self, tmp_path):
        path = self.write(
            tmp_path,
            "[a]\npayoff_a = 1,2,3,4\npayoff_b = 1,2,3,4\n"
            "[a]\npayoff_a = 5,6,7,8\npayoff_b = 5,6,7,8\n",
        )
        with pytest.raises(CatalogueValidationError):
            load_catalogue(path)
