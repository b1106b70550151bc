import hashlib
import json
import math

import pytest

from ewlgames import DEFAULT_EPSILON
from ewlgames import cli
from ewlgames.cli import ConfigError, build_parser, main, parse_angle, parse_steps
from ewlgames.output import BAYES_COLUMNS, TWO_PLAYER_COLUMNS
from ewlgames.sweep import DEFAULT_BIN_WIDTH, DEFAULT_GAMMA_POINTS, DEFAULT_P_POINTS

PI = math.pi


def run(*argv):
    return main(list(argv))


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


class TestAngleParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("pi", PI),
            ("pi/8", PI / 8),
            ("2pi", 2 * PI),
            ("3pi/4", 3 * PI / 4),
            ("2*pi/3", 2 * PI / 3),
            ("0.75", 0.75),
            (" PI / 2 ", PI / 2),
        ],
    )
    def test_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            parse_angle("tau/2")

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf", "pi/0"])
    def test_non_finite_rejected(self, text):
        with pytest.raises(ConfigError, match="not finite"):
            parse_angle(text)

    @pytest.mark.parametrize("text", ["-0", "-0.0", "0"])
    def test_zero_is_unsigned(self, text):
        assert math.copysign(1.0, parse_angle(text)) == 1.0

    def test_steps(self):
        steps = parse_steps("pi, pi/2, pi/2")
        assert steps.astuple() == pytest.approx((PI, PI / 2, PI / 2))

    def test_steps_arity(self):
        with pytest.raises(ConfigError):
            parse_steps("pi,pi")


class TestSolve:
    def test_classical_dilemma(self, tmp_path):
        out = tmp_path / "eq.csv"
        assert run("solve", "--game", "prisoners_dilemma", "--gamma", "0", "--out", str(out)) == 0
        header, rows = read_rows(out)
        assert header == TWO_PLAYER_COLUMNS
        assert len(rows) == 16
        assert all(r[10] == "1" and r[11] == "1" for r in rows)

    def test_maximal_entanglement_header_only(self, tmp_path):
        out = tmp_path / "eq.csv"
        assert run("solve", "--game", "prisoners_dilemma", "--gamma", "pi/2", "--out", str(out)) == 0
        header, rows = read_rows(out)
        assert header == TWO_PLAYER_COLUMNS and rows == []

    def test_unknown_game_exits_1_listing_names(self, tmp_path, capsys):
        code = run("solve", "--game", "nope", "--gamma", "0", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert "prisoners_dilemma" in err and "matching_pennies" in err

    def test_out_of_range_gamma_exits_1(self, tmp_path):
        assert run("solve", "--game", "prisoners_dilemma", "--gamma", "2pi", "--out", str(tmp_path / "x.csv")) == 1

    def test_range_error_prints_the_bound_in_full(self, tmp_path, capsys):
        # the rejected value is just above pi/2; a rounded bound would look above it
        code = run("solve", "--game", "stag_hunt", "--gamma", "1.5707963268", "--out", str(tmp_path / "x.csv"))
        assert code == 1
        err = capsys.readouterr().err
        assert "gamma must be in [0.0, 1.5707963267948966], got 1.5707963268" in err

    def test_json_format(self, tmp_path):
        out = tmp_path / "eq.json"
        assert (
            run(
                "solve", "--game", "prisoners_dilemma", "--gamma", "0",
                "--out", str(out), "--format", "json",
            )
            == 0
        )
        payload = json.loads(out.read_text())
        assert payload["metadata"]["command"] == "solve"
        assert payload["metadata"]["grid_size"] == 8
        assert len(payload["records"]) == 16

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_zero_gamma_writes_what_zero_writes(self, tmp_path, fmt):
        paths = [tmp_path / f"{name}.{fmt}" for name in ("minus", "plus")]
        for gamma, out in zip(("-0", "0"), paths):
            argv = ("solve", "--game", "stag_hunt", "--gamma", gamma, "--format", fmt, "--out", str(out))
            assert run(*argv) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        data = paths[0].read_bytes()
        assert b"-0," not in data and b"-0.0" not in data  # the CSV and JSON forms of -0.0

    def test_negative_zero_epsilon_writes_what_zero_writes(self, tmp_path):
        paths = [tmp_path / f"{name}.json" for name in ("minus", "plus")]
        for epsilon, out in zip(("-0", "0"), paths):
            argv = ("solve", "--game", "prisoners_dilemma", "--gamma", "0.3", "--epsilon", epsilon)
            assert run(*argv, "--format", "json", "--out", str(out)) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert '"epsilon": 0.0' in paths[0].read_text()

    def test_unwritable_out_exits_2(self, capsys):
        assert run("solve", "--game", "prisoners_dilemma", "--gamma", "0", "--out", "/nonexistent/dir/x.csv") == 2
        err = capsys.readouterr().err
        # the message names the file asked for, not the temporary file beside it
        assert "'/nonexistent/dir/x.csv'" in err and ".tmp" not in err

    def test_missing_catalogue_exits_2(self, tmp_path):
        code = run(
            "solve", "--game", "prisoners_dilemma", "--gamma", "0",
            "--catalogue", str(tmp_path / "missing.ini"), "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2

    def test_custom_catalogue(self, tmp_path):
        cat = tmp_path / "games.ini"
        cat.write_text("[coordination]\npayoff_a = 1,0,0,1\npayoff_b = 1,0,0,1\n")
        out = tmp_path / "eq.csv"
        code = run(
            "solve", "--game", "coordination", "--gamma", "0",
            "--catalogue", str(cat), "--out", str(out),
        )
        assert code == 0
        _, rows = read_rows(out)
        assert len(rows) > 0

    def test_payoff_beyond_the_limit_exits_1_without_output(self, tmp_path, capsys):
        cat = tmp_path / "big.ini"
        cat.write_text("[x]\npayoff_a = 1e308,1e308,-1e308,0\npayoff_b = 1,2,3,4\n")
        out = tmp_path / "eq.csv"
        # pytest turns warnings into errors (pyproject.toml), so a kernel overflow warning fails here.
        code = run(
            "solve", "--catalogue", str(cat), "--game", "x", "--steps", "pi,pi/2,pi/2", "--out", str(out),
        )
        assert code == 1
        assert "x: payoff_a" in capsys.readouterr().err
        assert not out.exists()


class TestUsageErrors:
    def test_no_subcommand_exits_1(self):
        assert run() == 1

    def test_unknown_flag_exits_1(self, tmp_path):
        assert run("solve", "--frobnicate") == 1
        # analyze always writes CSV, so --format is not one of its flags
        prefix = tmp_path / "a"
        inline = ["--game", "prisoners_dilemma", "--gamma-grid", "3", "--gamma-slice", "0"]
        assert run("analyze", *inline, "--out", str(prefix), "--format", "json") == 1
        assert list(tmp_path.iterdir()) == []

    def test_missing_required_option_exits_1(self, capsys):
        assert run("solve", "--gamma", "0", "--out", "x.csv") == 1
        assert "--game" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["solve", "--game", "prisoners_dilemma"], "missing required option --out"),
            (["sweep", "--game", "prisoners_dilemma"], "missing required option --out"),
            (["bayes-sweep", "--game", "prisoners_dilemma", "--game2", "deadlock"], "missing required option --out"),
            (["analyze", "--game", "prisoners_dilemma", "--gamma-slice", "0"], "missing required option --out"),
            (["analyze", "--game", "prisoners_dilemma", "--out", "an"], "missing required option --gamma-slice"),
            # the SVG would replace the records; an unknown game shows the catalogue is not read either
            (
                ["sweep", "--game", "nosuch", "--out", "same", "--plot", "./same"],
                "--out and --plot name the same file 'same'",
            ),
            (
                ["bayes-sweep", "--game", "nosuch", "--game2", "deadlock", "--out", "b.csv", "--plot", "b.csv"],
                "--out and --plot name the same file 'b.csv'",
            ),
            # a bad option value is reported while parsing, before the catalogue or a records file is read
            (
                ["solve", "--game", "nosuch", "--gamma", "2", "--out", "x.csv"],
                "gamma must be in [0.0, 1.5707963267948966], got 2.0",
            ),
            (["sweep", "--game", "nosuch", "--gamma-grid", "1", "--out", "x.csv"], "gamma_grid must be >= 2, got '1'"),
            (
                ["bayes-sweep", "--game", "nosuch", "--game2", "deadlock", "--p-grid", "1", "--out", "b.csv"],
                "p_grid must be >= 2, got '1'",
            ),
            (["sweep", "--game", "nosuch", "--gamma-grid", "x", "--out", "x.csv"], "invalid int value: 'x'"),
            (
                ["analyze", "--game", "nosuch", "--records", "missing.csv", "--gamma-slice", "0.7", "--gamma-grid", "1",
                 "--out", "an"],
                "gamma_grid must be >= 2, got '1'",
            ),
            # every sweep covers [0, pi/2], so a slice outside it is refused before the
            # records file (missing here, which would exit 2) or the inline sweep
            (
                ["analyze", "--game", "nosuch", "--records", "missing.csv", "--gamma-slice", "2", "--out", "an"],
                "--gamma-slice 2 outside the swept range [0, 1.57079632679]",
            ),
            (
                ["analyze", "--game", "nosuch", "--gamma-slice", "-0.5", "--out", "an"],
                "--gamma-slice -0.5 outside the swept range [0, 1.57079632679]",
            ),
        ],
        ids=[
            "solve", "sweep", "bayes-sweep", "analyze", "analyze-gamma-slice", "sweep-same-file", "bayes-same-file",
            "solve-gamma-range", "sweep-gamma-grid-1", "bayes-p-grid-1", "sweep-gamma-grid-x", "analyze-gamma-grid-1",
            "analyze-records-gamma-slice-range", "analyze-inline-gamma-slice-range",
        ],
    )
    def test_usage_error_exits_before_the_grid_is_built(self, tmp_path, monkeypatch, capsys, argv, error):
        built = []
        monkeypatch.setattr(cli, "build_grid", built.append)
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 1
        assert capsys.readouterr().err == f"error: {error}\n"
        assert built == [] and list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize(
        "argv",
        [["solve", "--gamma"], ["analyze", "--gamma-grid", "5", "--gamma-slice"]],
        ids=["gamma", "gamma-slice"],
    )
    def test_non_finite_angle_exits_1(self, tmp_path, capsys, argv, value):
        out = tmp_path / "out"
        assert run(*argv, value, "--game", "stag_hunt", "--out", str(out)) == 1
        assert "not finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSweep:
    def test_csv_and_plot(self, tmp_path):
        out = tmp_path / "sweep.csv"
        plot = tmp_path / "sweep.svg"
        code = run(
            "sweep", "--game", "prisoners_dilemma", "--gamma-grid", "9",
            "--out", str(out), "--plot", str(plot),
        )
        assert code == 0
        header, rows = read_rows(out)
        assert header == TWO_PLAYER_COLUMNS
        assert rows[0][0] == "0"
        assert plot.read_text().startswith("<svg")

    def test_gamma_grid_14_reaches_pi_over_2(self, tmp_path):
        # 14 points once put the last gamma one ulp above pi/2, and the sweep exited 1
        out = tmp_path / "g.csv"
        assert run("sweep", "--game", "prisoners_dilemma", "--gamma-grid", "14", "--out", str(out)) == 0
        header, rows = read_rows(out)
        assert header == TWO_PLAYER_COLUMNS and rows

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\ngame = prisoners_dilemma\ngamma_grid = 5\n"
            f"out = {tmp_path / 'cfg.csv'}\nformat = csv\n"
        )
        assert run("sweep", "--config", str(cfg)) == 0
        assert (tmp_path / "cfg.csv").exists()
        # flag overrides the config file's output path
        assert run("sweep", "--config", str(cfg), "--out", str(tmp_path / "flag.csv")) == 0
        assert (tmp_path / "flag.csv").exists()

    def test_config_unknown_key_exits_1(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\ngame = prisoners_dilemma\nwibble = 3\n")
        assert run("sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 1
        assert "wibble" in capsys.readouterr().err

    def test_plot_of_payoffs_equal_up_to_float_noise_finishes(self, tmp_path):
        # every payoff prints as 1000000 but differs by an ulp, so the y ticks
        # step by less than half an ulp; a subprocess, so a hang fails on the timeout
        import os
        import subprocess
        import sys
        from pathlib import Path

        (tmp_path / "flat.ini").write_text("[flat6]\npayoff_a = 1e6,1e6,1e6,1e6\npayoff_b = 1e6,1e6,1e6,1e6\n")
        proc = subprocess.run(
            [
                sys.executable, "-m", "ewlgames", "sweep", "--catalogue", "flat.ini", "--game", "flat6",
                "--gamma-grid", "5", "--out", "f.csv", "--plot", "f.svg",
            ],
            capture_output=True,
            text=True,
            timeout=60,
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert "wrote 320 record(s)" in proc.stdout
        assert (tmp_path / "f.svg").read_text().endswith("</svg>\n")


class TestOptionTable:
    def test_defaults_are_library_constants(self):
        expected = {
            "epsilon": DEFAULT_EPSILON,
            "gamma_grid": DEFAULT_GAMMA_POINTS,
            "p_grid": DEFAULT_P_POINTS,
            "bin_width": DEFAULT_BIN_WIDTH,
        }
        parser = build_parser()
        seen = set()
        for command in ("solve", "sweep", "bayes-sweep", "analyze"):
            args = vars(parser.parse_args([command]))
            for key in expected.keys() & args.keys():
                assert args[key] == expected[key], (command, key)
                seen.add(key)
        assert seen == expected.keys()

    def test_config_value_beats_default_and_flag_beats_config(self):
        args = build_parser({"gamma_grid": "3", "epsilon": "1e-6"}).parse_args(["sweep"])
        assert (args.gamma_grid, args.epsilon) == (3, 1e-6)
        # a flag wins before the file's value is ever converted
        args = build_parser({"gamma_grid": "x"}).parse_args(["sweep", "--gamma-grid", "5"])
        assert args.gamma_grid == 5

    @pytest.mark.parametrize(
        "line", ["gamma_grid = x", "format = xml", "epsilon = x", "steps = 0,pi,pi", "gamma_grid = 1"]
    )
    def test_bad_config_value_exits_1(self, tmp_path, line):
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\ngame = prisoners_dilemma\n{line}\n")
        out = tmp_path / "x.csv"
        assert run("sweep", "--config", str(cfg), "--out", str(out)) == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("gamma_grid = x", "[run] gamma_grid: invalid int value: 'x'"),
            ("epsilon = x", "[run] epsilon: invalid float value: 'x'"),
            ("format = xml", "[run] format: --format must be csv or json, got 'xml'"),
            ("steps = pi,x,pi", "[run] steps: cannot parse angle 'x'"),
            ("gamma_grid = 1", "[run] gamma_grid: gamma_grid must be >= 2, got '1'"),
        ],
    )
    def test_bad_config_value_names_file_and_key(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "a.ini"
        cfg.write_text(f"[run]\ngame = prisoners_dilemma\n{line}\n")
        assert run("sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 1
        err = capsys.readouterr().err
        assert f"error: {cfg}: {message}" in err
        assert "argument --" not in err
        # the same bad value given as a flag is still reported as the flag
        flag, value = line.split(" = ")
        assert run("sweep", "--game", "prisoners_dilemma", "--" + flag.replace("_", "-"), value,
                   "--out", str(tmp_path / "x.csv")) == 1
        assert str(cfg) not in capsys.readouterr().err

    def test_key_of_another_subcommand_is_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\ngame = prisoners_dilemma\ngame2 = deadlock\ngamma_grid = 3\n")
        assert run("sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")) == 0
        cfg.write_text("[run]\ngame = stag_hunt\nbin_width = x\nsteps = pi,pi/2,pi/2\n")
        capsys.readouterr()
        assert run("strategies", "--config", str(cfg)) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 1 + 8
        cfg.write_text("[run]\ngame = prisoners_dilemma\ngamma_grid = 3\ngamma_slice = 0\nformat = xml\n")
        assert run("analyze", "--config", str(cfg), "--out", str(tmp_path / "a")) == 0

    def test_help_shows_config_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nepsilon = 1e-6\ngamma_grid = 9\n")
        assert run("sweep", "--config", str(cfg), "--help") == 0
        help_text = capsys.readouterr().out
        assert "(default: 1e-6)" in help_text
        assert "(default: 9)" in help_text
        assert f"(default: {DEFAULT_EPSILON})" not in help_text


class TestBayesSweep:
    def test_boundary_rows_project_onto_two_player(self, tmp_path):
        bayes_out = tmp_path / "bayes.csv"
        two_out = tmp_path / "two.csv"
        assert (
            run(
                "bayes-sweep", "--game", "prisoners_dilemma", "--game2", "deadlock",
                "--gamma-grid", "5", "--p-grid", "3", "--out", str(bayes_out),
            )
            == 0
        )
        assert (
            run("sweep", "--game", "prisoners_dilemma", "--gamma-grid", "5", "--out", str(two_out))
            == 0
        )
        bh, brows = read_rows(bayes_out)
        th, trows = read_rows(two_out)
        assert bh == BAYES_COLUMNS
        projected = {
            (r[0], r[3], r[4], r[15], r[16]) for r in brows if r[1] == "1"
        }
        two = {(r[0], r[2], r[3], r[10], r[11]) for r in trows}
        assert projected == two

    def test_requires_game2(self, capsys):
        assert run("bayes-sweep", "--game", "prisoners_dilemma", "--out", "x.csv") == 1
        assert "--game2" in capsys.readouterr().err


class TestPinnedBytes:
    # sha256 of each file, computed with the writer that formatted every field
    # of every record on its own, before fields were grouped (commit 01cd046).
    # The JSON digests cover the metadata too, version 0.1.0 included.
    PINS = {
        ("prisoners_dilemma", "deadlock", "pi/8", "csv"): "44cd8add2ef9ef0ec493ed50fac50def2f430e4a33ee3284440000c4df4f8c02",
        ("prisoners_dilemma", "deadlock", "pi/8", "json"): "09468b2e5df16e897f723384342a4bf22664d5eb661e32a255ee7d66d96e6ad1",
        ("stag_hunt", "das_brother", "pi/4", "csv"): "1fb2ddd390b9878d9964b34dbcd95f1a3a6436deabf8cb18993f99d64e4beb57",
        ("stag_hunt", "das_brother", "pi/4", "json"): "3ba86ae26761d9b0aa71f4888545b4937abb2c7b3f0077153e317606b504eb3d",
    }

    @pytest.mark.parametrize("case", list(PINS), ids=lambda case: f"{case[0]}-{case[1]}-{case[3]}")
    def test_bayes_sweep_file_digest(self, tmp_path, case):
        game, game2, step, fmt = case
        out = tmp_path / f"records.{fmt}"
        argv = ["--game", game, "--game2", game2, "--steps", f"{step},{step},{step}", "--gamma-grid", "3"]
        assert run("bayes-sweep", *argv, "--p-grid", "3", "--format", fmt, "--out", str(out)) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINS[case]

    # sha256 of the canonical Bayes run's CSV, PD/deadlock on the 1824 grid at
    # 65 gammas x 21 priors, computed at commit 91c45dd, while the two-player
    # and Bayesian rules were still two reductions.
    CANONICAL_BAYES = (122752, "026e0db83f0ddde6d4448a498325dfcd8049627ebc0f750647895ea11fe859cc")

    def test_canonical_bayes_sweep_digest(self, tmp_path):
        out = tmp_path / "records.csv"
        argv = ["--game", "prisoners_dilemma", "--game2", "deadlock", "--steps", "pi/8,pi/8,pi/8"]
        assert run("bayes-sweep", *argv, "--gamma-grid", "65", "--p-grid", "21", "--out", str(out)) == 0
        data = out.read_bytes()
        records, digest = self.CANONICAL_BAYES
        assert data.count(b"\n") == 1 + records
        assert hashlib.sha256(data).hexdigest() == digest

    # sha256 of two-player files and of a fine strategy list, computed before
    # the kernel split the 1824 grid's tables into row blocks and before the
    # axis match became a sort (commit 2f8713c).
    TWO_PLAYER_PINS = {
        ("sweep", "prisoners_dilemma", "pi/8,pi/8,pi/8", "--gamma-grid", "65", "csv"): (
            "9306ebde9ce69674d74367082bfb0c1ac8b2c09eb3fb13e57b9597e89c2d7ac2"
        ),
        ("sweep", "prisoners_dilemma", "pi/8,pi/8,pi/8", "--gamma-grid", "65", "json"): (
            "ccedae19436a967e2b08d741554c4dc0280bbe31f7b091174faf48d6c3e0b75f"
        ),
        ("solve", "stag_hunt", "pi/32,pi/8,pi/8", "--gamma", "pi/8", "csv"): (
            "6dc54c4cb27ddfdf1cac5a38838c6c1232275f839ae49b0c17f5703af7f3de5f"
        ),
    }

    @pytest.mark.parametrize("case", list(TWO_PLAYER_PINS), ids=lambda case: f"{case[0]}-{case[1]}-{case[5]}")
    def test_two_player_file_digest(self, tmp_path, case):
        command, game, steps, option, value, fmt = case
        out = tmp_path / f"records.{fmt}"
        argv = ["--game", game, "--steps", steps, option, value, "--format", fmt, "--out", str(out)]
        assert run(command, *argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.TWO_PLAYER_PINS[case]

    # sha256 of the gamma,eq_index,a_index,b_index columns, header included,
    # of two-player sweeps whose B rows tie: in matching pennies every orbit
    # row ties at every gamma, in DA's brother about 3 % of them do. Computed
    # at commit 8567792, before B's best responses came from each row's
    # argmax and runner-up. The payoff columns are left out: matching
    # pennies' payoffs are rounding noise that moves with any kernel edit.
    TIE_PINS = {
        "matching_pennies": (65536, "f548886cb230b8c109abfafba20b4ce23ca7fd86ea219b340c8a4e21311a499a"),
        "das_brother": (104544, "c07e34768c7a9e6fb27b735081e27111c8c1cb5a14d6a96f93b8a2aac1cbfa34"),
    }

    @pytest.mark.parametrize("game", list(TIE_PINS))
    def test_tied_sweep_index_digest(self, tmp_path, game):
        out = tmp_path / "records.csv"
        argv = ["--game", game, "--steps", "pi/8,pi/8,pi/8", "--gamma-grid", "65", "--out", str(out)]
        assert run("sweep", *argv) == 0
        lines = out.read_text().splitlines()
        records, digest = self.TIE_PINS[game]
        assert len(lines) == 1 + records
        indices = "".join(",".join(line.split(",")[:4]) + "\n" for line in lines)
        assert hashlib.sha256(indices.encode()).hexdigest() == digest

    def test_fine_strategy_list_digest(self, tmp_path):
        # 6286 strategies along a phi axis of 6284 values, with theta = pi,
        # where every phi matches, among the thetas
        out = tmp_path / "strategies.csv"
        assert run("strategies", "--steps", "pi,1e-3,pi", "--out", str(out)) == 0
        digest = "68bbcb0b98a11736c6415f05804b9546b92cde530535c33e99bc981dfa0784d0"
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestStrategies:
    def test_coarse_grid_rows(self, capsys):
        assert run("strategies", "--steps", "pi,pi/2,pi/2") == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "index,theta,phi,alpha"
        assert len(lines) == 1 + 8

    def test_1824_rows_to_file(self, tmp_path):
        out = tmp_path / "strategies.csv"
        assert run("strategies", "--steps", "pi/8,pi/8,pi/8", "--out", str(out)) == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 1824

    def test_7968_rows_to_file(self, tmp_path):
        out = tmp_path / "strategies.csv"
        assert run("strategies", "--steps", "pi/32,pi/8,pi/8", "--out", str(out)) == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 7968

    @pytest.mark.parametrize("steps", ["pi,pi/2,pi/2", "pi/8,pi/8,pi/8", "pi/32,pi/8,pi/8"])
    def test_stdout_is_the_out_file(self, capsysbinary, tmp_path, steps):
        out = tmp_path / "strategies.csv"
        assert run("strategies", "--steps", steps, "--out", str(out)) == 0
        capsysbinary.readouterr()
        assert run("strategies", "--steps", steps) == 0
        assert capsysbinary.readouterr().out == out.read_bytes()

    def test_bad_steps_exit_1(self):
        assert run("strategies", "--steps", "0,pi,pi") == 1

    @pytest.mark.parametrize("command", [("strategies",), ("solve", "--game", "stag_hunt")])
    @pytest.mark.parametrize("steps", ["1e-300,1,1", "1e-4,1e-4,1e-4", "5e-324,pi,pi"])
    def test_steps_over_the_candidate_limit_exit_1(self, tmp_path, capsys, command, steps):
        out = tmp_path / "out.csv"
        assert run(*command, "--steps", steps, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "16777216 candidate strategies" in err
        assert not out.exists()


class TestFlagPlumbing:
    def test_threads_and_epsilon_flags(self, tmp_path):
        # --epsilon still works; the removed --threads knob is rejected as a
        # flag and as a config key
        explicit = tmp_path / "explicit.csv"
        default = tmp_path / "default.csv"
        base = ["sweep", "--game", "stag_hunt", "--gamma-grid", "5", "--steps", "pi/4,pi/2,pi/2"]
        assert run(*base, "--epsilon", "1e-9", "--out", str(explicit)) == 0
        assert run(*base, "--out", str(default)) == 0
        assert explicit.read_bytes() == default.read_bytes()
        assert run(*base, "--threads", "4", "--out", str(tmp_path / "t.csv")) == 1
        cfg = tmp_path / "run.ini"
        cfg.write_text("[run]\nthreads = 4\n")
        assert run(*base, "--config", str(cfg), "--out", str(tmp_path / "c.csv")) == 1
        assert not (tmp_path / "t.csv").exists() and not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "sweep", "bayes-sweep", "analyze-records"])
    @pytest.mark.parametrize("epsilon", ["-1", "nan", "inf"])
    def test_bad_epsilon_exits_1(self, tmp_path, capsys, command, epsilon):
        # analyze --records runs no reduction, so only the option check can catch it
        records = tmp_path / "records" / "pd.csv"
        records.parent.mkdir()
        assert run("sweep", "--game", "prisoners_dilemma", "--gamma-grid", "3", "--out", str(records)) == 0
        capsys.readouterr()
        game = ["--game", "prisoners_dilemma"]
        args = {
            "solve": ["solve", *game],
            "sweep": ["sweep", *game, "--gamma-grid", "3"],
            "bayes-sweep": ["bayes-sweep", *game, "--game2", "deadlock", "--gamma-grid", "3", "--p-grid", "3"],
            "analyze-records": [
                "analyze", "--records", str(records), "--gamma-slice", "0", "--plot", str(tmp_path / "fig"),
            ],
        }[command]
        assert run(*args, "--epsilon", epsilon, "--out", str(tmp_path / "out.csv")) == 1
        assert "epsilon" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [records.parent]

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "ewlgames", "--version"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "ewlgames" in proc.stdout

    def test_blas_thread_count_does_not_change_records(self, tmp_path):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        commands = {
            "sweep": ["sweep", "--game", "stag_hunt", "--steps", "pi/4,pi/4,pi/4"],
            "bayes": [
                "bayes-sweep", "--game", "prisoners_dilemma", "--game2", "deadlock",
                "--steps", "pi/4,pi/4,pi/4", "--gamma-grid", "9", "--p-grid", "5",
            ],
        }
        for name, argv in commands.items():
            written = []
            for threads in ("1", "2"):
                out = tmp_path / f"{name}{threads}.csv"
                proc = subprocess.run(
                    [sys.executable, "-m", "ewlgames", *argv, "--out", str(out)],
                    capture_output=True,
                    text=True,
                    env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
                )
                assert proc.returncode == 0, proc.stderr
                written.append(out.read_bytes())
            assert written[0] == written[1]
            assert written[0].count(b"\n") > 1

    def test_identical_runs_are_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        base = [
            "sweep", "--game", "prisoners_dilemma", "--gamma-grid", "9",
            "--format", "json",
        ]
        assert run(*base, "--out", str(a)) == 0
        assert run(*base, "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()


class TestAnalyze:
    @pytest.fixture()
    def sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert (
            run("sweep", "--game", "prisoners_dilemma", "--gamma-grid", "17", "--out", str(out))
            == 0
        )
        return out

    def test_outputs(self, tmp_path, sweep_csv):
        prefix = str(tmp_path / "an")
        code = run(
            "analyze", "--records", str(sweep_csv), "--gamma-slice", "0",
            "--out", prefix, "--plot", prefix,
        )
        assert code == 0
        header, rows = read_rows(tmp_path / "an_theta_scatter.csv")
        assert header == ["theta_a", "theta_b"]
        assert all(r[0] == "3.14159265359" for r in rows[:16])
        hh, hrows = read_rows(tmp_path / "an_payoff_hist.csv")
        assert hh == ["bin_center", "count"]
        assert sum(int(r[1]) for r in hrows) == 16
        assert (tmp_path / "an_theta_scatter.svg").exists()
        assert (tmp_path / "an_payoff_hist.svg").exists()
        assert (tmp_path / "an_theta_payoff.svg").exists()

    def test_single_record_histogram_has_one_row(self, tmp_path):
        records = tmp_path / "one.csv"
        header = ",".join(TWO_PLAYER_COLUMNS)
        records.write_text(
            header + "\n0.5,0,4,5,3.14159265359,0,0,3.14159265359,0,1.57079632679,1.25,1.25\n"
        )
        assert run("analyze", "--records", str(records), "--gamma-slice", "0.5", "--out", str(tmp_path / "an")) == 0
        _, rows = read_rows(tmp_path / "an_payoff_hist.csv")
        assert len(rows) == 1 and rows[0][1] == "1"

    def test_empty_records_file_exits_1(self, tmp_path, capsys):
        records = tmp_path / "empty.csv"
        records.write_text(",".join(TWO_PLAYER_COLUMNS) + "\n")
        code = run(
            "analyze", "--records", str(records), "--gamma-slice", "0",
            "--out", str(tmp_path / "an"),
        )
        assert code == 1
        assert "no records to analyze" in capsys.readouterr().err

    def test_slice_outside_range_exits_1(self, tmp_path, sweep_csv, capsys):
        code = run(
            "analyze", "--records", str(sweep_csv), "--gamma-slice", "3.0",
            "--out", str(tmp_path / "an"),
        )
        assert code == 1
        assert "outside the swept range" in capsys.readouterr().err

    def test_slice_at_pi_over_2_snaps_to_the_printed_gamma(self, tmp_path, capsys):
        # 12-digit CSV prints pi/2 as 1.57079632679, just below pi/2; the slice
        # pi/2 is in range and snaps onto that record gamma
        records = tmp_path / "stag.csv"
        assert run("sweep", "--game", "stag_hunt", "--gamma-grid", "3", "--out", str(records)) == 0
        prefix = str(tmp_path / "an")
        assert run("analyze", "--records", str(records), "--gamma-slice", "pi/2", "--out", prefix) == 0
        assert "nearest swept gamma 1.57079632679" in capsys.readouterr().out
        _, rows = read_rows(tmp_path / "an_payoff_hist.csv")
        in_slice = sum(r[0] == "1.57079632679" for r in read_rows(records)[1])
        assert in_slice > 0 and sum(int(r[1]) for r in rows) == in_slice

    def test_slice_past_the_last_record_gamma_matches_inline(self, tmp_path, sweep_csv, capsys):
        # the dilemma's records end at gamma 0.589 of the 17-point grid, but
        # 0.687 was swept too and has no equilibria
        from_records, inline = str(tmp_path / "rec"), str(tmp_path / "inline")
        common = ["--gamma-grid", "17", "--gamma-slice", "0.7"]
        assert run("analyze", "--records", str(sweep_csv), *common, "--out", from_records) == 0
        assert "nearest swept gamma 0.687223392973" in capsys.readouterr().out
        assert run("analyze", "--game", "prisoners_dilemma", *common, "--out", inline) == 0
        for part in ("payoff_hist", "theta_scatter", "theta_payoff"):
            assert (tmp_path / f"rec_{part}.csv").read_bytes() == (tmp_path / f"inline_{part}.csv").read_bytes()
        assert (tmp_path / "rec_payoff_hist.csv").read_text() == "bin_center,count\n"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("payoff_a", "inf"), ("payoff_a", "nan"), ("gamma", "1.6"), ("theta_b", "-1"),
            ("eq_index", "-3"), ("a_index", "-4"),
        ],
    )
    def test_bad_record_value_exits_1_naming_the_file(self, tmp_path, sweep_csv, capsys, field, value):
        header, *rows = sweep_csv.read_text().split("\n")
        first = rows[0].split(",")
        first[TWO_PLAYER_COLUMNS.index(field)] = value
        records = tmp_path / "edited.csv"
        records.write_text("\n".join([header, ",".join(first), *rows]))
        prefix = str(tmp_path / "an")
        code = run(
            "analyze", "--records", str(records), "--gamma-slice", "0",
            "--out", prefix, "--plot", prefix,
        )
        assert code == 1
        assert f"error: {records}: record 1: {field} must be" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["edited.csv", "sweep.csv"]

    @pytest.mark.parametrize("bin_width", ["inf", "nan", "0", "-1"])
    def test_bad_bin_width_writes_nothing(self, tmp_path, sweep_csv, capsys, bin_width):
        prefix = str(tmp_path / "an")
        code = run(
            "analyze", "--records", str(sweep_csv), "--gamma-slice", "0",
            "--bin-width", bin_width, "--out", prefix, "--plot", prefix,
        )
        assert code == 1
        assert "bin_width" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["sweep.csv"]

    @pytest.mark.parametrize("bin_width", ["nan", "-1", "inf"])
    def test_bad_bin_width_exits_before_reading_the_records(self, tmp_path, capsys, bin_width):
        # the records file does not exist, so reading it would exit 2
        code = run(
            "analyze", "--records", str(tmp_path / "missing.csv"), "--gamma-slice", "0.7",
            "--bin-width", bin_width, "--out", str(tmp_path / "an"),
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: bin_width must be finite and > 0, got {bin_width!r}\n"
        cfg = tmp_path / "run.ini"
        cfg.write_text(f"[run]\nbin_width = {bin_width}\n")
        code = run(
            "analyze", "--config", str(cfg), "--records", str(tmp_path / "missing.csv"),
            "--gamma-slice", "0.7", "--out", str(tmp_path / "an"),
        )
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {cfg}: [run] bin_width: bin_width must be finite and > 0, got {bin_width!r}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    def test_overflowing_plot_range_exits_1_without_the_svg(self, tmp_path, sweep_csv, capsys):
        prefix = str(tmp_path / "bw")
        code = run(
            "analyze", "--records", str(sweep_csv), "--gamma-slice", "0",
            "--bin-width", "1.7e308", "--out", prefix, "--plot", prefix,
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "x axis range" in err and "Traceback" not in err
        assert not (tmp_path / "bw_payoff_hist.svg").exists()

    @pytest.mark.parametrize(
        "source,argv,axis",
        [
            (
                "flat.csv",
                ["analyze", "--records", "flat.csv", "--gamma-slice", "0", "--out", "an", "--plot", "an"],
                "x",
            ),
            (
                "flat.ini",
                [
                    "sweep", "--catalogue", "flat.ini", "--game", "flat17", "--gamma-grid", "3",
                    "--out", "f.csv", "--plot", "f.svg",
                ],
                "y",
            ),
            (
                "flat.ini",
                [
                    "bayes-sweep", "--catalogue", "flat.ini", "--game", "flat17", "--game2", "flat17",
                    "--gamma-grid", "3", "--p-grid", "3", "--format", "json", "--out", "b.json", "--plot", "b.svg",
                ],
                "y",
            ),
        ],
        ids=["analyze", "sweep", "bayes-sweep"],
    )
    def test_plot_that_cannot_be_drawn_exits_1_writing_nothing(
        self, tmp_path, monkeypatch, capsys, source, argv, axis
    ):
        # a flat payoff range at 1e17 stays flat when widened by 0.5: analyze's
        # histogram, its second figure, and each sweep's one figure cannot be drawn
        inputs = {
            "flat.csv": ",".join(TWO_PLAYER_COLUMNS) + "\n"
            "0,0,4,5,3.14159265359,0,0,3.14159265359,0,1.57079632679,1e17,1\n"
            "0,1,5,4,3.14159265359,0,1.57079632679,3.14159265359,0,0,1e17,1\n",
            "flat.ini": "[flat17]\npayoff_a = 1e17,1e17,1e17,1e17\npayoff_b = 1e17,1e17,1e17,1e17\n",
        }
        (tmp_path / source).write_text(inputs[source])
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 1
        captured = capsys.readouterr()
        assert f"the {axis} axis range [1e+17, 1e+17] is flat" in captured.err and captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == [source]

    def test_payoff_span_too_narrow_to_tick_plots(self, tmp_path, capsys):
        records = tmp_path / "sub.csv"
        records.write_text(
            ",".join(TWO_PLAYER_COLUMNS) + "\n"
            "0,0,4,5,3.14159265359,0,0,3.14159265359,0,1.57079632679,0,1\n"
            "0,1,5,4,3.14159265359,0,1.57079632679,3.14159265359,0,0,5e-324,1\n"
        )
        prefix = str(tmp_path / "an")
        code = run("analyze", "--records", str(records), "--gamma-slice", "0", "--out", prefix, "--plot", prefix)
        assert code == 0, capsys.readouterr().err
        for part in ("theta_scatter", "payoff_hist", "theta_payoff"):
            assert (tmp_path / f"an_{part}.svg").exists()

    def test_inline_sweep(self, tmp_path):
        prefix = str(tmp_path / "inline")
        code = run(
            "analyze", "--game", "stag_hunt", "--gamma-grid", "9",
            "--gamma-slice", "pi/4", "--out", prefix,
        )
        assert code == 0
        _, rows = read_rows(tmp_path / "inline_payoff_hist.csv")
        assert rows
