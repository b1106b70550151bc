import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from ewlgames.svgplot import Figure

SRC = str(Path(__file__).resolve().parent.parent / "src")

SVG_NS = "{http://www.w3.org/2000/svg}"


def render(fig, tmp_path):
    path = tmp_path / "figure.svg"
    fig.render(path)
    return ET.parse(path).getroot()


def test_scatter_renders_circles(tmp_path):
    fig = Figure("scatter", "x", "y")
    fig.add_scatter("series", [(0, 0), (1, 2), (2, 1)])
    root = render(fig, tmp_path)
    assert root.tag == f"{SVG_NS}svg"
    assert len(root.findall(f"{SVG_NS}circle")) == 3
    texts = [t.text for t in root.findall(f"{SVG_NS}text")]
    assert "scatter" in texts and "x" in texts and "y" in texts


def test_markup_characters_are_escaped(tmp_path):
    fig = Figure("A&B <x>", "x < y", "a > b & c")
    fig.add_scatter("p<1 & q>0", [(0, 0), (1, 1)])
    root = render(fig, tmp_path)
    texts = [t.text for t in root.findall(f"{SVG_NS}text")]
    for text in ("A&B <x>", "x < y", "a > b & c", "p<1 & q>0"):
        assert text in texts


def test_repeated_points_render_once(tmp_path):
    fig = Figure("scatter", "x", "y")
    # the 1e-13 offsets land on the same pixel as the exact points
    fig.add_scatter("a", [(0, 0), (1, 2), (0, 0), (2, 1), (1, 2 + 1e-13), (0, 0)])
    fig.add_scatter("b", [(0, 0), (0, 0)])
    root = render(fig, tmp_path)
    circles = [(c.get("cx"), c.get("cy"), c.get("fill")) for c in root.findall(f"{SVG_NS}circle")]
    a_color, b_color = fig.scatters[0][2], fig.scatters[1][2]
    assert [fill for _, _, fill in circles] == [a_color] * 3 + [b_color]
    # first-seen order: x = 0, 1, 2 for series a, then b's lone origin
    assert [float(cx) for cx, _, _ in circles[:3]] == sorted(float(cx) for cx, _, _ in circles[:3])
    assert len({c[:2] for c in circles[:3]}) == 3
    assert circles[3][:2] == circles[0][:2]


def test_bars_render_rects(tmp_path):
    fig = Figure("hist", "payoff", "count")
    fig.add_bars([(1.0, 5, 0.5), (1.5, 2, 0.5)])
    root = render(fig, tmp_path)
    # frame rect + 2 bars
    assert len(root.findall(f"{SVG_NS}rect")) >= 3


def test_empty_figure_still_valid(tmp_path):
    root = render(Figure("empty", "x", "y"), tmp_path)
    assert root.tag == f"{SVG_NS}svg"


def test_exact_repeats_do_not_change_the_bytes(tmp_path):
    points = [(0.5, 1.0), (0.25, 2.0), (0.5, 1.0 + 1e-13), (-0.0, 3.0)]
    once, repeated = tmp_path / "once.svg", tmp_path / "repeated.svg"
    for path, pts in ((once, points), (repeated, points * 3 + [(0.0, 3.0)])):
        fig = Figure("scatter", "x", "y")
        fig.add_scatter("s", pts)
        fig.render(path)
    assert once.read_bytes() == repeated.read_bytes()


def test_axis_range_of_one_ulp_renders(tmp_path):
    # the y ticks step by less than half an ulp of 1e6; a subprocess, so a
    # tick loop that never ends fails on the timeout instead of hanging
    code = (
        "import math, sys\n"
        "from ewlgames.svgplot import Figure\n"
        "fig = Figure('flat', 'x', 'y')\n"
        "fig.add_scatter('', [(0, 1e6), (1, math.nextafter(1e6, 2e6))])\n"
        "fig.render(sys.argv[1])\n"
    )
    path = tmp_path / "flat.svg"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    texts = [t.text for t in ET.parse(path).getroot().findall(f"{SVG_NS}text")]
    assert "1e+06" in texts


@pytest.mark.parametrize("axis", ["x", "y"])
def test_overflowing_axis_range_raises_before_writing(tmp_path, axis):
    fig = Figure("huge", "x", "y")
    if axis == "x":
        fig.add_bars([(0.5 * 1.7e308, 1, 1.7e308)])
    else:
        fig.add_scatter("", [(0, -1e308), (1, 1e308)])
    with pytest.raises(ValueError, match=f"the {axis} axis range .* overflows"):
        fig.render(tmp_path / "huge.svg")
    assert list(tmp_path.iterdir()) == []
