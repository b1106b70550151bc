import html
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from ewlgames.svgplot import (
    HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, MARGIN_T, PALETTE, WIDTH, Figure, _nice_ticks,
)

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


@pytest.mark.parametrize("text", ["A&B <x>", "\"q\" 'a'", "<<>>&&", "a &lt; b &amp;", "&<>\"'"])
def test_text_escapes_are_html_escape(text):
    fig = Figure(text, text + " x", text + " y")
    fig.add_scatter(text + " series", [(0, 0), (1, 1)])
    svg = fig.svg()
    for part in (text, text + " x", text + " y", text + " series"):
        assert f">{html.escape(part, quote=False)}</text>" in svg


def test_cli_start_does_not_import_html():
    code = "import sys, ewlgames.cli; sys.exit('html' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], timeout=60, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0


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


@pytest.mark.parametrize("span", [5e-324, 1e-323, 2.5e-323, 5e-323])
def test_axis_range_too_narrow_to_tick_is_drawn_as_a_flat_one(tmp_path, span):
    # a fifth of the padded span, or its power of ten, underflows: the range
    # is widened by 0.5 at each end, which leaves nothing of the span
    narrow, flat = tmp_path / "narrow.svg", tmp_path / "flat.svg"
    for path, top in ((narrow, span), (flat, 0.0)):
        fig = Figure("tiny", "x", "y")
        fig.add_scatter("", [(0, 0.0), (1, top)])
        fig.render(path)
    assert narrow.read_bytes() == flat.read_bytes()


def test_axis_range_of_1e_322_keeps_its_span(tmp_path):
    fig = Figure("tiny", "x", "y")
    fig.add_scatter("", [(0, 0.0), (1, 1e-322)])
    _, _, y0, y1 = fig._bounds()
    assert 0.0 < y1 - y0 < 2e-322
    root = render(fig, tmp_path)
    assert "1.976e-323" in [t.text for t in root.findall(f"{SVG_NS}text")]


def test_flat_range_that_widening_leaves_flat_raises_before_writing(tmp_path):
    fig = Figure("level", "x", "y")
    fig.add_scatter("", [(0, 1e17), (1, 1e17)])
    with pytest.raises(ValueError, match=r"cannot plot 'level': the y axis range \[1e\+17, 1e\+17\] is flat"):
        fig.render(tmp_path / "level.svg")
    assert list(tmp_path.iterdir()) == []


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


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize(
    "points, where",
    [
        ([(0, NAN), (1, 1), (2, 3)], r"series 'b' point 0 \(0\.0, nan\)"),
        ([(0, 0), (1, 1), (2, NAN)], r"series 'b' point 2 \(2\.0, nan\)"),
        ([(0, 0), (INF, 1)], r"series 'b' point 1 \(inf, 1\.0\)"),
        ([(0, -INF), (1, 1)], r"series 'b' point 0 \(0\.0, -inf\)"),
    ],
)
def test_non_finite_point_is_named_before_writing(tmp_path, points, where):
    fig = Figure("bad", "x", "y")
    fig.add_scatter("a", [(0, 0), (1, 1)])
    fig.add_scatter("b", points)
    with pytest.raises(ValueError, match=f"cannot plot 'bad': {where} is not finite"):
        fig.render(tmp_path / "bad.svg")
    assert list(tmp_path.iterdir()) == []


def test_non_finite_bar_is_named_before_writing(tmp_path):
    fig = Figure("bad", "x", "count")
    fig.add_bars([(0.5, 3, 1), (1.5, NAN, 1)])
    with pytest.raises(ValueError, match=r"cannot plot 'bad': bar 1 \(1\.5, nan, 1\.0\) is not finite"):
        fig.render(tmp_path / "bad.svg")
    assert list(tmp_path.iterdir()) == []


def reference_svg(title, xlabel, ylabel, series):
    """The SVG text of scatter `series` [(label, [(x, y), ...]), ...], point by point.

    Bounds by Python `min`/`max` over the points, one f-string per point,
    then `dict.fromkeys` for the distinct circles.
    """
    xs = [p[0] for _, pts in series for p in pts] or [0.0, 1.0]
    ys = [p[1] for _, pts in series for p in pts] or [0.0, 1.0]
    x0, x1, y0, y1 = min(xs), max(xs), min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5
    padx, pady = 0.04 * (x1 - x0), 0.06 * (y1 - y0)
    x0, x1, y0, y1 = x0 - padx, x1 + padx, y0 - pady, y1 + pady
    pw, ph = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B

    def sx(x):
        return MARGIN_L + (x - x0) / (x1 - x0) * pw

    def sy(y):
        return MARGIN_T + ph - (y - y0) / (y1 - y0) * ph

    def text(x, y, size, body, extra=""):
        return (
            f'<text x="{x}" y="{y}"{extra} font-family="sans-serif" '
            f'font-size="{size}">{html.escape(body, quote=False)}</text>'
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        text(f"{WIDTH / 2:.1f}", 22, 15, title, ' text-anchor="middle"'),
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
        'fill="none" stroke="#444" stroke-width="1"/>',
    ]
    bottom = MARGIN_T + ph
    for t in _nice_ticks(x0, x1):
        px = f"{sx(t):.1f}"
        parts.append(f'<line x1="{px}" y1="{bottom}" x2="{px}" y2="{bottom + 5}" stroke="#444"/>')
        parts.append(text(px, bottom + 18, 11, f"{t:.4g}", ' text-anchor="middle"'))
    for t in _nice_ticks(y0, y1):
        py = f"{sy(t):.1f}"
        parts.append(f'<line x1="{MARGIN_L - 5}" y1="{py}" x2="{MARGIN_L}" y2="{py}" stroke="#444"/>')
        parts.append(text(MARGIN_L - 8, f"{sy(t) + 4:.1f}", 11, f"{t:.4g}", ' text-anchor="end"'))
    parts.append(text(f"{MARGIN_L + pw / 2:.1f}", HEIGHT - 10, 13, xlabel, ' text-anchor="middle"'))
    mid = f"{MARGIN_T + ph / 2:.1f}"
    parts.append(
        f'<text x="16" y="{mid}" text-anchor="middle" font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 16 {mid})">{html.escape(ylabel, quote=False)}</text>'
    )
    colors = [PALETTE[k % len(PALETTE)] for k in range(len(series))]
    for (_, pts), color in zip(series, colors):
        circles = (f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.4" fill="{color}"/>' for x, y in pts)
        parts.extend(dict.fromkeys(circles))
    labelled = [(label, color) for (label, _), color in zip(series, colors) if label]
    for k, (label, color) in enumerate(labelled):
        ly = MARGIN_T + 14 + 16 * k
        parts.append(f'<rect x="{MARGIN_L + pw - 130}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
        parts.append(text(MARGIN_L + pw - 115, ly, 11, label))
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _tie_points(axis):
    """Coordinates in [0, 1] whose `axis` pixel is k + 0.05, or next to it on either side.

    The unit square's corners fix the bounds, so every point between them
    keeps its pixel; each pixel is found by stepping ulps of v around the
    linear solves for the pixel floats next to the tie.
    """
    fig = Figure("t", "x", "y")
    fig.add_scatter("", [(0, 0), (1, 1)])
    x0, x1, y0, y1 = fig._bounds()
    pw, ph = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B
    if axis == "x":

        def pixel(v):
            return MARGIN_L + (v - x0) / (x1 - x0) * pw

        def solve(p):
            return x0 + (p - MARGIN_L) / pw * (x1 - x0)

    else:

        def pixel(v):
            return MARGIN_T + ph - (v - y0) / (y1 - y0) * ph

        def solve(p):
            return y0 + (MARGIN_T + ph - p) / ph * (y1 - y0)

    values, exact = [], 0
    first, last = sorted((pixel(0.0), pixel(1.0)))
    for k in range(math.ceil(first), math.floor(last), 23):
        tie = k + 0.05
        reached = {}
        for j in range(-4, 5):
            v = solve(tie + j * math.ulp(tie))
            for _ in range(4):
                v = math.nextafter(v, -math.inf)
            for _ in range(9):
                reached.setdefault(pixel(v), v)
                v = math.nextafter(v, math.inf)
        # the pixel floats nearest the tie on either side, and the tie's own float
        # when some v reaches it (one ulp of v can step over several pixel floats)
        below = max(p for p in reached if p < tie)
        above = min(p for p in reached if p > tie)
        values += [reached[p] for p in (below, tie, above) if p in reached]
        exact += tie in reached
    assert exact >= 5
    return values


SERIES_CASES = [
    "pixel ties", "tie grid", "zeros and offsets", "int tuples", "single point", "random 20k", "empty between",
    "analyze shaped",
]
# the forms `add_scatter` takes a series in
POINT_FORMS = {"list": list, "zip": lambda pts: zip(*zip(*pts)), "array": np.array}


def _series_cases():
    rng = np.random.default_rng(7)
    ties_x, ties_y = _tie_points("x"), _tie_points("y")
    corners = [(0, 0), (1, 1)]
    return {
        "pixel ties": [("x", corners + [(x, 0.5) for x in ties_x]), ("y", [(0.5, y) for y in ties_y])],
        "tie grid": [("", corners + [(x, y) for x in ties_x[::5] for y in ties_y[::3]])],
        "zeros and offsets": [
            ("s", [(0.0, -0.0), (-0.0, 1.0), (1e-13, 1.0 + 1e-13), (0.5, 0.25), (0.0, 0.0)])
        ],
        "int tuples": [("ints", [(0, 3), (2, -1), (1, 1), (2, -1)])],
        "single point": [("one", [(0.3, 0.7)])],
        "random 20k": [("", list(map(tuple, rng.normal(size=(20_000, 2)).tolist())))],
        "empty between": [
            ("a", [(0.0, 1.0), (2.0, 3.0)]), ("empty", []), ("c", [(1.0, 2.0), (0.0, 1.0)])
        ],
        # theta on 9 multiples of pi/8 against payoffs on a 0.01 lattice: most
        # points repeat a drawn position, and first sightings come unsorted
        "analyze shaped": [
            ("", list(zip((rng.integers(0, 9, 6000) * math.pi / 8).tolist(),
                          (rng.integers(0, 400, 6000) / 100).tolist())))
        ],
    }


@pytest.mark.parametrize("case", SERIES_CASES)
def test_scatter_bytes_equal_the_per_point_reference(tmp_path, case):
    series = _series_cases()[case]
    expected = reference_svg("cases", "x", "y", series)
    for name, form in POINT_FORMS.items():
        fig = Figure("cases", "x", "y")
        for label, pts in series:
            fig.add_scatter(label, form(pts))
        path = tmp_path / "figure.svg"
        fig.render(path)
        assert path.read_text() == expected, name
