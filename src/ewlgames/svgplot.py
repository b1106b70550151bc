"""Minimal static SVG rendering: scatter series and bar histograms on a
labelled linear axis frame. Batch output only.
"""
from __future__ import annotations

import html
import math
from dataclasses import dataclass, field
from pathlib import Path

from .output import atomic_writer

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 36, 48
PALETTE = ["#1f5fa8", "#c23b22", "#2e8540", "#8a5fa8", "#b8860b", "#3aa6a6"]


def _nice_ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    step = min(s for s in (mag, 2 * mag, 2.5 * mag, 5 * mag, 10 * mag) if s >= raw)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # step under half an ulp of t: one tick is all there is
            break
        t += step
    return ticks


@dataclass
class Figure:
    """Collects series, then renders one SVG file."""

    title: str
    xlabel: str
    ylabel: str
    scatters: list[tuple[str, list[tuple[float, float]], str]] = field(default_factory=list)
    bars: list[tuple[float, float, float]] = field(default_factory=list)  # (x, height, width)

    def add_scatter(self, label: str, points) -> None:
        color = PALETTE[len(self.scatters) % len(PALETTE)]
        self.scatters.append((label, list(points), color))

    def add_bars(self, bars) -> None:
        self.bars.extend(bars)

    def _bounds(self) -> tuple[float, float, float, float]:
        xs, ys = [], []
        for _, pts, _ in self.scatters:
            xs.extend(p[0] for p in pts)
            ys.extend(p[1] for p in pts)
        for x, h, w in self.bars:
            xs.extend((x - w / 2, x + w / 2))
            ys.extend((0.0, h))
        if not xs:
            xs, ys = [0.0, 1.0], [0.0, 1.0]
        x0, x1 = min(xs), max(xs)
        y0, y1 = min(ys), max(ys)
        if x1 == x0:
            x0, x1 = x0 - 0.5, x1 + 0.5
        if y1 == y0:
            y0, y1 = y0 - 0.5, y1 + 0.5
        padx, pady = 0.04 * (x1 - x0), 0.06 * (y1 - y0)
        return x0 - padx, x1 + padx, y0 - pady, y1 + pady

    def render(self, path: str | Path) -> None:
        """Write the SVG; ValueError, before any file is made, if an axis range overflows."""
        x0, x1, y0, y1 = self._bounds()
        for axis, lo, hi in (("x", x0, x1), ("y", y0, y1)):
            if not math.isfinite(hi - lo):
                raise ValueError(
                    f"cannot plot {self.title!r}: the {axis} axis range [{lo:.4g}, {hi:.4g}] overflows"
                )
        pw = WIDTH - MARGIN_L - MARGIN_R
        ph = HEIGHT - MARGIN_T - MARGIN_B

        def sx(x: float) -> float:
            return MARGIN_L + (x - x0) / (x1 - x0) * pw

        def sy(y: float) -> float:
            return MARGIN_T + ph - (y - y0) / (y1 - y0) * ph

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.1f}" y="22" text-anchor="middle" '
            f'font-family="sans-serif" font-size="15">{html.escape(self.title, quote=False)}</text>',
        ]
        # axes frame and ticks
        parts.append(
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
            'fill="none" stroke="#444" stroke-width="1"/>'
        )
        for t in _nice_ticks(x0, x1):
            px = sx(t)
            parts.append(
                f'<line x1="{px:.1f}" y1="{MARGIN_T + ph}" x2="{px:.1f}" '
                f'y2="{MARGIN_T + ph + 5}" stroke="#444"/>'
            )
            parts.append(
                f'<text x="{px:.1f}" y="{MARGIN_T + ph + 18}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{t:.4g}</text>'
            )
        for t in _nice_ticks(y0, y1):
            py = sy(t)
            parts.append(
                f'<line x1="{MARGIN_L - 5}" y1="{py:.1f}" x2="{MARGIN_L}" y2="{py:.1f}" stroke="#444"/>'
            )
            parts.append(
                f'<text x="{MARGIN_L - 8}" y="{py + 4:.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{t:.4g}</text>'
            )
        parts.append(
            f'<text x="{MARGIN_L + pw / 2:.1f}" y="{HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13">{html.escape(self.xlabel, quote=False)}</text>'
        )
        parts.append(
            f'<text x="16" y="{MARGIN_T + ph / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 16 {MARGIN_T + ph / 2:.1f})">{html.escape(self.ylabel, quote=False)}</text>'
        )

        for x, h, w in self.bars:
            left, right = sx(x - w / 2), sx(x + w / 2)
            top, base = sy(h), sy(max(0.0, y0))
            parts.append(
                f'<rect x="{left:.1f}" y="{min(top, base):.1f}" width="{max(right - left, 0.5):.1f}" '
                f'height="{abs(base - top):.1f}" fill="#1f5fa8" fill-opacity="0.75" stroke="#123c6b"/>'
            )
        for _, pts, color in self.scatters:
            # one circle per drawn position, in first-seen order, so float noise in
            # repeated points cannot change what the plot holds; exact repeats
            # are dropped before they are formatted
            circles = dict.fromkeys(
                f'<circle cx="{sx(x):.1f}" cy="{sy(y):.1f}" r="2.4" fill="{color}"/>'
                for x, y in dict.fromkeys(map(tuple, pts))
            )
            parts.extend(circles)

        # legend for labelled series
        labelled = [(lab, col) for lab, _, col in self.scatters if lab]
        for k, (lab, col) in enumerate(labelled):
            ly = MARGIN_T + 14 + 16 * k
            parts.append(f'<rect x="{MARGIN_L + pw - 130}" y="{ly - 9}" width="10" height="10" fill="{col}"/>')
            parts.append(
                f'<text x="{MARGIN_L + pw - 115}" y="{ly}" font-family="sans-serif" '
                f'font-size="11">{html.escape(lab, quote=False)}</text>'
            )
        parts.append("</svg>")
        with atomic_writer(path) as fh:
            fh.write("\n".join(parts) + "\n")
