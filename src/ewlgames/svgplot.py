"""Minimal static SVG rendering: scatter series and bar histograms on a
labelled linear axis frame. Batch output only.

A scatter series is held as an (n, 2) float64 array of (x, y) points and
drawn as one circle per distinct 0.1-px position, in first-seen order.
Each point's position is a key (x text id, y text id); one `np.sort` of
`key * n + point index` groups equal keys with their first point leading
each group, and those first points, sorted, are the circles in order. A
stable `np.unique(..., return_index=True)` would find the same points, but
its mergesort is several times slower than this one int64 sort.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .output import write_text

WIDTH, HEIGHT = 640, 440
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 20, 36, 48
PALETTE = ["#1f5fa8", "#c23b22", "#2e8540", "#8a5fa8", "#b8860b", "#3aa6a6"]


def _text(x, y, size: int, body: str, anchor: str = "", transform: str = "") -> str:
    """A `<text>` element at (`x`, `y`), written as given, with `body` as its character data.

    `body` is escaped exactly as `html.escape(body, quote=False)` writes it:
    `&` goes first, so the entities of `<` and `>` are not escaped again.
    Importing `html`, which imports `html.entities`, took 1.0 ms of every
    CLI start (python -X importtime, CPython 3.11).
    """
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    transform = f' transform="{transform}"' if transform else ""
    body = body.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    return f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" font-size="{size}"{transform}>{body}</text>'


def _tick_step(lo: float, hi: float) -> float:
    """The least of 1, 2, 2.5, 5 and 10 times the power of ten below (hi - lo) / 5 that covers it.

    0.0 when the range is flat, not finite, or so narrow (under about
    5e-323) that the power of ten underflows.
    """
    raw = (hi - lo) / 5
    if not 0.0 < raw < math.inf:
        return 0.0
    mag = 10.0 ** math.floor(math.log10(raw))
    return min((s for s in (mag, 2 * mag, 2.5 * mag, 5 * mag, 10 * mag) if s >= raw), default=0.0)


def _padded(lo: float, hi: float, pad: float) -> tuple[float, float]:
    """[lo, hi] extended by `pad` of its span at each end, after widening
    it by 0.5 at each end if the padded range has no `_tick_step`."""
    if not _tick_step(lo - pad * (hi - lo), hi + pad * (hi - lo)):
        lo, hi = lo - 0.5, hi + 0.5
    return lo - pad * (hi - lo), hi + pad * (hi - lo)


def _nice_ticks(lo: float, hi: float) -> list[float]:
    step = _tick_step(lo, hi)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-12 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # step under half an ulp of t: one tick is all there is
            break
        t += step
    return ticks


def _tenths_texts(values: np.ndarray) -> tuple[list[str], np.ndarray]:
    """(texts, ids): `texts[ids[k]] == f"{values[k]:.1f}"`, each distinct text once.

    The values are pixel coordinates inside the frame, so finite and
    positive: no -0.0, which `np.unique` would merge with 0.0 though the two
    print differently, and the distinct values sort in float order. `.1f` is
    monotone, so within a run of values that share `rint(10 * v)` only the
    run's two ends are formatted; the whole run is formatted only when the
    ends differ (a run that straddles a rounding tie).
    """
    distinct, inverse = np.unique(values, return_inverse=True)
    tenths = np.rint(distinct * 10)
    starts = np.flatnonzero(np.r_[True, tenths[1:] != tenths[:-1]]).tolist()
    texts: list[str] = []
    ids = np.empty(len(distinct), dtype=np.intp)

    def text_id(text: str) -> int:
        if not texts or texts[-1] != text:
            texts.append(text)
        return len(texts) - 1

    for start, end in zip(starts, starts[1:] + [len(distinct)]):
        low, high = f"{distinct[start]:.1f}", f"{distinct[end - 1]:.1f}"
        if low == high:
            ids[start:end] = text_id(low)
        else:
            ids[start:end] = [text_id(f"{v:.1f}") for v in distinct[start:end].tolist()]
    return texts, ids[inverse]


@dataclass
class Figure:
    """Collects series, then draws them as one SVG text or file."""

    title: str
    xlabel: str
    ylabel: str
    # (label, (n, 2) float64 array of (x, y) points, color)
    scatters: list[tuple[str, np.ndarray, str]] = field(default_factory=list)
    bars: list[tuple[float, float, float]] = field(default_factory=list)  # (x, height, width)

    def add_scatter(self, label: str, points) -> None:
        """Add a series of (x, y) points: a sequence or iterable of pairs, or an (n, 2) array."""
        pts = np.array(points if isinstance(points, np.ndarray) else list(points), dtype=np.float64)
        if pts.size == 0:
            pts = pts.reshape(0, 2)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise ValueError(f"scatter points must be (x, y) pairs, got an array of shape {pts.shape}")
        color = PALETTE[len(self.scatters) % len(PALETTE)]
        self.scatters.append((label, pts, color))

    def add_bars(self, bars) -> None:
        self.bars.extend(bars)

    def _bounds(self) -> tuple[float, float, float, float]:
        xs, ys = [], []
        for _, pts, _ in self.scatters:
            if len(pts):
                # one column at a time: a reduction over axis 0 of an (n, 2) array is ~10x slower
                for values, col in ((xs, pts[:, 0]), (ys, pts[:, 1])):
                    values.extend((col.min().item(), col.max().item()))
        for x, h, w in self.bars:
            xs.extend((x - w / 2, x + w / 2))
            ys.extend((0.0, h))
        if not xs:
            xs, ys = [0.0, 1.0], [0.0, 1.0]
        return (*_padded(min(xs), max(xs), 0.04), *_padded(min(ys), max(ys), 0.06))

    def svg(self) -> str:
        """The SVG text; ValueError on a non-finite point or bar or axis range."""
        bars = np.array(self.bars, dtype=np.float64).reshape(-1, 3)
        for what, rows in [(f"series {label!r} point", pts) for label, pts, _ in self.scatters] + [("bar", bars)]:
            if not np.isfinite(rows).all():
                k = int(np.argmin(np.isfinite(rows).all(axis=1)))
                raise ValueError(f"cannot plot {self.title!r}: {what} {k} {tuple(rows[k].tolist())} is not finite")
        x0, x1, y0, y1 = self._bounds()
        for axis, lo, hi in (("x", x0, x1), ("y", y0, y1)):
            if not math.isfinite(hi - lo):
                raise ValueError(
                    f"cannot plot {self.title!r}: the {axis} axis range [{lo:.4g}, {hi:.4g}] overflows"
                )
            if not _tick_step(lo, hi):  # a flat range that widening by 0.5 leaves flat
                raise ValueError(f"cannot plot {self.title!r}: the {axis} axis range [{lo!r}, {hi!r}] is flat")
        pw = WIDTH - MARGIN_L - MARGIN_R
        ph = HEIGHT - MARGIN_T - MARGIN_B

        # scalars for the frame and bars, float64 arrays for a scatter series
        def sx(x):
            return MARGIN_L + (x - x0) / (x1 - x0) * pw

        def sy(y):
            return MARGIN_T + ph - (y - y0) / (y1 - y0) * ph

        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            _text(f"{WIDTH / 2:.1f}", 22, 15, self.title, "middle"),
            # axes frame and ticks
            f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{pw}" height="{ph}" '
            'fill="none" stroke="#444" stroke-width="1"/>',
        ]
        bottom = MARGIN_T + ph
        for t in _nice_ticks(x0, x1):
            px = f"{sx(t):.1f}"
            parts.append(f'<line x1="{px}" y1="{bottom}" x2="{px}" y2="{bottom + 5}" stroke="#444"/>')
            parts.append(_text(px, bottom + 18, 11, f"{t:.4g}", "middle"))
        for t in _nice_ticks(y0, y1):
            py = sy(t)
            parts.append(f'<line x1="{MARGIN_L - 5}" y1="{py:.1f}" x2="{MARGIN_L}" y2="{py:.1f}" stroke="#444"/>')
            parts.append(_text(MARGIN_L - 8, f"{py + 4:.1f}", 11, f"{t:.4g}", "end"))
        mid = f"{MARGIN_T + ph / 2:.1f}"
        parts.append(_text(f"{MARGIN_L + pw / 2:.1f}", HEIGHT - 10, 13, self.xlabel, "middle"))
        parts.append(_text(16, mid, 13, self.ylabel, "middle", f"rotate(-90 16 {mid})"))

        for x, h, w in self.bars:
            left, right = sx(x - w / 2), sx(x + w / 2)
            top, base = sy(h), sy(max(0.0, y0))
            parts.append(
                f'<rect x="{left:.1f}" y="{min(top, base):.1f}" width="{max(right - left, 0.5):.1f}" '
                f'height="{abs(base - top):.1f}" fill="#1f5fa8" fill-opacity="0.75" stroke="#123c6b"/>'
            )
        for _, pts, color in self.scatters:
            if not len(pts):
                continue
            cx, cx_ids = _tenths_texts(sx(pts[:, 0]))
            cy, cy_ids = _tenths_texts(sy(pts[:, 1]))
            # one circle per drawn position, in first-seen order, so float noise in
            # repeated points cannot change what the plot holds
            n = len(pts)
            assert len(cx) * len(cy) * n <= np.iinfo(np.int64).max  # tenth-pixel texts in the frame: ~6e3 x 4e3
            order = np.sort((cx_ids.astype(np.int64) * len(cy) + cy_ids) * n + np.arange(n))
            key = order // n
            first = np.sort(order[np.r_[True, key[1:] != key[:-1]]] % n)
            parts.extend(
                f'<circle cx="{cx[i]}" cy="{cy[j]}" r="2.4" fill="{color}"/>'
                for i, j in zip(cx_ids[first].tolist(), cy_ids[first].tolist())
            )

        # legend for labelled series
        labelled = [(lab, col) for lab, _, col in self.scatters if lab]
        for k, (lab, col) in enumerate(labelled):
            ly = MARGIN_T + 14 + 16 * k
            parts.append(f'<rect x="{MARGIN_L + pw - 130}" y="{ly - 9}" width="10" height="10" fill="{col}"/>')
            parts.append(_text(MARGIN_L + pw - 115, ly, 11, lab))
        parts.append("</svg>")
        return "\n".join(parts) + "\n"

    def render(self, path: str | Path) -> None:
        """Write `svg()` to `path`; when it raises, no file is made."""
        write_text(path, self.svg())
