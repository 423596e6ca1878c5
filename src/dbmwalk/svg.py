"""Tiny byte-stable SVG line/scatter plots.

Writes the handful of diagnostic figures this package needs without
pulling in a plotting stack.  Output bytes depend only on the inputs:
floats are formatted through one fixed-precision helper and elements
are emitted in argument order, so identical calls give identical files
(golden-file tests rely on this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

PALETTE = ("#1f6feb", "#d1242f", "#2da44e", "#9a6700", "#8250df", "#57606a")

_WIDTH = 640.0
_HEIGHT = 420.0
_MARGIN_L = 62.0
_MARGIN_R = 16.0
_MARGIN_T = 34.0
_MARGIN_B = 46.0


def _fmt(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("non-finite coordinate in plot data")
    out = f"{v:.4f}".rstrip("0").rstrip(".")
    return out if out not in ("", "-0") else "0"


def _fmt_tick(v: float) -> str:
    a = abs(v)
    if v != 0.0 and (a >= 1e4 or a < 1e-3):
        return f"{v:.1e}"
    return _fmt(round(v, 6))


@dataclass(frozen=True)
class Series:
    """One plotted sequence; ``kind`` is "line" or "points"."""

    label: str
    xs: Sequence[float]
    ys: Sequence[float]
    kind: str = "line"
    color: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("line", "points"):
            raise ValueError("kind must be 'line' or 'points'")
        if len(self.xs) != len(self.ys):
            raise ValueError("xs and ys must have equal length")


@dataclass
class Figure:
    title: str
    xlabel: str
    ylabel: str
    series: list[Series] = field(default_factory=list)

    def add(self, s: Series) -> None:
        self.series.append(s)


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / (count - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    start = math.ceil(lo / step) * step
    out = []
    v = start
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out or [lo, hi]


def render(fig: Figure) -> str:
    """Render the figure to an SVG string.

    A figure with no data renders as an axes-only frame over [0, 1]^2.
    """
    xs_all = [x for s in fig.series for x in s.xs]
    ys_all = [y for s in fig.series for y in s.ys]
    if not xs_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    pad_y = 0.06 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad_y, y_hi + pad_y

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + plot_w * (x - x_lo) / (x_hi - x_lo)

    def py(y: float) -> float:
        return _MARGIN_T + plot_h * (1.0 - (y - y_lo) / (y_hi - y_lo))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(_WIDTH)}" '
        f'height="{_fmt(_HEIGHT)}" viewBox="0 0 {_fmt(_WIDTH)} '
        f'{_fmt(_HEIGHT)}" font-family="sans-serif">',
        f'<rect width="{_fmt(_WIDTH)}" height="{_fmt(_HEIGHT)}" fill="#ffffff"/>',
        f'<text x="{_fmt(_WIDTH / 2)}" y="20" text-anchor="middle" '
        f'font-size="14">{_escape(fig.title)}</text>',
    ]
    # axes box
    out.append(
        f'<rect x="{_fmt(_MARGIN_L)}" y="{_fmt(_MARGIN_T)}" width="{_fmt(plot_w)}" '
        f'height="{_fmt(plot_h)}" fill="none" stroke="#57606a" stroke-width="1"/>'
    )
    for tx in _ticks(x_lo, x_hi):
        x = px(tx)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(_MARGIN_T + plot_h)}" x2="{_fmt(x)}" '
            f'y2="{_fmt(_MARGIN_T + plot_h + 5)}" stroke="#57606a"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{_fmt(_MARGIN_T + plot_h + 18)}" '
            f'text-anchor="middle" font-size="11">{_fmt_tick(tx)}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        out.append(
            f'<line x1="{_fmt(_MARGIN_L - 5)}" y1="{_fmt(y)}" x2="{_fmt(_MARGIN_L)}" '
            f'y2="{_fmt(y)}" stroke="#57606a"/>'
        )
        out.append(
            f'<text x="{_fmt(_MARGIN_L - 8)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-size="11">{_fmt_tick(ty)}</text>'
        )
    out.append(
        f'<text x="{_fmt(_MARGIN_L + plot_w / 2)}" y="{_fmt(_HEIGHT - 10)}" '
        f'text-anchor="middle" font-size="12">{_escape(fig.xlabel)}</text>'
    )
    out.append(
        f'<text x="16" y="{_fmt(_MARGIN_T + plot_h / 2)}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 16 {_fmt(_MARGIN_T + plot_h / 2)})">'
        f"{_escape(fig.ylabel)}</text>"
    )
    for idx, s in enumerate(fig.series):
        color = s.color or PALETTE[idx % len(PALETTE)]
        if s.kind == "line":
            pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(s.xs, s.ys))
            out.append(
                f'<polyline points="{pts}" fill="none" stroke="{color}" '
                f'stroke-width="1.6"/>'
            )
        else:
            for x, y in zip(s.xs, s.ys):
                out.append(
                    f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.6" '
                    f'fill="{color}"/>'
                )
    # legend, top-right inside the box
    ly = _MARGIN_T + 14
    for idx, s in enumerate(fig.series):
        color = s.color or PALETTE[idx % len(PALETTE)]
        lx = _MARGIN_L + plot_w - 150
        out.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 18)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_fmt(lx + 24)}" y="{_fmt(ly)}" font-size="11">'
            f"{_escape(s.label)}</text>"
        )
        ly += 16
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write(fig: Figure, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(fig))
