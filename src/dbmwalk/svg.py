"""Byte-stable SVG of the mixing profile: limiting curve under measured points.

Writes the one chart the profile runner draws without pulling in a
plotting stack.  Output bytes depend only on the inputs: floats are
formatted through one fixed-precision helper and elements are emitted
in argument order, so identical calls give identical files (golden-file
tests rely on this).
"""

from __future__ import annotations

import math
from typing import Sequence

LINE_COLOR = "#1f6feb"
POINT_COLOR = "#d1242f"

_WIDTH = 640.0
_HEIGHT = 420.0
_MARGIN_L = 62.0
_MARGIN_R = 16.0
_MARGIN_T = 34.0
_MARGIN_B = 46.0

Curve = tuple[str, Sequence[float], Sequence[float]]  # (label, xs, ys)


def _fmt(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise ValueError("non-finite coordinate in plot data")
    out = f"{v:.4f}".rstrip("0").rstrip(".")
    return out if out not in ("", "-0") else "0"


def _ticks(lo: float, hi: float) -> list[float]:
    raw = (hi - lo) / 4
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    out = []
    v = math.ceil(lo / step) * step
    while v <= hi + 1e-9 * step:
        out.append(0.0 if abs(v) < 1e-12 * step else v)
        v += step
    return out


def render(title: str, xlabel: str, ylabel: str, lines: Sequence[Curve], points: Curve) -> str:
    """SVG of the curve pieces ``lines`` under the measured ``points``; no axis may be flat."""
    series = [*lines, points]
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
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
        f'font-size="14">{_escape(title)}</text>',
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
            f'text-anchor="middle" font-size="11">{_fmt(round(tx, 6))}</text>'
        )
    for ty in _ticks(y_lo, y_hi):
        y = py(ty)
        out.append(
            f'<line x1="{_fmt(_MARGIN_L - 5)}" y1="{_fmt(y)}" x2="{_fmt(_MARGIN_L)}" '
            f'y2="{_fmt(y)}" stroke="#57606a"/>'
        )
        out.append(
            f'<text x="{_fmt(_MARGIN_L - 8)}" y="{_fmt(y + 4)}" text-anchor="end" '
            f'font-size="11">{_fmt(round(ty, 6))}</text>'
        )
    out.append(
        f'<text x="{_fmt(_MARGIN_L + plot_w / 2)}" y="{_fmt(_HEIGHT - 10)}" '
        f'text-anchor="middle" font-size="12">{_escape(xlabel)}</text>'
    )
    out.append(
        f'<text x="16" y="{_fmt(_MARGIN_T + plot_h / 2)}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 16 {_fmt(_MARGIN_T + plot_h / 2)})">'
        f"{_escape(ylabel)}</text>"
    )
    for _, xs, ys in lines:
        pts = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{LINE_COLOR}" '
            f'stroke-width="1.6"/>'
        )
    _, xs, ys = points
    for x, y in zip(xs, ys):
        out.append(f'<circle cx="{_fmt(px(x))}" cy="{_fmt(py(y))}" r="2.6" fill="{POINT_COLOR}"/>')
    # legend, top-right inside the box
    ly = _MARGIN_T + 14
    lx = _MARGIN_L + plot_w - 150
    for label, color in [(label, LINE_COLOR) for label, _, _ in lines] + [(points[0], POINT_COLOR)]:
        out.append(
            f'<line x1="{_fmt(lx)}" y1="{_fmt(ly - 4)}" x2="{_fmt(lx + 18)}" '
            f'y2="{_fmt(ly - 4)}" stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{_fmt(lx + 24)}" y="{_fmt(ly)}" font-size="11">'
            f"{_escape(label)}</text>"
        )
        ly += 16
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def write(
    path: str, title: str, xlabel: str, ylabel: str, lines: Sequence[Curve], points: Curve
) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(render(title, xlabel, ylabel, lines, points))
