"""Renderer tests: byte stability, geometry, and input validation."""

from __future__ import annotations

import hashlib
import re

import pytest

from dbmwalk.svg import Figure, Series, render, write

# frozen digest of the fixture below; any byte change in the renderer
# must be deliberate and show up here
GOLDEN_SHA256 = "1786f2daf5ffebf99af0d08c5fed48a08e651efa23683d54b766ac4d94d7ea6c"


def fixture_figure() -> Figure:
    fig = Figure(title="decay & rise <check>", xlabel="t", ylabel="value")
    fig.add(Series("empirical", [0, 1, 2, 3, 4], [1.0, 0.62, 0.4, 0.26, 0.18]))
    fig.add(Series("reference", [0, 1, 2, 3, 4], [1.0, 0.6, 0.36, 0.216, 0.1296]))
    fig.add(
        Series(
            "samples", [0.5, 1.5, 2.5], [0.8, 0.5, 0.33], kind="points", color="#000000"
        )
    )
    return fig


def test_render_is_byte_stable():
    a = render(fixture_figure())
    b = render(fixture_figure())
    assert a == b
    assert hashlib.sha256(a.encode()).hexdigest() == GOLDEN_SHA256


def test_rendered_structure():
    text = render(fixture_figure())
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    assert text.count("<polyline ") == 2
    assert text.count("<circle ") == 3
    assert 'fill="#000000"' in text
    # title is escaped, not raw
    assert "decay &amp; rise &lt;check&gt;" in text
    assert "<check>" not in text


def test_empty_figure_renders_axes_only():
    text = render(Figure(title="nothing", xlabel="x", ylabel="y"))
    assert "<polyline" not in text and "<circle" not in text
    assert '<rect x="62"' in text  # the axes frame survives
    assert ">nothing<" in text


def test_line_respects_screen_orientation():
    fig = Figure(title="", xlabel="", ylabel="")
    fig.add(Series("drop", [0, 1, 2, 3], [3.0, 2.0, 1.0, 0.0]))
    text = render(fig)
    pts = re.search(r'<polyline points="([^"]+)"', text).group(1)
    coords = [tuple(map(float, p.split(","))) for p in pts.split()]
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    # decreasing data runs down the canvas and left to right
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert all(a < b for a, b in zip(ys, ys[1:]))


def test_rejects_bad_inputs():
    with pytest.raises(ValueError, match="kind"):
        Series("x", [0], [0], kind="bars")
    with pytest.raises(ValueError, match="length"):
        Series("x", [0, 1], [0])
    fig = Figure(title="", xlabel="", ylabel="")
    fig.add(Series("nan", [0.0, 1.0], [0.0, float("nan")]))
    with pytest.raises(ValueError, match="non-finite"):
        render(fig)


def test_write_matches_render(tmp_path):
    path = tmp_path / "fig.svg"
    write(fixture_figure(), str(path))
    assert path.read_text(encoding="utf-8") == render(fixture_figure())
