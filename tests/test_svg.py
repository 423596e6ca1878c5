"""Profile chart tests: byte stability, geometry, input refusal, runner output."""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import pytest

from dbmwalk.experiments import ExperimentConfig, run_profile_experiment
from dbmwalk.graph import DbmParams
from dbmwalk.svg import render, write

# frozen digest of the fixture below; any byte change in the writer must
# be deliberate and show up here.  The generic plot layer this writer
# replaced rendered the same chart (both lines in its first palette
# colour, the points in its second) to this same digest, so the switch
# moved no rendered byte.
GOLDEN_SHA256 = "be5240e3d822cd16470fac51b5fbcc329c7ca87749d0c251e69ad29f17abfa53"

LEGEND = re.compile(r'<text x="[^"]+" y="[^"]+" font-size="11">([^<]*)</text>')


def fixture_chart() -> tuple:
    lines = [
        ("empirical", [0, 1, 2, 3, 4], [1.0, 0.62, 0.4, 0.26, 0.18]),
        ("reference", [0, 1, 2, 3, 4], [1.0, 0.6, 0.36, 0.216, 0.1296]),
    ]
    points = ("samples", [0.5, 1.5, 2.5], [0.8, 0.5, 0.33])
    return "decay & rise <check>", "t", "value", lines, points


def test_render_is_byte_stable():
    a = render(*fixture_chart())
    b = render(*fixture_chart())
    assert a == b
    assert hashlib.sha256(a.encode()).hexdigest() == GOLDEN_SHA256


def test_rendered_structure():
    text = render(*fixture_chart())
    assert text.startswith("<svg ") and text.rstrip().endswith("</svg>")
    assert text.count("<polyline ") == 2
    assert text.count('stroke="#1f6feb" stroke-width="1.6"') == 2
    assert text.count("<circle ") == 3
    assert text.count('fill="#d1242f"') == 3
    assert LEGEND.findall(text) == ["empirical", "reference", "samples"]
    # title is escaped, not raw
    assert "decay &amp; rise &lt;check&gt;" in text
    assert "<check>" not in text


def test_line_respects_screen_orientation():
    text = render("", "", "", [("drop", [0, 1, 2, 3], [3.0, 2.0, 1.0, 0.0])], ("", [1], [1.0]))
    pts = re.search(r'<polyline points="([^"]+)"', text).group(1)
    coords = [tuple(map(float, p.split(","))) for p in pts.split()]
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    # decreasing data runs down the canvas and left to right
    assert all(a < b for a, b in zip(xs, xs[1:]))
    assert all(a < b for a, b in zip(ys, ys[1:]))


def test_rejects_bad_inputs():
    with pytest.raises(ValueError, match="non-finite"):
        render("", "", "", [("nan", [0.0, 1.0], [0.0, float("nan")])], ("", [0.5], [0.5]))


def test_write_matches_render(tmp_path):
    path = tmp_path / "fig.svg"
    write(str(path), *fixture_chart())
    assert path.read_text(encoding="utf-8") == render(*fixture_chart())


def test_profile_runs_draw_the_curve_pieces_under_the_points(tmp_path):
    # the entropic clock's limit jumps at beta = 1, so the curve is drawn
    # in two pieces; the alpha clock's limit is one smooth decay
    sub = ExperimentConfig(
        params=DbmParams(n=300, m=2, lam=3.0, alpha=0.3, seed=1),
        regime="subcritical",
        beta_grid=(0.5, 1.5),
        out_dir=str(tmp_path / "sub"),
    )
    inv = ExperimentConfig(
        params=DbmParams(n=200, m=2, lam=3.0, alpha=0.01, seed=1),
        regime="supercritical",
        beta_grid=(0.5, 1.0),
        timescale="inverse_alpha",
        out_dir=str(tmp_path / "inv"),
    )
    for config, legend in [
        (sub, ["limiting curve", "(after the step)", "empirical (seed mean)"]),
        (inv, ["limiting curve", "empirical (seed mean)"]),
    ]:
        run_profile_experiment(config)
        text = (Path(config.out_dir) / "profile.svg").read_text(encoding="utf-8")
        assert text.count("<polyline ") == len(legend) - 1
        assert text.count("<circle ") == len(config.beta_grid)
        assert LEGEND.findall(text) == legend
