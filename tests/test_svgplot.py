"""SVG rendering: deterministic text output, sane structure."""

import re
import sys
import warnings

import numpy as np
import pytest

from deckmotion import cli, svgplot


def test_line_chart_structure():
    x = np.linspace(0, 10, 50)
    curves = [("sin", np.sin(x)), ("cos", np.cos(x))]
    svg = svgplot.render_panels(x, [("waves", curves)])
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "waves" in svg and "sin" in svg and "cos" in svg


def test_render_deterministic():
    x = np.linspace(0, 5, 20)
    panels = [("p", [("y", x**2)])]
    assert svgplot.render_panels(x, panels) == svgplot.render_panels(x, panels)


def test_flat_data_does_not_degenerate():
    x = np.arange(10.0)
    svg = svgplot.render_panels(x, [("", [("flat", np.zeros(10))])])
    assert "nan" not in svg and "inf" not in svg


@pytest.mark.parametrize("v", [1e17, -1e17, sys.float_info.max, -sys.float_info.max])
def test_flat_channel_beyond_unit_spacing_plots(tmp_path, v):
    # widening a flat axis by 1.0 leaves it flat where one spacing exceeds 1.0
    data, out = tmp_path / "flat.csv", tmp_path / "flat.svg"
    data.write_text("t,heave,pitch,roll\n" + "".join(f"{0.1 * k!r},{v!r},0.0,0.0\n" for k in range(3)))
    assert cli.main(["plot", "--data", str(data), "--out", str(out), "--quiet"]) == 0
    svg = out.read_text()
    points = [float(c) for pts in re.findall(r'points="([^"]*)"', svg) for c in re.split("[ ,]", pts)]
    assert len(points) == 3 * 2 * 3 and all(np.isfinite(points))
    assert "nan" not in svg and "inf" not in svg


def test_span_beyond_float64_range_stays_finite():
    # finite values whose span, 3e308, overflows float64
    y = np.where(np.arange(20) % 2, 1.5e308, -1.5e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = svgplot.render_panels(np.arange(20.0), [("", [("roll", y)])])
    assert "nan" not in svg and "inf" not in svg
    # the extremes land on the axis ends: bottom at y=206, top at y=28
    assert 'points="64,206 107.158,28 ' in svg and ' 884,28"' in svg


def test_multi_panel_height():
    x = np.arange(5.0)
    panels = [(f"p{k}", [("y", x)]) for k in range(3)]
    svg = svgplot.render_panels(x, panels)
    assert 'height="720"' in svg


def test_span_below_float64_resolution_stays_finite():
    # a span of 1e-323 (two subnormal steps): extent / span overflows
    x = np.array([0.0, 5e-324, 1e-323])
    y = np.array([1e-323, 0.0, 5e-324])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = svgplot.render_panels(x, [("", [("heave", y)])])
    assert "nan" not in svg and "inf" not in svg
    # x ends at 64 and 884; y's maximum at the top (28), its minimum at the bottom (206)
    assert 'points="64,28 474,206 884,117"' in svg


# rendered when each panel carried its own x, as render_panels([{"title",
# "x", "curves"}, ...]); one shared x axis must give the same bytes. Every
# value is a binary fraction, so the text pins the mapping, not its rounding
GOLDEN_CHART = """\
<svg xmlns="http://www.w3.org/2000/svg" width="900" height="720" viewBox="0 0 900 720">
<rect width="900" height="720" fill="white"/>
<g stroke="#444" stroke-width="1"><line x1="64" y1="206" x2="884" y2="206"/><line x1="64" y1="28" x2="64" y2="206"/></g>
<text x="64" y="18" font-family="sans-serif" font-size="13" fill="#000">a</text>
<g font-family="sans-serif" font-size="10" fill="#444"><text x="58" y="209" text-anchor="end">-1</text><text x="58" y="31" text-anchor="end">2</text><text x="64" y="220">0</text><text x="884" y="220" text-anchor="end">2</text><text x="474" y="232" text-anchor="middle">t [s]</text></g>
<polyline fill="none" stroke="#1f77b4" stroke-width="1.2" points="64,146.667 269,87.3333 576.5,206 884,117"/>
<text x="764" y="18" font-family="sans-serif" font-size="11" fill="#1f77b4">u</text>
<polyline fill="none" stroke="#d62728" stroke-width="1.2" points="64,131.833 269,191.167 576.5,28 884,146.667"/>
<text x="764" y="31" font-family="sans-serif" font-size="11" fill="#d62728">v</text>
<g stroke="#444" stroke-width="1"><line x1="64" y1="446" x2="884" y2="446"/><line x1="64" y1="268" x2="64" y2="446"/></g>
<text x="64" y="258" font-family="sans-serif" font-size="13" fill="#000">b</text>
<g font-family="sans-serif" font-size="10" fill="#444"><text x="58" y="449" text-anchor="end">2</text><text x="58" y="271" text-anchor="end">4</text><text x="64" y="460">0</text><text x="884" y="460" text-anchor="end">2</text><text x="474" y="472" text-anchor="middle">t [s]</text></g>
<polyline fill="none" stroke="#1f77b4" stroke-width="1.2" points="64,357 269,357 576.5,357 884,357"/>
<text x="764" y="258" font-family="sans-serif" font-size="11" fill="#1f77b4">u</text>
<polyline fill="none" stroke="#d62728" stroke-width="1.2" points="64,357 269,357 576.5,357 884,357"/>
<text x="764" y="271" font-family="sans-serif" font-size="11" fill="#d62728">v</text>
<g stroke="#444" stroke-width="1"><line x1="64" y1="686" x2="884" y2="686"/><line x1="64" y1="508" x2="64" y2="686"/></g>
<text x="64" y="498" font-family="sans-serif" font-size="13" fill="#000">c</text>
<g font-family="sans-serif" font-size="10" fill="#444"><text x="58" y="689" text-anchor="end">-8</text><text x="58" y="511" text-anchor="end">4</text><text x="64" y="700">0</text><text x="884" y="700" text-anchor="end">2</text><text x="474" y="712" text-anchor="middle">t [s]</text></g>
<polyline fill="none" stroke="#1f77b4" stroke-width="1.2" points="64,686 269,565.479 576.5,508 884,604.417"/>
<text x="764" y="498" font-family="sans-serif" font-size="11" fill="#1f77b4">u</text>
<polyline fill="none" stroke="#d62728" stroke-width="1.2" points="64,545.083 269,552.5 576.5,567.333 884,574.75"/>
<text x="764" y="511" font-family="sans-serif" font-size="11" fill="#d62728">v</text>
</svg>
"""


def test_golden_chart():
    x = np.array([0.0, 0.5, 1.25, 2.0])
    panels = [
        ("a", [("u", np.array([0.0, 1.0, -1.0, 0.5])), ("v", np.array([0.25, -0.75, 2.0, 0.0]))]),
        ("b", [("u", np.full(4, 3.0)), ("v", np.full(4, 3.0))]),
        ("c", [("u", np.array([-8.0, 0.125, 4.0, -2.5])), ("v", np.array([1.5, 1.0, 0.0, -0.5]))]),
    ]
    assert svgplot.render_panels(x, panels) == GOLDEN_CHART
