"""SVG rendering: deterministic text output, sane structure."""

import warnings

import numpy as np

from deckmotion import svgplot


def test_line_chart_structure():
    x = np.linspace(0, 10, 50)
    curves = [("sin", np.sin(x)), ("cos", np.cos(x))]
    svg = svgplot.render_panels([{"title": "waves", "x": x, "curves": curves}])
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "waves" in svg and "sin" in svg and "cos" in svg


def test_render_deterministic():
    x = np.linspace(0, 5, 20)
    panels = [{"title": "p", "x": x, "curves": [("y", x**2)]}]
    assert svgplot.render_panels(panels) == svgplot.render_panels(panels)


def test_flat_data_does_not_degenerate():
    x = np.arange(10.0)
    svg = svgplot.render_panels([{"title": "", "x": x, "curves": [("flat", np.zeros(10))]}])
    assert "nan" not in svg and "inf" not in svg


def test_span_beyond_float64_range_stays_finite():
    # finite values whose span, 3e308, overflows float64
    y = np.where(np.arange(20) % 2, 1.5e308, -1.5e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        svg = svgplot.render_panels([{"title": "", "x": np.arange(20.0), "curves": [("roll", y)]}])
    assert "nan" not in svg and "inf" not in svg
    # the extremes land on the axis ends: bottom at y=206, top at y=28
    assert 'points="64,206 107.158,28 ' in svg and ' 884,28"' in svg


def test_multi_panel_height():
    x = np.arange(5.0)
    panels = [
        {"title": f"p{k}", "x": x, "curves": [("y", x)]}
        for k in range(3)
    ]
    svg = svgplot.render_panels(panels)
    assert 'height="720"' in svg
