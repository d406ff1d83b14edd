"""SVG rendering: deterministic text output, sane structure."""

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


def test_multi_panel_height():
    x = np.arange(5.0)
    panels = [
        {"title": f"p{k}", "x": x, "curves": [("y", x)]}
        for k in range(3)
    ]
    svg = svgplot.render_panels(panels, panel_height=200)
    assert 'height="600"' in svg
