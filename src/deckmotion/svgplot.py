"""Minimal self-contained SVG line charts.

Rendering is a pure function of the data: identical inputs produce
byte-identical SVG text, which keeps plot outputs diffable and the CLI
pipeline reproducible.
"""

from __future__ import annotations

import math

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")

_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 28
_MARGIN_BOTTOM = 34


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _limits(values: np.ndarray) -> tuple[float, float]:
    vmin = float(values.min())
    vmax = float(values.max())
    if vmax == vmin:  # flat data still needs a non-degenerate axis
        vmin -= 1.0
        vmax += 1.0
    return vmin, vmax


def _offsets(values: np.ndarray, vmin: float, vmax: float, extent: float) -> np.ndarray:
    """Pixel offsets (values - vmin) * extent / (vmax - vmin).

    Finite data whose span overflows float64 (values near +-1.8e308) is
    mapped on halved values, which is exact and cannot overflow; any other
    span is mapped as it is.
    """
    k = 1.0 if math.isfinite(vmax - vmin) else 0.5
    return (values * k - vmin * k) * (extent / (vmax * k - vmin * k))


def render_panels(
    panels: list[dict],
    width: int = 900,
    panel_height: int = 240,
    x_label: str = "t [s]",
) -> str:
    """Stack line-chart panels in one SVG document.

    Each panel is {"title": str, "x": array, "curves": [(label, array), ...]}.
    """
    height = panel_height * len(panels)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for pi, panel in enumerate(panels):
        x = np.asarray(panel["x"], dtype=np.float64)
        curves = [(label, np.asarray(y, dtype=np.float64)) for label, y in panel["curves"]]
        top = pi * panel_height
        ax_top = top + _MARGIN_TOP
        ax_bottom = top + panel_height - _MARGIN_BOTTOM
        ax_left = _MARGIN_LEFT
        ax_right = width - _MARGIN_RIGHT

        xmin, xmax = _limits(x)
        ymin, ymax = _limits(np.concatenate([y for _, y in curves]))
        px = ax_left + _offsets(x, xmin, xmax, ax_right - ax_left)

        parts.append(
            f'<g stroke="#444" stroke-width="1">'
            f'<line x1="{ax_left}" y1="{ax_bottom}" x2="{ax_right}" y2="{ax_bottom}"/>'
            f'<line x1="{ax_left}" y1="{ax_top}" x2="{ax_left}" y2="{ax_bottom}"/>'
            f"</g>"
        )
        parts.append(
            f'<text x="{ax_left}" y="{top + 18}" font-family="sans-serif" '
            f'font-size="13" fill="#000">{panel["title"]}</text>'
        )
        parts.append(
            f'<g font-family="sans-serif" font-size="10" fill="#444">'
            f'<text x="{ax_left - 6}" y="{ax_bottom + 3}" text-anchor="end">{_fmt(ymin)}</text>'
            f'<text x="{ax_left - 6}" y="{ax_top + 3}" text-anchor="end">{_fmt(ymax)}</text>'
            f'<text x="{ax_left}" y="{ax_bottom + 14}">{_fmt(xmin)}</text>'
            f'<text x="{ax_right}" y="{ax_bottom + 14}" text-anchor="end">{_fmt(xmax)}</text>'
            f'<text x="{(ax_left + ax_right) // 2}" y="{ax_bottom + 26}" text-anchor="middle">{x_label}</text>'
            f"</g>"
        )
        for ci, (label, y) in enumerate(curves):
            color = _COLORS[ci % len(_COLORS)]
            py = ax_bottom - _offsets(y, ymin, ymax, ax_bottom - ax_top)
            pts = " ".join(f"{_fmt(xi)},{_fmt(yi)}" for xi, yi in zip(px, py))
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>'
            )
            parts.append(
                f'<text x="{ax_right - 120}" y="{top + 18 + 13 * ci}" '
                f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
