"""Minimal self-contained SVG line charts.

Rendering is a pure function of the data: identical inputs produce
byte-identical SVG text, which keeps plot outputs diffable and the CLI
pipeline reproducible.
"""

from __future__ import annotations

import math
import sys

import numpy as np

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")

_MARGIN_LEFT = 64
_MARGIN_RIGHT = 16
_MARGIN_TOP = 28
_MARGIN_BOTTOM = 34

_WIDTH = 900
_PANEL_HEIGHT = 240
_X_LABEL = "t [s]"


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _limits(values: np.ndarray) -> tuple[float, float]:
    vmin = float(values.min())
    vmax = float(values.max())
    if vmax == vmin:  # flat data still needs a non-degenerate axis
        # at least one spacing, which exceeds 1.0 from 2^53 on, and kept
        # finite at the largest floats
        pad = max(1.0, math.ulp(vmin))
        vmin, vmax = max(vmin - pad, -sys.float_info.max), min(vmax + pad, sys.float_info.max)
    return vmin, vmax


def _offsets(values: np.ndarray, vmin: float, vmax: float, extent: float) -> np.ndarray:
    """Pixel offsets (values - vmin) * extent / (vmax - vmin).

    Finite data whose span overflows float64 (values near +-1.8e308) is
    mapped on halved values, which is exact and cannot overflow; a span so
    small that extent / span overflows (subnormal data) is divided first;
    any other span is mapped as it is.
    """
    k = 1.0 if math.isfinite(vmax - vmin) else 0.5
    span = vmax * k - vmin * k
    ratio = extent / span
    if not math.isfinite(ratio):
        return (values * k - vmin * k) / span * extent
    return (values * k - vmin * k) * ratio


def render_panels(x, panels: list[tuple[str, list]]) -> str:
    """Stack line-chart panels that share the x axis x in one SVG document.

    Each panel is a (title, [(label, y), ...]) pair, where every y has the
    length of x.
    """
    x = np.asarray(x, dtype=np.float64)
    height = _PANEL_HEIGHT * len(panels)
    ax_left = _MARGIN_LEFT
    ax_right = _WIDTH - _MARGIN_RIGHT
    xmin, xmax = _limits(x)
    # Python floats from tolist() format faster than numpy scalars, same text
    px = [_fmt(v) for v in (ax_left + _offsets(x, xmin, xmax, ax_right - ax_left)).tolist()]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{height}" '
        f'viewBox="0 0 {_WIDTH} {height}">',
        f'<rect width="{_WIDTH}" height="{height}" fill="white"/>',
    ]
    for pi, (title, curves) in enumerate(panels):
        curves = [(label, np.asarray(y, dtype=np.float64)) for label, y in curves]
        top = pi * _PANEL_HEIGHT
        ax_top = top + _MARGIN_TOP
        ax_bottom = top + _PANEL_HEIGHT - _MARGIN_BOTTOM
        ymin, ymax = _limits(np.concatenate([y for _, y in curves]))

        parts.append(
            f'<g stroke="#444" stroke-width="1">'
            f'<line x1="{ax_left}" y1="{ax_bottom}" x2="{ax_right}" y2="{ax_bottom}"/>'
            f'<line x1="{ax_left}" y1="{ax_top}" x2="{ax_left}" y2="{ax_bottom}"/>'
            f"</g>"
        )
        parts.append(
            f'<text x="{ax_left}" y="{top + 18}" font-family="sans-serif" '
            f'font-size="13" fill="#000">{title}</text>'
        )
        parts.append(
            f'<g font-family="sans-serif" font-size="10" fill="#444">'
            f'<text x="{ax_left - 6}" y="{ax_bottom + 3}" text-anchor="end">{_fmt(ymin)}</text>'
            f'<text x="{ax_left - 6}" y="{ax_top + 3}" text-anchor="end">{_fmt(ymax)}</text>'
            f'<text x="{ax_left}" y="{ax_bottom + 14}">{_fmt(xmin)}</text>'
            f'<text x="{ax_right}" y="{ax_bottom + 14}" text-anchor="end">{_fmt(xmax)}</text>'
            f'<text x="{(ax_left + ax_right) // 2}" y="{ax_bottom + 26}" text-anchor="middle">{_X_LABEL}</text>'
            f"</g>"
        )
        for ci, (label, y) in enumerate(curves):
            color = _COLORS[ci % len(_COLORS)]
            py = ax_bottom - _offsets(y, ymin, ymax, ax_bottom - ax_top)
            pts = " ".join(f"{xi},{_fmt(yi)}" for xi, yi in zip(px, py.tolist()))
            parts.append(
                f'<polyline fill="none" stroke="{color}" stroke-width="1.2" points="{pts}"/>'
            )
            parts.append(
                f'<text x="{ax_right - 120}" y="{top + 18 + 13 * ci}" '
                f'font-family="sans-serif" font-size="11" fill="{color}">{label}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
