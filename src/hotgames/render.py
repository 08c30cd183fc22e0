"""Thermograph output: exact JSON and SVG pictures.

The SVG follows the usual plotting convention: the value axis is
horizontal with positive values on the LEFT, temperature runs upward,
walls are solid polylines and the mast is a dashed vertical ray. Floats
appear only here, to place picture coordinates; all JSON output keeps
exact "p/q" strings.
"""

from __future__ import annotations

from .thermal import Thermograph

_W, _H = 480, 360
_PAD = 48


def thermograph_svg(th: Thermograph, title: str) -> str:
    xs = [float(x) for _, x in th.left_wall + th.right_wall]
    ts = [float(t) for t, _ in th.left_wall + th.right_wall]
    mast_top = float(th.temperature) + max(1.0, (max(ts) - min(ts)) * 0.4)
    x_lo, x_hi = min(xs) - 0.5, max(xs) + 0.5
    t_lo, t_hi = min(-1.0, min(ts)), mast_top

    def sx(x: float) -> float:
        # positive x to the left
        return _PAD + (_W - 2 * _PAD) * (x_hi - x) / (x_hi - x_lo)

    def sy(t: float) -> float:
        return _H - _PAD - (_H - 2 * _PAD) * (t - t_lo) / (t_hi - t_lo)

    def poly(wall) -> str:
        return " ".join(f"{sx(float(x)):.2f},{sy(float(t)):.2f}" for t, x in wall)

    mast_x = sx(float(th.mast))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        # t = 0 axis
        f'<line x1="{_PAD}" y1="{sy(0):.2f}" x2="{_W - _PAD}" y2="{sy(0):.2f}" '
        'stroke="#999" stroke-width="1"/>',
        f'<polyline points="{poly(th.left_wall)}" fill="none" stroke="#1f77b4" '
        'stroke-width="2"/>',
        f'<polyline points="{poly(th.right_wall)}" fill="none" stroke="#d62728" '
        'stroke-width="2"/>',
        f'<line x1="{mast_x:.2f}" y1="{sy(float(th.temperature)):.2f}" '
        f'x2="{mast_x:.2f}" y2="{sy(t_hi):.2f}" stroke="#333" stroke-width="2" '
        'stroke-dasharray="6 4"/>',
        f'<text x="{mast_x + 6:.2f}" y="{sy(float(th.temperature)) - 6:.2f}" '
        f'font-size="12" font-family="monospace">t={th.temperature} m={th.mast}</text>',
        f'<text x="{_PAD}" y="20" font-size="13" font-family="monospace">'
        f"{_escape(title)}</text>",
        "</svg>",
    ]
    return "\n".join(parts)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")

