"""Self-contained SVG funnel plots: measure ratio against effective size,
with fixed-effects and empirical-null control-limit curves and the null line
at 1. No external fonts or styles; byte-deterministic for fixed inputs.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

GENERATOR_COMMENT = "<!-- profile-null funnel svg v1 -->"

_W, _H = 720.0, 480.0
_ML, _MR, _MT, _MB = 64.0, 16.0, 36.0, 48.0


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(1, n - 1)
    mag = 10.0 ** int(f"{raw:e}".split("e")[1])
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    start = step * (int(lo / step) + (0 if lo % step == 0 else 1) - (1 if lo < 0 else 0))
    ticks = []
    t = start
    while t <= hi + 1e-9 * step:
        if t >= lo - 1e-9 * step:
            ticks.append(round(t, 10))
        t += step
    return ticks or [lo, hi]


def funnel_svg(
    title: str,
    sizes: Sequence[float],
    ratios: Sequence[float],
    fe_lower: Sequence[float],
    fe_upper: Sequence[float],
    en_lower: Sequence[float],
    en_upper: Sequence[float],
) -> str:
    """Render one measure's funnel plot.

    ``sizes`` must be ascending so the per-center limit values trace the
    control curves; the solid curves are the fixed-effects limits, the dotted
    curves the empirical-null limits, and the dash-dotted line the null
    ratio of one. Coordinates are printed with 2 decimals.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    ys = [np.asarray(c, dtype=np.float64)
          for c in (ratios, fe_lower, fe_upper, en_lower, en_upper)]
    x_lo, x_hi = 0.0, float(sizes.max()) * 1.05 if sizes.size else 1.0
    y_lo = min([1.0, *(float(c.min()) for c in ys if c.size)])
    y_hi = max([1.0, *(float(c.max()) for c in ys if c.size)])
    pad = 0.05 * (y_hi - y_lo or 1.0)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    # each maps a float, or each value of an array, to its pixel coordinate
    def sx(v):
        return _ML + (v - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(v):
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    size_px = sx(sizes).tolist()
    ratio_px, fe_lo_px, fe_hi_px, en_lo_px, en_hi_px = (sy(c).tolist() for c in ys)

    def polyline(y_px: list[float], style: str) -> str:
        pts = " ".join(map("{:.2f},{:.2f}".format, size_px, y_px))
        return f'<polyline fill="none" {style} points="{pts}"/>'

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        GENERATOR_COMMENT,
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:g}" height="{_H:g}" '
        f'viewBox="0 0 {_W:g} {_H:g}">',
        '<rect width="100%" height="100%" fill="white"/>',
        f'<text x="{_W / 2:.2f}" y="20" font-family="sans-serif" font-size="14" '
        f'text-anchor="middle">{title}</text>',
    ]
    # axes
    parts.append(f'<line x1="{_ML:.2f}" y1="{_H - _MB:.2f}" x2="{_W - _MR:.2f}" '
                 f'y2="{_H - _MB:.2f}" stroke="black" stroke-width="1"/>')
    parts.append(f'<line x1="{_ML:.2f}" y1="{_MT:.2f}" x2="{_ML:.2f}" '
                 f'y2="{_H - _MB:.2f}" stroke="black" stroke-width="1"/>')
    for t in _ticks(x_lo, x_hi):
        parts.append(f'<line x1="{sx(t):.2f}" y1="{_H - _MB:.2f}" x2="{sx(t):.2f}" '
                     f'y2="{_H - _MB + 4:.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{sx(t):.2f}" y="{_H - _MB + 18:.2f}" '
                     f'font-family="sans-serif" font-size="11" text-anchor="middle">{t:g}</text>')
    for t in _ticks(y_lo, y_hi):
        parts.append(f'<line x1="{_ML - 4:.2f}" y1="{sy(t):.2f}" x2="{_ML:.2f}" '
                     f'y2="{sy(t):.2f}" stroke="black" stroke-width="1"/>')
        parts.append(f'<text x="{_ML - 8:.2f}" y="{sy(t) + 4:.2f}" '
                     f'font-family="sans-serif" font-size="11" text-anchor="end">{t:g}</text>')
    parts.append(f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 8:.2f}" '
                 f'font-family="sans-serif" font-size="12" text-anchor="middle">'
                 f'effective size</text>')
    parts.append(f'<text x="14" y="{(_MT + _H - _MB) / 2:.2f}" font-family="sans-serif" '
                 f'font-size="12" text-anchor="middle" '
                 f'transform="rotate(-90 14 {(_MT + _H - _MB) / 2:.2f})">observed / expected</text>')
    # null line at ratio 1
    parts.append(f'<line x1="{_ML:.2f}" y1="{sy(1.0):.2f}" x2="{_W - _MR:.2f}" '
                 f'y2="{sy(1.0):.2f}" stroke="gray" stroke-width="1" '
                 f'stroke-dasharray="8,3,2,3"/>')
    # control-limit curves
    solid = 'stroke="black" stroke-width="1.2"'
    dotted = 'stroke="black" stroke-width="1.2" stroke-dasharray="2,3"'
    parts.append(polyline(fe_lo_px, solid))
    parts.append(polyline(fe_hi_px, solid))
    parts.append(polyline(en_lo_px, dotted))
    parts.append(polyline(en_hi_px, dotted))
    # centers
    parts += map('<circle cx="{:.2f}" cy="{:.2f}" r="2.4" fill="none" '
                 'stroke="steelblue" stroke-width="1"/>'.format, size_px, ratio_px)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
