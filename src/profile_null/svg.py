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

# the integer and fraction parts of the 2-decimal cells 0.00 to 720.99
_INT = np.array([str(i) for i in range(int(_W) + 1)], dtype=object)
_FRAC = np.array([f".{i:02d}" for i in range(100)], dtype=object)


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


def _cells(px: np.ndarray) -> np.ndarray:
    """``format(v, ".2f")`` of each pixel coordinate, as an object array.

    A value ``v`` whose ``100 * v`` lies strictly within 1/2 of an integer
    ``m`` prints as ``m / 100``, looked up in ``_INT`` and ``_FRAC``. The
    product is off by at most half an ulp of 72,100, under 1e-11, so a value
    is looked up only when the product is more than 1e-6 from the midpoint.
    The rest take ``format``: the values near a 2-decimal tie, those with the
    sign bit set (which may print "-0.00") and those beyond the table.
    """
    h = 100.0 * px
    m = np.rint(h)
    with np.errstate(invalid="ignore"):  # a non-finite value takes format
        looked_up = (np.abs(h - m) < 0.5 - 1e-6) & ~np.signbit(px) & (m < 100 * _INT.size)
    k = m[looked_up].astype(np.int64)
    cells = np.empty(px.size, dtype=object)
    cells[looked_up] = _INT[k // 100] + _FRAC[k % 100]
    cells[~looked_up] = [format(v, ".2f") for v in px[~looked_up].tolist()]
    return cells


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
    ratio of one. Coordinates are printed with 2 decimals, each pixel column
    formatted as a whole by ``_cells``: the x cells once for all four curves
    and the circles, and each curve's and the circles' text joined once.
    ``&``, ``<`` and ``>`` in the title are escaped.
    """
    title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
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

    x_cells = _cells(sx(sizes))
    ratio_cells, fe_lo_cells, fe_hi_cells, en_lo_cells, en_hi_cells = (
        _cells(sy(c)) for c in ys)
    x_comma = x_cells + ","

    def polyline(y_cells: np.ndarray, style: str) -> str:
        pts = " ".join((x_comma + y_cells).tolist())
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
    parts.append(polyline(fe_lo_cells, solid))
    parts.append(polyline(fe_hi_cells, solid))
    parts.append(polyline(en_lo_cells, dotted))
    parts.append(polyline(en_hi_cells, dotted))
    # centers
    parts += ('<circle cx="' + x_cells + '" cy="' + ratio_cells
              + '" r="2.4" fill="none" stroke="steelblue" stroke-width="1"/>').tolist()
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
