#!/usr/bin/env python3
"""Regenerate src/profile_null/_erfc_table.py, the segment table of the
numpy ``erfc`` in ``profile_null._kernels``, from 50-digit mpmath.

    python3 scripts/make_erfc_coefficients.py           # rewrite the table
    python3 scripts/make_erfc_coefficients.py --check   # exit 1 if it differs

The kernel computes, for x >= 0,

    erfc(x) = exp(-z*z - c_k) * exp((z - x)*(z + x) + R_k(x - m_k))

where z is x with the low 32 bits of its significand cleared, so that z*z
and z*z + c_k are exact (the split of fdlibm's s_erf.c, Sun Microsystems,
1993). Segment k has midpoint m_k and an offset c_k, a multiple of 2**-10
near -(log erfc(m_k) + m_k**2), and R_k is a polynomial of degree DEGREE
that interpolates log erfc(x) + x**2 + c_k at the Chebyshev points of the
segment. R_k is small, so its rounding error costs the result little.

Segment 0 is [0, FIRST_EDGE). From there the segments are the binades of x,
each cut into 2**MANTISSA_BITS equal parts, so that the kernel finds a
segment from the top bits of x. The last segment holds ZERO, the smallest
double at which erfc falls below 2**-1022; from ZERO on the kernel returns
0 and no subnormal.
"""

import argparse
import sys
import textwrap
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "src" / "profile_null" / "_erfc_table.py"

DIGITS = 50
DEGREE = 10
MANTISSA_BITS = 3
FIRST_EDGE = 0.25
OFFSET_STEP = 2.0 ** -10
SHIFT = 52 - MANTISSA_BITS


def _bits(x):
    return int(np.float64(x).view(np.int64))


def _double(bits):
    return float(np.int64(bits).view(np.float64))


def _log_scaled_erfc(x):
    """log erfc(x) + x**2."""
    x = mpmath.mpf(x)
    return mpmath.log(mpmath.erfc(x)) + x * x


def zero_point():
    """The smallest double x with erfc(x) < 2**-1022."""
    tiny = mpmath.mpf(2) ** -1022
    x = float(mpmath.findroot(lambda t: mpmath.log(mpmath.erfc(t) / tiny), 26.5))
    while mpmath.erfc(x) < tiny:
        x = float(np.nextafter(x, 0.0))
    while not mpmath.erfc(x) < tiny:
        x = float(np.nextafter(x, np.inf))
    return x


def segment_edges(zero):
    """0, FIRST_EDGE and every segment start after it up to the last one,
    which holds ``zero``."""
    edges = [0.0]
    bits = _bits(FIRST_EDGE)
    while _double(bits) <= zero:
        edges.append(_double(bits))
        bits += 1 << SHIFT
    return edges, _double(bits)


def chebyshev_polynomial(f, a, b):
    """The monomial coefficients, in t = x - (a + b)/2, of the polynomial
    of degree DEGREE that interpolates f at the Chebyshev points of [a, b]."""
    n = DEGREE + 1
    mid, half = (mpmath.mpf(a) + b) / 2, (mpmath.mpf(b) - a) / 2
    angles = [mpmath.pi * (j + mpmath.mpf(1) / 2) / n for j in range(n)]
    values = [f(mid + half * mpmath.cos(u)) for u in angles]
    cheb = [2 * mpmath.fsum(v * mpmath.cos(k * u) for v, u in zip(values, angles)) / n
            for k in range(n)]
    cheb[0] /= 2
    # T_k as monomials in s = t/half
    powers = [[mpmath.mpf(1)], [mpmath.mpf(0), mpmath.mpf(1)]]
    for k in range(2, n):
        nxt = [mpmath.mpf(0)] * (k + 1)
        for i, c in enumerate(powers[k - 1]):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(powers[k - 2]):
            nxt[i] -= c
        powers.append(nxt)
    mono = [mpmath.fsum(cheb[k] * powers[k][i] for k in range(i, n)) for i in range(n)]
    return [float(c / half ** i) for i, c in enumerate(mono)]


def table():
    """The source text of the table module."""
    with mpmath.workdps(DIGITS):
        zero = zero_point()
        edges, end = segment_edges(zero)
        uppers = edges[1:] + [end]
        centers, offsets, coefficients = [], [], []
        for a, b in zip(edges, uppers):
            mid = (a + b) / 2.0
            offset = -float(mpmath.nint(_log_scaled_erfc(mid) / OFFSET_STEP)) * OFFSET_STEP
            centers.append(mid)
            offsets.append(offset)
            coefficients.append(chebyshev_polynomial(
                lambda x: _log_scaled_erfc(x) + offset, a, b))

    def floats(values, indent):
        """A call of ``_floats`` on the text of ``values``: one string
        compiles in a tenth of the time of as many float literals, and the
        package's modules are compiled at every start where no bytecode is
        cached."""
        text = textwrap.fill(" ".join(map(repr, values)), 79, initial_indent=indent,
                             subsequent_indent=indent, break_on_hyphens=False)
        return f'_floats("""\n{text}\n{indent[4:]}""")'

    powers = "\n".join(f"    {floats(col, '        ')}," for col in zip(*coefficients))
    return f'''"""The segments of the numpy ``erfc`` in ``_kernels``. Written by
scripts/make_erfc_coefficients.py from {DIGITS}-digit mpmath; do not edit.

Segment 0 is [0, EDGES[1]) and segment k > 0 starts at EDGES[k]; a double
x >= EDGES[1] lies in segment (x.view(int64) >> SHIFT) - FIRST + 1. Over its
segment, log erfc(x) + x**2 + OFFSETS[k] is the polynomial in
t = x - CENTERS[k] whose coefficient of t**j is COEFFICIENTS[j][k]. From
ZERO on, erfc(x) < 2**-1022.
"""


def _floats(text):
    return tuple(float(v) for v in text.split())


SHIFT = {SHIFT}
FIRST = {_bits(FIRST_EDGE) >> SHIFT}
ZERO = {zero!r}

EDGES = {floats(edges, '    ')}

CENTERS = {floats(centers, '    ')}

OFFSETS = {floats(offsets, '    ')}

COEFFICIENTS = (
{powers}
)
'''


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if the committed table differs from the generated one")
    args = parser.parse_args()
    text = table()
    if args.check:
        if not TABLE.exists() or TABLE.read_text() != text:
            print(f"{TABLE.relative_to(ROOT)} differs from what "
                  f"scripts/make_erfc_coefficients.py generates", file=sys.stderr)
            return 1
        print(f"{TABLE.relative_to(ROOT)} is up to date")
        return 0
    TABLE.write_text(text)
    print(f"wrote {TABLE.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
