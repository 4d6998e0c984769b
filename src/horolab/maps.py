"""The map z**2 + epsilon on the Riemann sphere, held by epsilon alone.

The point at infinity is represented by a tagged value: any non-finite
complex is treated as the infinity tag, and evaluation sends every |z|
beyond the overflow radius to the tag instead of overflowing.
"""

from __future__ import annotations

import math

from .errors import ConstructionError

# |z| beyond this is identified with the point at infinity.
OVERFLOW_RADIUS = 1e150

INF = complex(math.inf, 0.0)


def is_inf(z: complex) -> bool:
    """True when z carries the infinity tag (any non-finite part)."""
    return not (math.isfinite(z.real) and math.isfinite(z.imag))


def quadratic_map(epsilon: complex) -> complex:
    """epsilon as the map z**2 + epsilon stores it: divided by the
    leading coefficient 1 + 0j, which turns some -0.0 parts into +0.0."""
    eps = complex(epsilon)
    if is_inf(eps):
        raise ConstructionError("epsilon must be finite")
    return eps / (1 + 0j)


def _tagged(w: complex) -> complex:
    return INF if is_inf(w) or abs(w) > OVERFLOW_RADIUS else w


def evaluate(eps: complex, z: complex) -> complex:
    """z**2 + eps on the extended plane; escapes give the tag.  The
    arithmetic is Horner's rule over the coefficients (eps, 0, 1) and a
    division by the denominator 1 + 0j, which fixes the sign of a zero
    part; z * z + eps alone differs there."""
    z = complex(z)
    if is_inf(z) or abs(z) > OVERFLOW_RADIUS:
        return INF
    return _tagged(((z + 0j) * z + eps) / (1 + 0j))


def derivative(z: complex) -> complex:
    """f'(z) = 2z, the same for every eps, tagged as evaluate tags f.
    Adding 0j gives a zero part the sign the derivative's Horner
    evaluation gave it."""
    z = complex(z)
    if is_inf(z) or abs(z) > OVERFLOW_RADIUS:
        return INF
    return _tagged(2 * z + 0j)
