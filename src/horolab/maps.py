"""The map z**2 + epsilon, held by epsilon alone (no numpy).

Every layer takes epsilon as the command line parsed it and computes
z*z + eps itself; quadratic_map and evaluate are that check and that
arithmetic as two functions.
"""

from __future__ import annotations

import cmath

from .errors import ConstructionError


def quadratic_map(epsilon: complex) -> complex:
    """epsilon as a complex, checked finite."""
    eps = complex(epsilon)
    if not cmath.isfinite(eps):
        raise ConstructionError("epsilon must be finite")
    return eps


def evaluate(eps: complex, z: complex) -> complex:
    """z**2 + eps."""
    return z * z + eps
