"""Julia set sampling by inverse iteration.

The inverse-iteration sampler walks random backward paths from the
distinguished fixed point a(eps), the periodic.base_point every layer
starts from, when it is repelling; after a burn-in the visited points
distribute over the Julia set.  Branch randomness is seeded and
consumed in a fixed order (main sign matrix first, then per-path
resampling draws), so the sorted sample is reproducible bit for bit.  The sample is sorted
by (re, im) as an array, in one stable np.lexsort, and converted to
Python complex numbers by one .tolist(): the order and the values are
those of sorting the list of points on the key (z.real, z.imag).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PreconditionError
from .orbits import CRITICAL_PROXIMITY
from .periodic import base_point

BURN_IN = 20
MAX_RESAMPLE = 5


@dataclass(frozen=True)
class JuliaSample:
    epsilon: complex  # the sample is drawn for z**2 + epsilon
    points: tuple[complex, ...]
    method: str  # "inverse-iteration"
    params: dict


def inverse_iteration_sample(
    epsilon: complex,
    n_points: int,
    depth: int,
    seed: int,
) -> JuliaSample:
    """Random backward orbits of z**2 + epsilon from its repelling
    fixed point a, pooled.  The multiplier of a is at least the other
    fixed point's in modulus, so when a is not repelling neither fixed
    point is, which is a PreconditionError.

    The inverse branches are closed-form.  Paths whose branch choice
    hits the critical value (both preimages collide) are resampled with
    fresh seeded randomness; if collisions persist (they are unavoidable
    on some parameters, where the critical orbit lies in J itself) the
    path passes through the collision point, which is a genuine Julia
    point, and continues.
    """
    eps = complex(epsilon)
    if depth <= BURN_IN:
        raise ConfigError(f"depth must exceed the burn-in ({BURN_IN})")
    if n_points < 1:
        raise ConfigError("n_points must be positive")
    start = base_point(eps)
    if start.classification != "repelling":
        raise PreconditionError("inverse iteration needs a repelling fixed point")
    per_path = depth - BURN_IN
    n_paths = math.ceil(n_points / per_path)
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, size=(n_paths, depth))
    pts, flagged = _run_paths(np.full(n_paths, start.location, dtype=complex), signs, eps)
    n_resampled = int(np.count_nonzero(flagged))
    n_passthrough = 0
    for i in np.nonzero(flagged)[0]:
        cleared = False
        for _ in range(MAX_RESAMPLE):
            s = rng.integers(0, 2, size=(1, depth))
            row, bad = _run_paths(np.array([start.location], dtype=complex), s, eps)
            pts[i] = row[0]
            if not bad[0]:
                cleared = True
                break
        if not cleared:
            n_passthrough += 1
    return JuliaSample(
        epsilon=eps,
        points=tuple(_sorted(pts.reshape(-1)[:n_points])),
        method="inverse-iteration",
        params={
            "n_points": n_points,
            "depth": depth,
            "seed": seed,
            "burn_in": BURN_IN,
            "resampled_paths": n_resampled,
            "passthrough_paths": n_passthrough,
        },
    )


def _sorted(points: np.ndarray) -> list[complex]:
    """The points as Python complex numbers, sorted by (re, im).

    np.lexsort is stable and orders finite floats as Python does, -0.0
    equal to 0.0, so this is the order that sorting the list on the key
    (z.real, z.imag) gives, ties included; .tolist() gives each part as
    stored."""
    return points[np.lexsort((points.imag, points.real))].tolist()


def _run_paths(z0: np.ndarray, signs: np.ndarray, eps: complex):
    """Vectorized backward iteration; returns (collected points, collision flags)."""
    n_paths, depth = signs.shape
    z = z0.copy()
    collected = np.empty((n_paths, depth - BURN_IN), dtype=complex)
    collided = np.zeros(n_paths, dtype=bool)
    for step in range(depth):
        s = np.sqrt(z - eps)
        collided |= np.abs(s) < CRITICAL_PROXIMITY  # a preimage on the critical point 0
        z = np.where(signs[:, step] == 1, s, -s)
        if step >= BURN_IN:
            collected[:, step - BURN_IN] = z
    return collected, collided
