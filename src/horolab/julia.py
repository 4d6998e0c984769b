"""Julia set sampling: escape tests, inverse iteration, repelling cycles.

The inverse-iteration sampler walks random backward paths from a
repelling fixed point; after a burn-in the visited points distribute
over the Julia set.  Branch randomness is seeded and consumed in a
fixed order (main sign matrix first, then per-path resampling draws),
so the sorted sample is reproducible bit for bit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, PreconditionError
from .maps import quadratic_map
from .orbits import CRITICAL_PROXIMITY
from .periodic import PeriodicPoint, periodic_points

BURN_IN = 20
MAX_RESAMPLE = 5
ESCAPE_BUDGET_MAX = 100000


@dataclass(frozen=True)
class JuliaSample:
    epsilon: complex  # the sample is drawn for z**2 + epsilon
    points: tuple[complex, ...]
    method: str  # "escape-boundary" | "inverse-iteration" | "repelling-periodic"
    params: dict


@dataclass(frozen=True)
class EscapeResult:
    status: str  # "inside-filled" | "escaped" | "undecided"
    steps: int


def escape_membership(epsilon: complex, z: complex, budget: int) -> EscapeResult:
    """Bounded-orbit test for the filled Julia set of z**2 + epsilon.

    |z| > max(2, |eps|) implies |z**2 + eps| >= |z|**2 - |eps| > |z|,
    so radius R = max(2, |eps|) + 1 certifies escape.
    """
    if budget > ESCAPE_BUDGET_MAX:
        raise ConfigError(f"escape budget exceeds the configured max {ESCAPE_BUDGET_MAX}")
    if budget <= 0:
        return EscapeResult("undecided", 0)
    radius = max(2.0, abs(epsilon)) + 1.0
    w = z
    for n in range(budget + 1):
        if abs(w) > radius:
            return EscapeResult("escaped", n)
        w = w * w + epsilon
    return EscapeResult("inside-filled", budget)


def _starting_point(eps: complex) -> PeriodicPoint:
    """The distinguished fixed point (1 + sqrt(1 - 4 eps))/2, when it is
    repelling.  Its multiplier is at least the other fixed point's in
    modulus, so when it is not repelling neither fixed point is."""
    a = (1.0 + cmath.sqrt(1.0 - 4.0 * eps)) / 2.0
    for p in periodic_points(quadratic_map(eps), 1):
        if p.classification == "repelling" and abs(p.location - a) < 1e-6 * (1 + abs(a)):
            return p
    raise PreconditionError("inverse iteration needs a repelling fixed point")


def inverse_iteration_sample(
    epsilon: complex,
    n_points: int,
    depth: int,
    seed: int,
) -> JuliaSample:
    """Random backward orbits of z**2 + epsilon from its repelling
    fixed point a, pooled.

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
    start = _starting_point(eps)
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
    flat = [complex(z) for z in pts.reshape(-1)[: n_points]]
    flat.sort(key=lambda z: (z.real, z.imag))
    return JuliaSample(
        epsilon=eps,
        points=tuple(flat),
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


def repelling_sample(epsilon: complex, max_period: int) -> JuliaSample:
    """All repelling periodic points of z**2 + epsilon of period up to
    max_period."""
    if max_period < 1:
        raise ConfigError("max_period must be >= 1")
    eps = complex(epsilon)
    f = quadratic_map(eps)
    pts: list[complex] = []
    for period in range(1, max_period + 1):
        for p in periodic_points(f, period):
            if p.classification == "repelling":
                pts.append(p.location)
    pts.sort(key=lambda z: (z.real, z.imag))
    return JuliaSample(
        epsilon=eps,
        points=tuple(pts),
        method="repelling-periodic",
        params={"max_period": max_period},
    )
