"""Symbolic backward-orbit words of z**2 + epsilon and their realization.

A word fixes a finite prefix of inverse-branch choices at a repelling
fixed point a and continues with the deterministic tail rule: at each
deeper step take the preimage closest to a (ties broken toward the
largest imaginary part, then the largest real part).  Once the orbit
enters the certified disk D_sigma(a), the tail rule coincides with the
a-fixing inverse branch, so the word determines a unique backward orbit
converging to a.

Symbols '+'/'-' select the principal square root of (w - epsilon) and
its negative; '+' fixes a, the principal root of a - epsilon = a**2.
realize takes each step in one closed-form pass, and its tail rule
(_nearer) is the one nearest-preimage rule, shared with the cocycle
field.  Words exist for the quadratic family only (f'(z) = 2z, critical
point 0); RationalMap and the Aberth solver serve the --map commands
(fixed-points, classify, linearize, collinearity) instead.
"""

from __future__ import annotations

import cmath
import dataclasses
from dataclasses import dataclass

from .errors import (
    ConfigError,
    ConstructionError,
    DegenerateBranchError,
    DivergentWordError,
    DomainError,
    PreconditionError,
)
from .maps import RationalMap, quadratic_epsilon
from .periodic import PeriodicPoint

RESIDUAL_TOL = 1e-12
COLLISION_TOL = 1e-13
CRITICAL_PROXIMITY = 1e-8  # a point this close to the critical point 0 is a critical hit
RHO_SIGNAL_FLOOR = 1e-10  # distances below this are rounding noise, not signal
TAIL_CONFIRM = 8  # trailing in-disk steps required before the tail counts as settled
DIVERGENCE_GRACE = 60  # post-prefix depth allowed before a missing tail is an error


@dataclass(frozen=True)
class OrbitWord:
    """A symbolic backward orbit at a repelling fixed point."""

    map: RationalMap
    base: PeriodicPoint
    prefix: str
    sigma: float

    def __post_init__(self):
        if quadratic_epsilon(self.map) is None:
            raise ConfigError("orbit words are defined for the quadratic family z**2 + epsilon only")
        if self.base.period != 1:
            raise PreconditionError("orbit words are based at fixed points")
        if self.base.classification != "repelling":
            raise PreconditionError("orbit words are based at repelling fixed points")
        if not (self.sigma > 0.0):
            raise PreconditionError("sigma must be positive")
        bad = set(self.prefix) - set("+-")
        if bad:
            raise ConfigError(f"quadratic-family symbols are '+'/'-', got {bad}")

    def to_json(self) -> dict:
        eps = quadratic_epsilon(self.map)
        return {"epsilon": [eps.real, eps.imag], "prefix": self.prefix, "sigma": self.sigma}


@dataclass(frozen=True)
class RealizedOrbit:
    """A realized backward orbit: points[j] approximates y_{-j}."""

    word: OrbitWord
    depth: int
    points: tuple[complex, ...]
    choices: str
    entry_index: int | None  # first depth from which every point stays in the disk

    def tail_contraction(self) -> float | None:
        """Largest measured tail step ratio past entry, or None before entry."""
        if self.entry_index is None:
            return None
        return tail_contraction(self.points, self.word.base.location, self.entry_index)


def tail_contraction(pts, a: complex, entry: int) -> float | None:
    """Largest step ratio |p_{j+1} - a| / |p_j - a| from the entry index
    on, over steps still above the double-precision noise floor."""
    d = [abs(p - a) for p in pts]
    ratios = [d[j + 1] / d[j] for j in range(max(entry, 1), len(d) - 1) if d[j] > RHO_SIGNAL_FLOOR]
    return max(ratios) if ratios else None


def _nearer(s: complex, target: complex) -> bool:
    """True when s, not -s, is the preimage nearer the target (realize
    and cocycle_field share this rule).  A near-tie, distances within
    1e-12*(1+d), goes to the larger imaginary part, then real part."""
    dp, dm = abs(s - target), abs(-s - target)
    d = min(dp, dm)
    slack = d + 1e-12 * (1.0 + d)
    if dp <= slack and dm <= slack:
        return (s.imag, s.real) >= (-s.imag, -s.real)
    return dp < dm


def realize(word: OrbitWord, depth: int) -> RealizedOrbit:
    """Realize the word to the given depth in one pass.

    Each step takes s = sqrt(w - epsilon) once, picks its sign by the
    prefix symbol or the nearest-to-a tail rule, and is checked on the
    spot: colliding branches raise, and the residual |z*z + epsilon - w|
    must stay below 1e-12 (relative).  Once the orbit has had room to
    settle it must enter D_sigma(a) and contract monotonically, else the
    word is reported divergent.
    """
    prefix = word.prefix
    if depth < len(prefix):
        raise PreconditionError(
            f"depth {depth} is shorter than the prefix ({len(prefix)} symbols)"
        )
    eps = quadratic_epsilon(word.map)
    a = word.base.location
    pts: list[complex] = [a]
    choices: list[str] = []
    w = a
    for j in range(depth):
        s = cmath.sqrt(w - eps)
        if 2.0 * abs(s) < COLLISION_TOL * max(1.0, abs(s)):
            raise DegenerateBranchError(
                f"inverse branches collide at depth {j + 1}: both preimages of"
                f" {w!r} coincide at {s!r}"
            )
        plus = prefix[j] == "+" if j < len(prefix) else _nearer(s, a)
        z = s if plus else -s
        res = abs(z * z + eps - w)
        if res > RESIDUAL_TOL * max(1.0, abs(w)):
            raise ConstructionError(
                f"backward step at depth {j + 1} fails the residual check:"
                f" {res:.3e}"
            )
        pts.append(z)
        choices.append("+" if plus else "-")
        w = z
    entry = _entry_index(pts, a, word.sigma)
    if entry is None and depth - len(prefix) >= DIVERGENCE_GRACE:
        raise DivergentWordError(
            f"tail did not settle into the sigma-disk within depth {depth}"
        )
    if entry is not None:
        _check_tail_monotone(pts, a, entry, depth)
    return RealizedOrbit(word, depth, tuple(pts), "".join(choices), entry)


def _entry_index(pts, a, sigma) -> int | None:
    last_outside = -1
    for j, p in enumerate(pts):
        if abs(p - a) >= sigma:
            last_outside = j
    entry = last_outside + 1
    if len(pts) - entry < TAIL_CONFIRM + 1:
        return None
    return entry


def _check_tail_monotone(pts, a, entry, depth):
    for j in range(max(entry, 1), depth):
        d0, d1 = abs(pts[j] - a), abs(pts[j + 1] - a)
        if d1 > max(d0 * (1.0 + 1e-9), 1e-14):
            raise DivergentWordError(
                f"in-disk tail fails to contract at depth {j + 1}:"
                f" {d0:.3e} -> {d1:.3e}"
            )


@dataclass(frozen=True)
class PiMembership:
    member: bool
    reason: str  # "ok" | "fixed-orbit" | "critical-hit" | "no-tail-convergence"


def is_in_Pi_a(word: OrbitWord, depth: int) -> PiMembership:
    """Does the word define an admissible backward orbit distinct from
    the fixed orbit, avoiding critical points, with a convergent tail?

    The all-principal word realizes the constant orbit at a and is
    excluded.  A realized point within 1e-8 of the critical point 0 (or
    a branch collision while realizing, which is the same event seen one
    step earlier) rejects with reason "critical-hit".
    """
    try:
        orb = realize(word, depth)
    except DegenerateBranchError:
        return PiMembership(False, "critical-hit")
    except DivergentWordError:
        return PiMembership(False, "no-tail-convergence")
    a = word.base.location
    scale = 1.0 + abs(a)
    if all(abs(p - a) <= 1e-12 * scale for p in orb.points):
        return PiMembership(False, "fixed-orbit")
    if any(abs(p) <= CRITICAL_PROXIMITY for p in orb.points):
        return PiMembership(False, "critical-hit")
    if orb.entry_index is None:
        return PiMembership(False, "no-tail-convergence")
    return PiMembership(True, "ok")


def shift(word: OrbitWord, n: int) -> OrbitWord:
    """Shift the word n steps (positive: deeper, prepending principal
    symbols; negative: toward the root, which must only consume
    principal symbols or the shifted word would leave the leaf of a)."""
    if n == 0:
        return word
    if n > 0:
        return dataclasses.replace(word, prefix="+" * n + word.prefix)
    k = -n
    head = word.prefix[:k]
    if any(s != "+" for s in head):
        raise DomainError(
            "negative shift consumes a non-principal symbol; the shifted"
            " word would not stay in the leaf of a"
        )
    return dataclasses.replace(word, prefix=word.prefix[k:])


def fixed_word(word: OrbitWord) -> OrbitWord:
    """The all-principal word over the same base (realizes the fixed orbit)."""
    return dataclasses.replace(word, prefix="")


def concatenate(y: OrbitWord, c: OrbitWord, junction_depth: int) -> OrbitWord:
    """Graft c onto y at a depth where y has already settled at a.

    The new word replays y's realized choices through the junction and
    then follows c's prefix; because y is in the disk at the junction,
    the grafted branches track c's orbit.  Requires both words to share
    the base and the junction to sit at or past y's entry index.
    """
    if y.map != c.map or y.sigma != c.sigma or y.base.location != c.base.location:
        raise PreconditionError("concatenation requires words over the same base")
    if junction_depth < 0:
        raise PreconditionError("junction depth must be nonnegative")
    probe_depth = max(junction_depth, len(y.prefix)) + TAIL_CONFIRM + 1
    orb = realize(y, probe_depth)
    if orb.entry_index is None or orb.entry_index > junction_depth:
        raise PreconditionError(
            f"junction depth {junction_depth} is above y's certified entry"
            f" index ({orb.entry_index})"
        )
    new = dataclasses.replace(y, prefix=orb.choices[:junction_depth] + c.prefix)
    check_depth = junction_depth + len(c.prefix) + DIVERGENCE_GRACE + TAIL_CONFIRM
    mem = is_in_Pi_a(new, check_depth)
    if not mem.member:
        raise DomainError(f"concatenated word fails membership: {mem.reason}")
    return new
