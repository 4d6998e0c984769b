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
field.  A tail step depends on its input point alone, so once a step
returns its input bit for bit every later step would too: realize fills
such a stationary tail to the depth instead of stepping it, which is
bitwise exact.  A realization carries each point's distance |p - a|
(RealizedOrbit.dists), computed once by the step that made the point and
read by the membership check and the series engine.  Each step also
records the facts the closing checks read, as sorted index tuples: the
points outside the disk, the rises of the distance (where the tail
fails to contract) and the points within CRITICAL_PROXIMITY of the
critical point 0.  The closing checks answer from these by bisection.
A word carries the parameter epsilon itself, the map's only handle
(f'(z) = 2z, critical point 0).

A word is realized once and then extended: realize continues a
shallower realization of the word and cuts a deeper one back
(RealizedOrbit.at), each bitwise equal to realizing from scratch because
the steps are deterministic.  A cut slices the recorded facts and a
continuation appends those of its new points, so either one checks
only what it changes.  A RealizedOrbit reads like its word, so
the membership check, concatenation, the series engine and the
excursion count take realizations and pass them on.

realize_batch realizes many words from scratch at once, stepping them
in lockstep as numpy rows, for sample_words' membership checks, its
only caller.  It does CPython's arithmetic in numpy (cmath.sqrt's own
formula over real hypot and sqrt, every |.| as hypot of the parts, z*z
from the real parts), so a row it closes is realize's realization bit
for bit; a row whose steps are not clear of a near-tie, a collision,
the critical point or the residual tolerance by a wide margin goes back
to realize as its word.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import (
    ConfigError,
    ConstructionError,
    DegenerateBranchError,
    DivergentWordError,
    DomainError,
    PreconditionError,
)

if TYPE_CHECKING:
    from .periodic import PeriodicPoint

RESIDUAL_TOL = 1e-12
COLLISION_TOL = 1e-13
CRITICAL_PROXIMITY = 1e-8  # a point this close to the critical point 0 is a critical hit
RHO_SIGNAL_FLOOR = 1e-10  # distances below this are rounding noise, not signal
TAIL_CONFIRM = 8  # trailing in-disk steps required before the tail counts as settled
DIVERGENCE_GRACE = 60  # post-prefix depth allowed before a missing tail is an error


@dataclass(frozen=True)
class OrbitWord:
    """A symbolic backward orbit of z**2 + epsilon at a repelling fixed point."""

    epsilon: complex
    base: PeriodicPoint
    prefix: str
    sigma: float

    def __post_init__(self):
        eps = complex(self.epsilon)
        if not (math.isfinite(eps.real) and math.isfinite(eps.imag)):  # realize's checks pass a NaN orbit
            raise ConstructionError("epsilon must be finite")
        if self.base.period != 1:
            raise PreconditionError("orbit words are based at fixed points")
        if self.base.classification != "repelling":
            raise PreconditionError("orbit words are based at repelling fixed points")
        if not (self.sigma > 0.0):
            raise PreconditionError("sigma must be positive")
        bad = set(self.prefix) - set("+-")
        if bad:
            raise ConfigError(f"quadratic-family symbols are '+'/'-', got {bad}")

    @property
    def word(self) -> OrbitWord:
        """The word itself, as RealizedOrbit.word is its word."""
        return self

    def at(self, depth: int) -> RealizedOrbit:
        """The word's realization to the given depth (realize)."""
        return realize(self, depth)

    def to_json(self) -> dict:
        eps = self.epsilon
        return {"epsilon": [eps.real, eps.imag], "prefix": self.prefix, "sigma": self.sigma}


@dataclass(frozen=True)
class RealizedOrbit:
    """A realized backward orbit: points[j] approximates y_{-j}.

    It reads like its word (prefix, epsilon, base, sigma, at), so the
    functions that take a word take its realization as well, and
    continue or cut it rather than realize the word again.  Besides
    each point's distance to a, it carries the facts its steps
    recorded for the closing checks, each a sorted tuple of indices:
    outside, the j with dists[j] >= sigma (a NaN distance counts as
    inside); rises, the j >= 1 with dists[j+1] > dists[j]*(1 + 1e-9)
    and dists[j+1] > 1e-14; near_critical, the j with |points[j]| <=
    CRITICAL_PROXIMITY.
    """

    word: OrbitWord
    depth: int
    points: tuple[complex, ...]
    choices: str
    entry_index: int | None  # first depth from which every point stays in the disk
    dists: tuple[float, ...] = field(repr=False, compare=False)  # |p - a| for each point
    outside: tuple[int, ...] = field(repr=False, compare=False)
    rises: tuple[int, ...] = field(repr=False, compare=False)
    near_critical: tuple[int, ...] = field(repr=False, compare=False)

    prefix = property(lambda self: self.word.prefix)
    epsilon = property(lambda self: self.word.epsilon)
    base = property(lambda self: self.word.base)
    sigma = property(lambda self: self.word.sigma)

    def at(self, depth: int) -> RealizedOrbit:
        """The word's realization to the given depth: this one continued
        (realize) when deeper, cut back when shallower.  A cut keeps the
        recorded facts up to the depth and closes the shorter orbit with
        them, so either way the result, or the error, is that of
        realize(word, depth)."""
        if depth > self.depth:
            return realize(self, depth)
        if depth == self.depth:
            return self
        _check_depth(self.word, depth)
        end = depth + 1
        return _settle(
            self.word,
            depth,
            self.points[:end],
            self.choices[:depth],
            self.dists[:end],
            self.outside[: bisect_right(self.outside, depth)],
            self.rises[: bisect_left(self.rises, depth)],  # a rise at j reads dists[j + 1]
            self.near_critical[: bisect_right(self.near_critical, depth)],
        )


def tail_contraction(dists, entry: int) -> float | None:
    """Largest step ratio |p_{j+1} - a| / |p_j - a| from the entry index
    on, over steps still above the double-precision noise floor; dists
    holds the distances |p_j - a|."""
    steps = range(max(entry, 1), len(dists) - 1)
    return max((dists[j + 1] / dists[j] for j in steps if dists[j] > RHO_SIGNAL_FLOOR), default=None)


def _nearer(s: complex, target: complex) -> tuple[complex, float, float]:
    """The preimage, s or -s, nearer the target, its distance to the
    target and the other one's (realize and cocycle_field share this
    rule).  A near-tie, distances within 1e-12*(1+d), goes to the larger
    imaginary part, then real part."""
    m = -s
    dp, dm = abs(s - target), abs(m - target)
    d = dm if dm < dp else dp
    slack = d + 1e-12 * (1.0 + d)
    if dp <= slack and dm <= slack:
        plus = (s.imag, s.real) >= (m.imag, m.real)
    else:
        plus = dp < dm
    return (s, dp, dm) if plus else (m, dm, dp)


def _same_signs(z: complex, w: complex) -> bool:
    """The parts of z and w have equal signs, zeros included: with
    z == w, which takes -0.0 for 0.0, z and w are the same bit for bit."""
    return (
        math.copysign(1.0, z.real) == math.copysign(1.0, w.real)
        and math.copysign(1.0, z.imag) == math.copysign(1.0, w.imag)
    )


def _check_depth(word: OrbitWord, depth: int) -> None:
    if depth < len(word.prefix):
        raise PreconditionError(
            f"depth {depth} is shorter than the prefix ({len(word.prefix)} symbols)"
        )


def realize(word: OrbitWord | RealizedOrbit, depth: int) -> RealizedOrbit:
    """Realize the word to the given depth in one pass.

    Each step takes s = sqrt(w - epsilon) once, picks its sign by the
    prefix symbol or the nearest-to-a tail rule, and is checked on the
    spot: colliding branches raise, and the residual |z*z + epsilon - w|
    must stay below 1e-12 (relative).  Once the orbit has had room to
    settle it must enter D_sigma(a) and contract monotonically, else the
    word is reported divergent.

    Once a tail step returns its input point bit for bit, the rest of
    the orbit is that point: a tail step depends on its input alone, so
    every later step would return it again, with the same choice,
    distance and checks passed.  realize fills such a stationary tail
    instead of stepping it.  Each point's distance to a comes from the
    step that made it (the tail rule measures it) and is carried on the
    realization as dists, with the facts the step recorded for the
    closing checks (RealizedOrbit); a filled tail records its filled
    range, which has no rise.

    Given a realization no deeper than depth, the pass continues from
    its last point instead of starting over, and appends the facts of
    its new points to the recorded ones; a deeper realization is cut
    back (RealizedOrbit.at), with no step taken.  The steps are
    deterministic, so the result, or the error raised, is bitwise that
    of realizing from scratch.  A realization stands for its word, so
    RealizedOrbit.word is always an OrbitWord.  realize_batch takes the
    same steps for many words at once in numpy, bitwise equal; the rows
    it hands back, and every error, come from here.
    """
    if isinstance(word, RealizedOrbit) and word.depth > depth:
        return word.at(depth)
    start = word if isinstance(word, RealizedOrbit) else None
    word = word.word
    _check_depth(word, depth)
    prefix = word.prefix
    eps = word.epsilon
    a = word.base.location
    sigma = word.sigma
    if start is None:
        pts, choices, dists = [a], [], [0.0]
        outside, rises, near = [], [], []  # a is in the disk, and |a| > 1/2 as a is repelling
    else:
        pts, choices, dists = list(start.points), list(start.choices), list(start.dists)
        outside, rises, near = list(start.outside), list(start.rises), list(start.near_critical)
    n = len(prefix)
    w = pts[-1]
    rw = abs(w)
    dw = dists[-1]
    for j in range(len(choices), depth):
        s = cmath.sqrt(w - eps)
        r = abs(s)  # also |z|, the next step's |w|
        if 2.0 * r < COLLISION_TOL * (r if r > 1.0 else 1.0):
            raise DegenerateBranchError(
                f"inverse branches collide at depth {j + 1}: both preimages of"
                f" {w!r} coincide at {s!r}"
            )
        if j < n:
            plus = prefix[j] == "+"
            z = s if plus else -s
            dz = abs(z - a)
        else:
            z, dz, _ = _nearer(s, a)
            plus = z == s  # s != -s: the collision check passed
        res = abs(z * z + eps - w)
        if res > RESIDUAL_TOL * (rw if rw > 1.0 else 1.0):
            raise ConstructionError(
                f"backward step at depth {j + 1} fails the residual check:"
                f" {res:.3e}"
            )
        pts.append(z)
        choices.append("+" if plus else "-")
        dists.append(dz)
        if dz >= sigma:
            outside.append(j + 1)
        if j >= 1 and dz > dw * (1.0 + 1e-9) and dz > 1e-14:
            rises.append(j)
        if r <= CRITICAL_PROXIMITY:
            near.append(j + 1)
        if j >= n and z == w and _same_signs(z, w):
            rest = depth - j - 1
            pts.extend([z] * rest)
            choices.append(choices[-1] * rest)
            dists.extend([dz] * rest)
            filled = range(j + 2, depth + 1)
            if dz >= sigma:
                outside.extend(filled)
            if r <= CRITICAL_PROXIMITY:
                near.extend(filled)
            break
        w, rw, dw = z, r, dz
    return _settle(
        word, depth, tuple(pts), "".join(choices), tuple(dists), tuple(outside), tuple(rises), tuple(near)
    )


def realize_batch(words: list[OrbitWord], depths: list[int]) -> list[RealizedOrbit | OrbitWord]:
    """Realize each word from scratch to its depth, the words stepped in
    lockstep as the rows of numpy arrays; quadratic.sample_words is the
    caller.

    Each row comes back either as the RealizedOrbit that
    realize(word, depth) returns, bit for bit, or as the word itself, for
    realize to realize.  So a word keeps one representation, one set of
    closing checks (_settle) and one source for each error.

    Bitwise equality rests on doing CPython's arithmetic in numpy:
    - the root is cmath.sqrt's own formula (CPython's cmathmodule.c) over
      real np.hypot and np.sqrt.  np.sqrt of a complex array differs
      from cmath.sqrt when a part is subnormal, which tails at real
      parameters reach some 600 steps deep;
    - each |.| is np.hypot of the parts, as abs(complex) is; np.abs of a
      complex array differs from it;
    - z*z in the residual is formed from the real parts as CPython forms
      it; numpy's complex multiply differs.

    Only the root and its sign are taken step by step: the prefix symbol,
    or past the prefix the sign that makes p.a > 0 for the new point p
    (the preimage nearer a).  All steps are then checked at once.  A row
    is closed only when each of its steps has realize's outcome by a wide
    margin, and is handed back otherwise:
    - past the prefix, p.a > 1e-11 (1 + |p|**2 + |a|**2): _nearer takes
      p, and not by a near-tie;
    - |p|**2 > 10 CRITICAL_PROXIMITY**2: the branches do not collide
      and p is not within CRITICAL_PROXIMITY of 0, so a closed row has no
      near_critical point;
    - the residual is at most half of RESIDUAL_TOL.
    A NaN fails all three.  Once every row's step returns its input bit
    for bit (looked at every 8 steps), the rest is filled, as realize
    fills a stationary tail.  numpy is imported here, so importing this
    module loads no numpy.
    """
    import numpy as np

    if not words:
        return []
    for word, depth in zip(words, depths):
        _check_depth(word, depth)
    rows, steps = len(words), max(depths)
    longest = max(len(w.prefix) for w in words)
    # real parts in row 0 and imaginary parts in row 1, so one call takes both
    eps = np.array([[complex(w.epsilon).real for w in words], [complex(w.epsilon).imag for w in words]])
    a = np.array([[w.base.location.real for w in words], [w.base.location.imag for w in words]])
    # the prefix symbols as a sign bias: +inf for '+', -inf for '-', 0 past the prefix
    bias = np.zeros((longest, rows))
    for i, w in enumerate(words):
        bias[: len(w.prefix), i] = [math.inf if c == "+" else -math.inf for c in w.prefix]
    pts = np.empty((steps + 1, 2, rows))  # pts[j] holds point j of every row
    pts[0] = a
    sign = np.empty((steps, rows))  # 1.0 where the step took s, -1.0 where -s
    # buffers, and views of their parts made once (positional out= throughout)
    z, x, x8, alt, prod = (np.empty((2, rows)) for _ in range(5))
    t, dot, left = np.empty(rows), np.empty(rows), np.empty(rows, bool)
    (z0, z1), (x0, x1), (x80, x81), (alt0, alt1), (prod0, prod1) = z, x, x8, alt, prod
    z[...] = a
    with np.errstate(all="ignore"):  # a row that fails its checks may overflow or turn NaN
        for j in range(steps):
            # s = cmath.sqrt(z - eps) for finite nonzero z - eps (with both
            # parts below DBL_MIN, where cmath rescales, |s| < 1e-153 and
            # the row fails its checks): with x = z - eps, t = sqrt(|x.real|/8
            # + hypot(x.real/8, x.imag/8)), s = (2t, x.imag/4t), or when
            # x.real < 0, (|x.imag/4t|, 2t with the sign of x.imag)
            np.subtract(z, eps, x)
            np.multiply(x, 0.125, x8)
            np.abs(x8, x8)
            np.hypot(x80, x81, t)
            np.add(t, x80, t)
            np.sqrt(t, t)
            np.multiply(t, 2.0, z0)
            np.multiply(t, 4.0, t)
            np.divide(x1, t, z1)
            np.less(x0, 0.0, left)
            np.abs(z1, alt0)
            np.copysign(z0, x1, alt1)
            np.copyto(z, alt, where=left)
            # the sign: the prefix symbol, or the sign of s.a, the preimage nearer a
            np.multiply(z, a, prod)
            np.add(prod0, prod1, dot)
            if j < longest:
                np.add(dot, bias[j], dot)
            np.copysign(1.0, dot, sign[j])
            np.multiply(z, sign[j], z)
            pts[j + 1] = z
            if j >= longest and j % 8 == 0 and (z.view(np.int64) == pts[j].view(np.int64)).all():
                pts[j + 2 :] = z
                sign[j + 1 :] = sign[j]
                break
    index, last = np.arange(steps + 1)[:, None], np.array(depths)  # last: each row's last point
    zr, zi = pts[:, 0], pts[:, 1]
    with np.errstate(all="ignore"):
        square = zr * zr
        zz = zr * zi
        res_r = square[1:] - zi[1:] * zi[1:] + eps[0] - zr[:-1]
        res_i = zz[1:] + zz[1:] + eps[1] - zi[:-1]
        square += zi * zi  # |p|^2
        # the checks of the step that made point k, for k = 1 .. steps
        clear = square[1:] > 10 * CRITICAL_PROXIMITY**2
        clear &= res_r * res_r + res_i * res_i <= (RESIDUAL_TOL / 2) ** 2
        margin = zr[1:] * a[0] + zi[1:] * a[1] > 1e-11 * (1.0 + square[1:] + (a * a).sum(axis=0))
        k = index[1:]
        clear &= margin | (k <= np.array([len(w.prefix) for w in words]))  # a prefix step takes its symbol
    failed = (~clear & (k <= last)).any(axis=0).tolist()
    dists = np.hypot(zr - a[0], zi - a[1])
    rises = np.zeros((steps + 1, rows), bool)  # a rise at j reads dists[j + 1]
    rises[1:-1] = (dists[2:] > dists[1:-1] * (1.0 + 1e-9)) & (dists[2:] > 1e-14)

    def by_row(mask):
        """For each row i, the sorted indices j with mask[j, i]."""
        i, j = np.nonzero(mask.T)
        ends = np.cumsum(np.bincount(i, minlength=rows)).tolist()
        j = j.tolist()
        return [tuple(j[b:e]) for b, e in zip([0] + ends[:-1], ends)]

    outside = by_row((dists >= np.array([w.sigma for w in words])) & (index <= last))
    rises = by_row(rises & (index < last))
    points = np.empty((rows, steps + 1), complex)
    points.real, points.imag = zr.T, zi.T
    points, dists = points.tolist(), dists.T.tolist()
    choices = np.where(sign.T < 0.0, ord("-"), ord("+")).astype(np.uint8).tobytes().decode()
    out: list[RealizedOrbit | OrbitWord] = []
    for i, (word, depth) in enumerate(zip(words, depths)):
        if failed[i]:
            out.append(word)
            continue
        end = depth + 1
        try:
            orb = _settle(
                word,
                depth,
                tuple(points[i][:end]),
                choices[i * steps : i * steps + depth],
                tuple(dists[i][:end]),
                outside[i],
                rises[i],
                (),
            )
        except DivergentWordError:
            out.append(word)
        else:
            out.append(orb)
    return out


def _settle(
    word: OrbitWord,
    depth: int,
    pts: tuple[complex, ...],
    choices: str,
    dists: tuple[float, ...],
    outside: tuple[int, ...],
    rises: tuple[int, ...],
    near_critical: tuple[int, ...],
) -> RealizedOrbit:
    """The checks that close a realization, answered from the facts its
    steps recorded: the tail must have entered the disk once it had room
    to, and contract from the entry on (no rise at or past max(entry, 1))."""
    entry = _entry_index(outside, depth + 1)
    if entry is None and depth - len(word.prefix) >= DIVERGENCE_GRACE:
        raise DivergentWordError(
            f"tail did not settle into the sigma-disk within depth {depth}"
        )
    if entry is not None:
        i = bisect_left(rises, max(entry, 1))
        if i < len(rises):
            j = rises[i]
            raise DivergentWordError(
                f"in-disk tail fails to contract at depth {j + 1}:"
                f" {dists[j]:.3e} -> {dists[j + 1]:.3e}"
            )
    return RealizedOrbit(word, depth, pts, choices, entry, dists, outside, rises, near_critical)


def _entry_index(outside, n: int) -> int | None:
    """First index past the last point outside the disk, given the
    sorted indices outside of a sequence of n points, or None when fewer
    than TAIL_CONFIRM + 1 points confirm it."""
    entry = outside[-1] + 1 if outside else 0
    return entry if n - entry >= TAIL_CONFIRM + 1 else None


@dataclass(frozen=True)
class PiMembership:
    member: bool
    reason: str  # "ok" | "fixed-orbit" | "critical-hit" | "no-tail-convergence"
    orbit: RealizedOrbit | None = field(default=None, repr=False, compare=False)  # the realization checked


def is_in_Pi_a(word: OrbitWord | RealizedOrbit, depth: int) -> PiMembership:
    """Does the word define an admissible backward orbit distinct from
    the fixed orbit, avoiding critical points, with a convergent tail?

    The all-principal word realizes the constant orbit at a and is
    excluded.  A realized point within 1e-8 of the critical point 0 (or
    a branch collision while realizing, which is the same event seen one
    step earlier) rejects with reason "critical-hit".  The verdict
    carries the realization it checked, for callers to continue.
    """
    try:
        orb = word.at(depth)
    except DegenerateBranchError:
        return PiMembership(False, "critical-hit")
    except DivergentWordError:
        return PiMembership(False, "no-tail-convergence")
    scale = 1.0 + abs(word.base.location)
    if all(d <= 1e-12 * scale for d in orb.dists):
        return PiMembership(False, "fixed-orbit", orb)
    if orb.near_critical:
        return PiMembership(False, "critical-hit", orb)
    if orb.entry_index is None:
        return PiMembership(False, "no-tail-convergence", orb)
    return PiMembership(True, "ok", orb)


def shift(word: OrbitWord | RealizedOrbit, n: int) -> OrbitWord:
    """Shift the word n steps (positive: deeper, prepending principal
    symbols; negative: toward the root, which must only consume
    principal symbols or the shifted word would leave the leaf of a)."""
    word = word.word
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


def fixed_word(word: OrbitWord | RealizedOrbit) -> OrbitWord:
    """The all-principal word over the same base (realizes the fixed orbit)."""
    return dataclasses.replace(word.word, prefix="")


def concatenate(
    y: OrbitWord | RealizedOrbit, c: OrbitWord | RealizedOrbit, junction_depth: int
) -> RealizedOrbit:
    """Graft c onto y at a depth where y has already settled at a.

    The new word replays y's realized choices through the junction and
    then follows c's prefix; because y is in the disk at the junction,
    the grafted branches track c's orbit.  Requires both words to share
    the base and the junction to sit at or past y's entry index.  A
    realized y is cut back, not realized again; the new word comes with
    the realization its membership check made.
    """
    if y.epsilon != c.epsilon or y.sigma != c.sigma or y.base.location != c.base.location:
        raise PreconditionError("concatenation requires words over the same base")
    if junction_depth < 0:
        raise PreconditionError("junction depth must be nonnegative")
    probe = y.at(max(junction_depth, len(y.prefix)) + TAIL_CONFIRM + 1)
    if probe.entry_index is None or probe.entry_index > junction_depth:
        # the probe can stop short of confirming an entry; at the divergence
        # grace past the prefix a realization either confirms one or raises
        confirm = max(probe.depth, len(y.prefix) + DIVERGENCE_GRACE + TAIL_CONFIRM)
        raise PreconditionError(
            f"junction depth {junction_depth} is above y's certified entry"
            f" index ({y.at(confirm).entry_index})"
        )
    new = dataclasses.replace(y.word, prefix=probe.choices[:junction_depth] + c.prefix)
    check_depth = junction_depth + len(c.prefix) + DIVERGENCE_GRACE + TAIL_CONFIRM
    mem = is_in_Pi_a(new, check_depth)
    if not mem.member:
        raise DomainError(f"concatenated word fails membership: {mem.reason}")
    return mem.orbit
