"""Periodic points, multiplier classification, and Koenigs linearization
for f = z**2 + eps, each taking the parameter eps, and the distinguished
fixed point a(eps) = (1 + sqrt(1 - 4 eps))/2 that every layer's backward
orbits, Julia samples and linearizers start from: fixed_point_a is its
closed form, and base_point the PeriodicPoint polished from it, cached
per parameter.

The periodic points of period p are the roots of f^p(z) - z, found in
one of two regimes, chosen from eps (_family_periodic_roots).  At a real
eps where the inverse branches +-sqrt(w - eps) are proved to contract
[-beta, beta], beta = 1/2 + sqrt(1/4 + |eps|), the bound on the Julia
set (paper, Lemma 5.2), by q = 1/(2 sqrt(-eps - beta)) < 1, which holds
for eps < -2.368... (the Julia set is then a Cantor set in that
interval): the roots are the fixed points of the 2**p compositions of
the branches, one per sign word, all found in one numpy pass of a step
count fixed in advance from q.  Each composition is a contraction with
exactly one fixed point, and the two branch images are disjoint, so the
2**p points are distinct: every root, each simple, a count proved, not
tested.  q is computed rounded up (math.nextafter after each operation),
so rounding cannot admit an eps where the proof fails
(_branch_contraction); nearest -2.368..., where the step count would
pass MAX_BRANCH_STEPS, the regime is not taken.

Everywhere else the roots come from an Aberth-Ehrlich simultaneous
iteration whose Newton ratio is computed by iterating f p times, without
expanding the degree-2**p polynomial, starting from the 2**p preimages
under f^p of one point outside the filled Julia set (_aberth_roots).  A
root that is not finite, or whose residual is above tolerance, is a
RootFindingError.  The solver makes only the numpy calls its arithmetic
needs: the Newton ratio's walk is tested for escaping points once, at
its end (_iterated_newton), and the roots are clustered in one array
pass unless two lie within the merge radius (_cluster).  Period 1 needs
no solve: its roots are (1 +- sqrt(1 - 4 eps))/2, a(eps) as
fixed_point_a forms it, so the polished a is base_point's bit for bit,
and a real eps gives real fixed points.  Preimages are +-sqrt(w - eps)
in closed form.  The roots and their multiplicities are handed on as
arrays.

The roots of one period are then filtered by minimal period and
polished by Newton on f^p(z) - z together, as the rows of float arrays
(_polish; make_periodic_point is its one-row call): each Newton step and
the validation take f^p(z) and the multiplier (f^p)'(z) from one walk of
the cycle, and each row stops on its own.  In the branch regime two
points that polish to one are a ConstructionError.  The array passes
are CPython's complex arithmetic written out on the real and imaginary
parts, so every point and multiplier is bit for bit what the same steps
on Python complex numbers give, f(z) as z*z + eps and f'(z) as 2*z on
the parts; numpy's complex multiply, divide and abs round differently.

The Koenigs linearizer phi at a repelling fixed point a is its Schroeder
series (Linearizer), summed on a disk that the a-fixing inverse branch
maps into itself.  build_linearizer decides the disk by that branch's
maximum over it in closed form, rounded outward.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    PreconditionError,
    RootFindingError,
)

SUPERATTRACTING_TOL = 1e-9
PARABOLIC_TOL = 1e-8
PARABOLIC_ORDER_BOUND = 64
ROOT_RESIDUAL_TOL = 1e-9
ABERTH_MAX_ITER = 300
CLUSTER_REL_TOL = 1e-6  # roots this close (relative) merge into one of higher multiplicity
# Largest period solved for z**2 + eps.  Aberth holds one n x n complex
# buffer of pairwise differences for the n = 2**p roots: 4**p entries,
# 16 MiB at p = 10 but 256 MiB at p = 12.
MAX_FAMILY_PERIOD = 10
# Most steps of the branch words' fixed-point pass (_branch_steps), about
# 37 / -ln q for the contraction bound q: it takes q up to 0.991, eps below
# about -2.3746.  Nearer q = 1 the count grows without bound, and the Aberth
# solve is taken there.
MAX_BRANCH_STEPS = 4096
# Orbit points beyond this modulus are not iterated further: there the
# Newton ratio of f^p(z) - z is finished in closed form, so nothing
# overflows (see _iterated_newton).
ESCAPE_MODULUS = 1e30
NODE_BUDGET = 65536  # largest preimage tree the collinearity check enumerates
LIST_MEMBER_TOL = 1e-12


# ---------------------------------------------------------------------------
# root solver


def _aberth(z: np.ndarray, newton) -> np.ndarray:
    """Aberth-Ehrlich iteration from the start points z, then a Newton
    polish.  newton(z) gives the numerator and the denominator of the
    Newton ratio at every point (the function and its derivative).

    Each iteration makes only the arrays its arithmetic needs.  The Aberth
    sums, over j != i of 1/(z_i - z_j), are made in one n x n buffer per
    call: each iteration writes -z_j into every row and adds z_i (IEEE
    makes z_i + (-z_j) the difference z_i - z_j, bit for bit), sets the
    diagonal, a strided view, to inf (whose reciprocal is 0), takes the
    reciprocals in place and sums each row.  The zero guards on the two
    divisors are taken only where a divisor is 0, and the step is written
    over the Newton ratio's array.  The products stay w * s: numpy's
    complex multiply is not bitwise commutative."""
    tiny = 1e-300
    n = len(z)
    buf = np.empty((n, n), complex)
    diagonal = buf.reshape(-1)[:: n + 1]
    z = z.copy()
    for _ in range(ABERTH_MAX_ITER):
        p, dp = newton(z)
        if not dp.all():
            dp = np.where(dp == 0, tiny, dp)
        w = p / dp
        buf[:] = -z
        buf += z[:, None]
        diagonal[:] = np.inf
        np.divide(1.0, buf, out=buf)
        s = buf.sum(axis=1)
        denom = np.subtract(1.0, np.multiply(w, s, out=s), out=s)
        if not denom.all():
            denom = np.where(denom == 0, tiny, denom)
        step = np.divide(w, denom, out=w)
        z -= step
        if np.abs(step).max() < 1e-14 * (1.0 + np.abs(z).max()):
            break
    for _ in range(4):  # Newton polish
        p, dp = newton(z)
        mask = np.abs(dp) > tiny
        z = np.where(mask, z - p / np.where(mask, dp, 1.0), z)
    return z


def _cluster(roots: np.ndarray | list[complex]) -> tuple[np.ndarray, np.ndarray]:
    """Merge each root with the later ones (by real part) within
    CLUSTER_REL_TOL * (1 + |z|) of it: the centres, a complex array, and
    their multiplicities.  |w - z| >= |w.real - z.real|, so the scan
    stops at the first root whose real part is beyond that radius.

    The usual case, where no two roots are that close, is one array pass:
    after a stable sort by (re, im), for k = 1, 2, ... each root whose
    scan still reaches the root k places on is tested against it, until
    no scan reaches that far.  If no pair is within its radius, every root
    is its own cluster, and its centre is the loop's sum([z]) / 1 on the
    parts: 0.0 + z (a -0.0 part turns 0.0), divided by 1 + 0j as CPython
    divides.  Otherwise _cluster_loop merges them."""
    z = np.asarray(roots, complex)
    order = np.lexsort((z.imag, z.real))
    re, im = z.real[order], z.imag[order]
    radius = CLUSTER_REL_TOL * (1.0 + np.hypot(re, im))
    for k in range(1, len(z)):
        i = np.flatnonzero(re[k:] - re[:-k] <= radius[:-k])
        if not len(i):
            break
        if (np.hypot(re[i + k] - re[i], im[i + k] - im[i]) <= radius[i]).any():
            return _cluster_loop(z.tolist())
    # CPython's division by 1 + 0j: ratio 0.0 and denominator 1.0, whose
    # division is exact
    ar, ai = 0.0 + re, 0.0 + im
    centres = np.empty(len(z), complex)
    centres.real, centres.imag = ar + ai * 0.0, ai - ar * 0.0
    return centres, np.ones(len(z), int)


def _cluster_loop(roots: list[complex]) -> tuple[np.ndarray, np.ndarray]:
    """_cluster's merging scan, one root at a time."""
    remaining = sorted(roots, key=lambda z: (z.real, z.imag))
    centres: list[complex] = []
    multiplicities: list[int] = []
    used = [False] * len(remaining)
    for i, z in enumerate(remaining):
        if used[i]:
            continue
        members = [z]
        used[i] = True
        radius = CLUSTER_REL_TOL * (1.0 + abs(z))
        for j in range(i + 1, len(remaining)):
            w = remaining[j]
            if w.real - z.real > radius:
                break
            if used[j]:
                continue
            if abs(w - z) <= radius:
                members.append(w)
                used[j] = True
        centres.append(sum(members) / len(members))
        multiplicities.append(len(members))
    return np.array(centres, complex), np.array(multiplicities, int)


# ---------------------------------------------------------------------------
# periodic points


@dataclass(frozen=True)
class PeriodicPoint:
    """A periodic point with its multiplier and stability class."""

    location: complex
    period: int
    multiplier: complex
    classification: str


def classify(multiplier: complex) -> str:
    """Stability class of a multiplier.

    superattracting: |m| < 1e-9; parabolic: m^q within 1e-8 of 1 for
    some q <= PARABOLIC_ORDER_BOUND; otherwise attracting / repelling by
    |m| against 1.  A unit-modulus multiplier that passes none of
    these is reported as indifferent (irrational rotation; outside
    the four exact classes, see docs).

    The powers are only tried when ||m| - 1| <= 2 * PARABOLIC_TOL.
    Otherwise |m^q| lies beyond 1 +- 2 * PARABOLIC_TOL for every q >= 1,
    on the same side as |m|, and the computed m^q, a product of at most
    64 factors, is off by a relative 1e-14 or so of rounding: it cannot
    come within PARABOLIC_TOL of 1.  A NaN multiplier fails the guard's
    test and still tries the powers; an infinite one skips them and is
    repelling either way.
    """
    m = complex(multiplier)
    if abs(m) < SUPERATTRACTING_TOL:
        return "superattracting"
    if not abs(abs(m) - 1.0) > 2.0 * PARABOLIC_TOL:
        power = m
        for _ in range(PARABOLIC_ORDER_BOUND):
            if abs(power - 1.0) < PARABOLIC_TOL:
                return "parabolic"
            power *= m
    if abs(m) < 1.0:
        return "attracting"
    if abs(m) > 1.0:
        return "repelling"
    return "indifferent"


def make_periodic_point(eps: complex, z: complex, period: int) -> PeriodicPoint:
    """Polish the candidate by Newton on f^period(z) - z, then validate:
    the one-row call of _polish."""
    if period < 1:
        raise ConfigError("period must be >= 1")
    z, m = _polish(eps, np.array([complex(z)]), period)
    z, m = complex(z[0]), complex(m[0])
    return PeriodicPoint(z, period, m, classify(m))


def fixed_point_a(epsilon: complex) -> complex:
    """(1 + sqrt(1 - 4 epsilon))/2 with the principal square root.

    For real epsilon < 1/4 this is the larger real fixed point; real
    epsilon >= 1/4 puts 1 - 4 epsilon on the closed negative axis where
    the branch is ill-defined (the fixed points collide or leave the
    real line), which is a domain error.
    """
    eps = complex(epsilon)
    w = 1.0 - 4.0 * eps
    if w.imag == 0.0 and w.real <= 0.0:
        raise DomainError(
            "1 - 4*epsilon lies on the negative real cut; no distinguished fixed point"
        )
    return (1.0 + cmath.sqrt(w)) / 2.0


@functools.lru_cache(maxsize=128)
def base_point(eps: complex) -> PeriodicPoint:
    """The distinguished fixed point a(eps) of z**2 + eps, polished."""
    return make_periodic_point(eps, fixed_point_a(eps), 1)


def periodic_points(eps: complex, period: int) -> list[PeriodicPoint]:
    """All finite points of exact period `period`, sorted by (re, im).

    Roots of f^period(z) - z (_family_periodic_roots); points whose
    minimal period is a proper divisor are discarded, and the rest
    polished together (_polish).  Where the roots are the branch words'
    fixed points, two that polish to one point are a ConstructionError.
    """
    if period < 1:
        raise ConfigError("period must be >= 1")
    z, _ = _family_periodic_roots(eps, period)
    z, m = _polish(eps, z[_exact_period(eps, z, period)], period)
    # a stable sort, so (re, im) ties, -0.0 against 0.0 among them, keep
    # the root order, as sorting on the key tuple keeps it
    order = np.lexsort((z.imag, z.real))
    z, m = z[order], m[order]
    if _branch_steps(eps, period) and ((z.real[1:] == z.real[:-1]) & (z.imag[1:] == z.imag[:-1])).any():
        # the branch words' fixed points are distinct (_branch_fixed_points),
        # so two rows that polish to one point lost a root
        raise ConstructionError(f"two period-{period} points polish to one point")
    return [
        PeriodicPoint(loc, period, mult, classify(mult))
        for loc, mult in zip(z.tolist(), m.tolist())
    ]


# The row passes: one candidate per row, its parts in two float arrays,
# each |.| np.hypot of the parts as abs(complex) is (module docstring).


def _evaluate_rows(eps: complex, zr: np.ndarray, zi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """z*z + eps per row."""
    return zr * zr - zi * zi + eps.real, zr * zi + zi * zr + eps.imag


def _walk_rows(eps: complex, zr: np.ndarray, zi: np.ndarray, period: int):
    """f^period(z) and the multiplier, the product of f'(f^j(z)) = 2 f^j(z)
    over j < period, per row: (wr, wi, mr, mi)."""
    mr, mi = np.ones_like(zr), np.zeros_like(zr)
    for _ in range(period):
        dr, di = 2.0 * zr, 2.0 * zi
        mr, mi = mr * dr - mi * di, mr * di + mi * dr
        zr, zi = _evaluate_rows(eps, zr, zi)
    return zr, zi, mr, mi


def _divide(ar, ai, br, bi) -> tuple[np.ndarray, np.ndarray]:
    """(a / b) per row by CPython 3.11's complex division (Smith's
    method).  Where b has a NaN part CPython returns NaN; the formula for
    |b.imag| > |b.real| is taken there, and its ratio b.real / b.imag is
    NaN, so it gives NaN too.  b = 0, where CPython raises, does not reach
    here: the polish divides by m - 1 only when |m - 1| >= 1e-8."""
    real_first = np.abs(br) >= np.abs(bi)
    ratio = np.where(real_first, bi / br, br / bi)
    denom = np.where(real_first, br + bi * ratio, br * ratio + bi)
    qr = np.where(real_first, (ar + ai * ratio) / denom, (ar * ratio + ai) / denom)
    qi = np.where(real_first, (ai - ar * ratio) / denom, (ai * ratio - ar) / denom)
    return qr, qi


def _polish(eps: complex, z: np.ndarray, period: int) -> tuple[np.ndarray, np.ndarray]:
    """Newton on f^period(z) - z for every candidate in z, then the
    residual check: the polished points and their multipliers, as complex
    arrays.

    Each row runs the scalar Newton polish on its own: before a step it
    stops at a parabolic point (|m - 1| < 1e-8, where Newton would blow
    up), after the walk once the step is below 1e-15 (1 + |z|), and after
    5 steps at the latest.  The walk of the cycle gives f^period(z) and
    the multiplier m together.  A row whose residual
    |f^period(z) - z| exceeds 1e-9 (1 + |z|), or is NaN, raises the
    ConstructionError of the first such row.
    """
    zr, zi = z.real.copy(), z.imag.copy()
    with np.errstate(all="ignore"):  # escaping or NaN rows overflow and turn NaN
        wr, wi, mr, mi = _walk_rows(eps, zr, zi, period)
        live = np.arange(len(zr))
        for _ in range(5):
            live = live[~(np.hypot(mr[live] - 1.0, mi[live]) < 1e-8)]
            if not len(live):
                break
            # (w - z) / (m - 1.0); the imaginary part of m - 1.0 is mi - 0.0, which is mi
            sr, si = _divide(wr[live] - zr[live], wi[live] - zi[live], mr[live] - 1.0, mi[live])
            zr[live], zi[live] = zr[live] - sr, zi[live] - si
            wr[live], wi[live], mr[live], mi[live] = _walk_rows(eps, zr[live], zi[live], period)
            live = live[~(np.hypot(sr, si) < 1e-15 * (1.0 + np.hypot(zr[live], zi[live])))]
        residual = np.hypot(wr - zr, wi - zi)
        bad = np.flatnonzero(~(residual <= 1e-9 * (1.0 + np.hypot(zr, zi))))
    if len(bad):
        raise ConstructionError(
            f"|f^{period}(z) - z| = {float(residual[bad[0]]):.3e}; not a period-{period} point"
        )
    points, multipliers = np.empty(len(zr), complex), np.empty(len(zr), complex)
    points.real, points.imag = zr, zi
    multipliers.real, multipliers.imag = mr, mi
    return points, multipliers


def _family_periodic_roots(eps: complex, period: int) -> tuple[np.ndarray, np.ndarray]:
    """The 2**period roots of f^period(z) - z for f = z**2 + eps: the
    distinct ones, a complex array, and their multiplicities.

    At period 1 these are (1 +- sqrt(1 - 4 eps))/2 in closed form,
    clustered, a RootFindingError where they are not finite.  From period
    2 up there are two regimes, chosen from eps:
    - at a real eps below -2.368..., where the inverse branches
      +-sqrt(w - eps) map [-beta, beta], beta = 1/2 + sqrt(1/4 + |eps|),
      into itself with a contraction bound q < 1, q rounded up so that
      rounding never admits an eps where it fails (_branch_contraction),
      and within MAX_BRANCH_STEPS steps (_branch_steps): the fixed points
      of the 2**period sign words in the branches, each word's
      composition a contraction with one fixed point, distinct for
      distinct words since the branch images are disjoint; so they are
      every root, each simple, and none is merged or solved for
      (_branch_fixed_points);
    - everywhere else: the Aberth solve's roots, clustered (_aberth_roots).
    """
    if period > MAX_FAMILY_PERIOD:
        raise ConfigError(f"period {period} exceeds {MAX_FAMILY_PERIOD} for z**2 + epsilon")
    if period == 1:
        # (1 +- sqrt(1 - 4 eps))/2, a(eps) formed as fixed_point_a forms it
        s = cmath.sqrt(1.0 - 4.0 * complex(eps))
        roots = [(1.0 + s) / 2.0, (1.0 - s) / 2.0]
        if not all(map(cmath.isfinite, roots)):  # from |eps| about 4.5e307 up
            raise RootFindingError(f"the fixed points {roots[0]} and {roots[1]} are not finite")
        return _cluster(roots)
    steps = _branch_steps(eps, period)
    if steps:
        return _branch_fixed_points(eps, period, steps), np.ones(2**period, int)
    return _aberth_roots(eps, period)


def _branch_steps(eps: complex, period: int) -> int:
    """How many branch steps _branch_fixed_points takes at this period, or
    0 where it is not taken: at period 1, where the contraction bound q is
    not proved below 1 (_branch_contraction), and where it needs more
    than MAX_BRANCH_STEPS steps.  From any start in [-beta, beta], n steps
    put a word's point within q**n beta of its fixed point, so the count
    is the least multiple of the period with q**n <= 2**-53."""
    q = _branch_contraction(eps)
    if period < 2 or not q < 1.0:
        return 0
    rounds = math.ceil(53.0 * math.log(2.0) / (-math.log(q) * period))
    return rounds * period if rounds * period <= MAX_BRANCH_STEPS else 0


def _branch_contraction(eps: complex) -> float:
    """An upper bound q on |g'| over [-beta, beta] for the inverse branches
    g(w) = +-sqrt(w - eps) of a real eps < -2, which then map the
    interval into itself; inf for any other eps.

    For real eps < -2 the filled Julia set lies in [-beta, beta],
    beta = 1/2 + sqrt(1/4 + |eps|) (the fixed point with beta**2 =
    beta - eps), and |g(w)| <= sqrt(beta - eps) = beta, with
    |g'(w)| = 1/(2 sqrt(w - eps)) <= q = 1/(2 sqrt(-eps - beta)).  beta is
    rounded up and q with it, each operation's result moved one float
    outward with math.nextafter, so the q returned is at least the exact
    one.  The exact q is below 1 for eps < -(5 + sqrt(20))/4 = -2.368...
    """
    if eps.imag != 0.0 or not eps.real < -2.0:
        return math.inf
    beta = _step(0.5 + _step(math.sqrt(_step(0.25 - eps.real, 1)), 1), 1)
    gap = _step(-eps.real - beta, -1)
    if not gap > 0.0:
        return math.inf
    return _step(0.5 / _step(math.sqrt(gap), -1), 1)


def _branch_fixed_points(eps: complex, period: int, steps: int) -> np.ndarray:
    """The fixed points of the 2**period compositions of the inverse
    branches +-sqrt(w - eps), real, as a complex array, for a real eps
    where _branch_steps proves that they contract.

    Row i applies, at step t, the branch whose sign is bit t mod period
    of i, from 0 for steps steps, all rows in one numpy pass: each step
    is w - eps and a square root over every row, and a negation of the
    rows whose bit is 1, a strided view.  Each branch maps [-beta, beta]
    into itself with contraction q < 1 (_branch_contraction), so each
    composition has exactly one fixed point there (Banach).  The two
    branch images lie on either side of 0, |g(w)| >= sqrt(-eps - beta)
    > 0, so the signs along a fixed point's cycle spell its word, and
    words that differ have distinct fixed points.  These 2**period points
    are fixed by f^period, whose degree is 2**period: they are all its
    roots, each simple.  The count is proved from eps, not tested on the
    result.
    """
    w = np.zeros(2**period)
    odd = [w.reshape(-1, 2, 2**k)[:, 1] for k in range(period)]  # rows with bit k set
    for _ in range(steps // period):
        for rows in odd:
            w -= eps.real
            np.sqrt(w, out=w)
            np.negative(rows, out=rows)
    return w.astype(complex)


def _aberth_roots(eps: complex, period: int) -> tuple[np.ndarray, np.ndarray]:
    """The roots of f^period(z) - z by an Aberth iteration, clustered.

    The Aberth iteration's Newton ratio is computed by iterating f
    (Schleicher & Stoll, "Newton's method in practice", Theor. Comput.
    Sci. 681 (2017)), so no coefficient of the degree-2**period
    polynomial is formed.  The start points are the 2**period preimages
    under f^period of the one point w0 = 1.05 R exp(0.4i),
    R = (1 + sqrt(1 + 4|eps|))/2, taken level by level as +-sqrt(w - eps).
    w0 lies outside the filled Julia set (|z| > R gives |f(z)| > |z|), so
    its preimages lie on an equipotential close to the Julia set, about
    one beside each root (Hubbard, Schleicher & Sutherland, Invent. Math.
    146 (2001)); from a circle around the filled Julia set each Aberth
    step moves a point only about 2|z| / 2**period.  The angle 0.4 keeps
    the start points of a real eps off the real axis and not symmetric
    under conjugation.  A root that is not finite, or whose residual
    |f^period(z) - z| / (1 + |z|) is above ROOT_RESIDUAL_TOL, is a
    RootFindingError.
    """
    newton = _iterated_newton(eps, period)
    radius = 1.05 * (1.0 + math.sqrt(1.0 + 4.0 * abs(eps))) / 2.0
    # from |eps| about 4.5e307 up the radius overflows and the points turn
    # NaN, which fails the residual check below
    with np.errstate(all="ignore"):
        z = np.array([radius * cmath.exp(0.4j)])
        for _ in range(period):
            s = np.sqrt(z - eps)
            z = np.concatenate([s, -s])
        z = _aberth(z, newton)
        residual, _ = newton(z)
        worst = float(np.max(np.abs(residual) / (1.0 + np.abs(z))))  # NaN fails below
    if not worst <= ROOT_RESIDUAL_TOL:
        raise RootFindingError(
            f"periodic-point residual {worst:.3e} exceeds tolerance {ROOT_RESIDUAL_TOL:.1e}"
        )
    return _cluster(z)


def _iterated_newton(eps: complex, period: int):
    """Newton numerator and denominator of f^period(z) - z for
    f = z**2 + eps: f^period(z) - z and (f^period)'(z) - 1, the
    derivative being the product of 2 f^j(z) over j < period.

    An orbit point z_j beyond ESCAPE_MODULUS is not iterated further:
    from there the ratio is z_j / ((f^j)'(z) 2**(period - j)) to a
    relative 1/ESCAPE_MODULUS, so that is returned and nothing overflows.

    The walk is first taken on the whole arrays, with the masked walk's
    arithmetic, and tested once, at its end.  With |eps| <= ESCAPE_MODULUS
    a point beyond ESCAPE_MODULUS at a step j < period stays beyond it,
    |z**2 + eps| >= |z|**2 - |eps|, or turns inf or NaN, which fails the
    test too.  So a walk that ends with every point within ESCAPE_MODULUS
    took, at every step, the whole-array step the masked walk takes.
    Otherwise, or with |eps| beyond ESCAPE_MODULUS, the masked walk is
    taken from z0; no solve of the benchmark's param-scan takes it.
    """

    def newton(z0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if abs(eps) <= ESCAPE_MODULUS:
            with np.errstate(over="ignore", invalid="ignore"):
                z, d = z0, np.ones_like(z0)
                for _ in range(period):
                    d *= 2.0 * z
                    z = z * z + eps
                if np.abs(z).max() <= ESCAPE_MODULUS:
                    return z - z0, d - 1.0
        z = z0.copy()
        d = np.ones_like(z0)
        tail = np.ones(len(z0))  # 2**(period - j) once z_j has escaped
        for _ in range(period):
            live = np.abs(z) <= ESCAPE_MODULUS
            tail[~live] *= 2.0
            zl = z[live]
            d[live] *= 2.0 * zl
            z[live] = zl * zl + eps
        escaped = tail > 1.0
        return np.where(escaped, z, z - z0), np.where(escaped, d * tail, d - 1.0)

    return newton


def _exact_period(eps: complex, z: np.ndarray, period: int) -> np.ndarray:
    """Per root, whether its minimal period is `period`: no proper
    divisor m of it has |f^m(z) - z| < 1e-7 (1 + |z|)."""
    zr, zi = z.real, z.imag
    scale = 1e-7 * (1.0 + np.hypot(zr, zi))
    exact = np.ones(len(z), bool)
    wr, wi = zr, zi
    with np.errstate(all="ignore"):
        for m in range(1, period // 2 + 1):  # the proper divisors are at most period/2
            wr, wi = _evaluate_rows(eps, wr, wi)
            if period % m == 0:
                exact &= ~(np.hypot(wr - zr, wi - zi) < scale)
    return exact


# ---------------------------------------------------------------------------
# preimage solving (linearizer pullback and collinearity preimage tree)


def preimage_points(eps: complex, w: complex) -> list[complex]:
    """The solutions +-sqrt(w - eps) of f(z) = w, sorted by argument then
    modulus."""
    s = cmath.sqrt(w - eps)
    roots = [s, 0 - s]  # not -s: a negative real root keeps +0.0j and phase pi
    roots.sort(key=lambda z: (cmath.phase(z), abs(z)))
    return roots


# ---------------------------------------------------------------------------
# Koenigs linearizer

# Terms of the Schroeder series.  phi = lambda**n phi(g^n), with g the
# injective a-fixing branch, is univalent on the certified disk D_r(a), so
# Koebe's growth theorem bounds |phi| by 0.9r/0.01 on D_0.9r(a) (Duren,
# Univalent Functions, ch. 2).  The Cauchy estimate there puts the terms past
# 64, summed at |u| <= r/2, below 202.5 r (5/9)**65 < 1e-14 r.
SERIES_TERMS = 64


class Linearizer:
    """Koenigs coordinate at a repelling fixed point.

    phi(f(z)) = multiplier * phi(z) on the certified disk, with
    phi(a) = 0 and phi'(a) = 1.  phi is the Schroeder power series at a,
    built once from the Taylor series of f at a and summed in double
    precision within half the certified radius.  A point farther out is
    pulled back by the a-fixing inverse branch until it is that close,
    and the value pushed forward by powers of the multiplier.
    """

    def __init__(self, eps: complex, point: PeriodicPoint, radius: float):
        self.epsilon = eps
        self.point = point
        self.radius = radius
        self._a = complex(point.location)
        self.multiplier, self._coeffs = _schroeder_series(self._a)

    def __call__(self, z: complex) -> complex:
        w = complex(z)
        pushed = 0
        while abs(w - self._a) > 0.5 * self.radius:
            w = self._pullback(w)
            pushed += 1
            if pushed > 80:
                raise DomainError("point did not reach the certified disk under pullback")
        u, value = w - self._a, 0j
        for c in reversed(self._coeffs):  # Horner
            value = value * u + c
        return value * self.multiplier**pushed

    def _pullback(self, w: complex) -> complex:
        """One step of the a-fixing inverse branch: the preimage
        +-sqrt(w - eps) nearest the linear prediction a + (w - a)/lambda."""
        guess = self._a + (w - self._a) / self.multiplier
        s = cmath.sqrt(w - self.epsilon)
        return s if abs(s - guess) <= abs(-s - guess) else -s


def _schroeder_series(a: complex) -> tuple[complex, tuple[complex, ...]]:
    """The multiplier lambda and the coefficients d_0..d_N (N =
    SERIES_TERMS) of phi(a + u) = sum d_n u^n at a fixed point a.

    g(u) = f(a + u) - a = 2a u + u**2 for every eps; phi(f) = lambda*phi
    then gives d_1 = 1 and d_n = [u^n](sum_{k<n} d_k g^k) / (lambda - lambda^n)
    (Milnor, Dynamics in One Complex Variable, section 8).
    """
    n = SERIES_TERMS + 1
    g = np.zeros(n, dtype=complex)
    g[1] = 2 * a
    g[2] = 1.0
    lam = complex(g[1])
    d = np.zeros(n, dtype=complex)
    d[1] = 1.0
    power = g.copy()  # g^(k-1) at the top of step k, truncated like all series here
    total = g.copy()  # sum_{j<k} d_j g^j at the top of step k
    for k in range(2, n):
        d[k] = total[k] / (lam - lam**k)
        power = np.convolve(power, g)[:n]
        total += d[k] * power
    return lam, tuple(complex(x) for x in d)


def functional_equation_residual(lin: Linearizer, n: int) -> float:
    """max |phi(f(z)) - lambda*phi(z)| over z = a + (radius/2) e^{ik}, k < n."""
    residual = 0.0
    for k in range(n):
        z = complex(lin.point.location) + lin.radius * 0.5 * complex(math.cos(k), math.sin(k))
        residual = max(residual, abs(lin(z * z + lin.epsilon) - lin.multiplier * lin(z)))
    return residual


def build_linearizer(eps: complex, point: PeriodicPoint) -> Linearizer:
    """Certify a disk for the Koenigs coordinate by shrink-and-retry.

    Radii start at (1 + |a|)/2 and halve until D_r(a) holds no critical
    value eps and the branch g of f^-1 fixing a*, the fixed point nearest a,
    maps it into D_{target r}(a): as u(u + 2a*) = z - a* for u = g(z) - a*,
    |u| <= t on D_R(a*) if R <= t(2|a*| - t), tight if u is antiparallel to
    a*.  Rounded outward, R = r + e, t = target r - e, m <= |a*| for |a*|, and
    e >= |a - a*|: a**2 - a + eps = (a - a*)(a - 1 + a*), |a - 1 + a*| >= |2a - 1|/2.
    """
    lam = abs(point.multiplier)
    if lam <= 1.0:
        raise PreconditionError("linearizer base must be repelling")
    if point.period != 1 or point.classification != "repelling":
        raise PreconditionError("linearizer base must be a repelling fixed point")
    target = (1.0 / lam + 1.0) / 2.0
    a = complex(point.location)
    # Each part of w is four rounded operations, within gamma_4 < 1e-15 of 2(|a|**2 + |a| + |eps|)
    # (Higham, ch. 3); d rounds only in its real part, by 1 ulp of |d|; hypot is within 1 ulp.
    w, d = a * a - a + eps, 2.0 * a - 1.0
    res = _step(_step(math.hypot(w.real, w.imag), 2) + 2e-15 * (abs(a) ** 2 + abs(a) + abs(eps)), 1)
    e = _step(2.0 * res / _step(math.hypot(d.real, d.imag), -3), 1)
    m = _step(_step(math.hypot(a.real, a.imag), -2) - e, -1)
    r = 0.5 * (1.0 + abs(point.location))
    for _ in range(60):
        t = _step(target * r - e, -1)
        if abs(eps - a) > r and _step(r + e, 1) <= _step(t * _step(2.0 * m - t, -1), -1):
            return Linearizer(eps, point, r)
        r *= 0.5
    raise ConstructionError("no certified linearization disk found")


def _step(x: float, n: int) -> float:
    """x moved n floats up (n > 0) or down (n < 0), to round outward."""
    for _ in range(abs(n)):
        x = math.nextafter(x, math.copysign(math.inf, n))
    return x


# ---------------------------------------------------------------------------
# collinearity of preimages in the Koenigs coordinate


@dataclass(frozen=True)
class CollinearityReport:
    verdict: str  # "line" | "full" | "inconclusive"
    max_deviation: float
    spread: float
    n_points: int
    exceptional_family_flag: bool


def collinearity_in_linearizer(
    eps: complex,
    lin: Linearizer,
    depth: int,
) -> CollinearityReport:
    """Do the preimages of a accumulate along a line through a?

    Enumerates the full backward tree of the fixed point to the given
    depth, keeps the nodes inside the certified disk (excluding a
    itself), maps them through phi, and fits a real line through 0 by
    total least squares.  Verdict "line" when the maximum perpendicular
    deviation is below 1e-8 of the spread, "full" otherwise,
    "inconclusive" with fewer than 3 points.

    The power map z**2 puts the preimages (roots of unity) on a genuine
    line in the phi coordinate, so the flag for that exceptional
    family (list_1_1_member) is reported alongside the raw verdict
    rather than folded into it.
    """
    a = lin.point.location
    if 2**depth > NODE_BUDGET:
        raise ConfigError(f"preimage tree of depth {depth} exceeds the node budget")
    level = [a]
    nodes: list[complex] = []
    for _ in range(depth):
        nxt: list[complex] = []
        for w in level:
            nxt.extend(preimage_points(eps, w))
        # collapse duplicates so shared subtrees are walked once
        nxt.sort(key=lambda z: (z.real, z.imag))
        dedup: list[complex] = []
        for z in nxt:
            if not dedup or abs(z - dedup[-1]) > 1e-12 * (1.0 + abs(z)):
                dedup.append(z)
        nodes.extend(dedup)
        level = dedup
    in_disk = [
        z
        for z in nodes
        if abs(z - a) <= lin.radius and abs(z - a) > 1e-12 * (1.0 + abs(a))
    ]
    if len(in_disk) < 3:
        return CollinearityReport(
            "inconclusive", 0.0, 0.0, len(in_disk), list_1_1_member(eps)
        )
    images = np.array([lin(z) for z in in_disk], dtype=complex)
    theta = 0.5 * cmath.phase(complex(np.sum(images**2)))
    rotated = images * cmath.exp(-1j * theta)
    max_dev = float(np.max(np.abs(rotated.imag)))
    spread = float(np.max(np.abs(images)))
    verdict = "line" if max_dev < 1e-8 * spread else "full"
    return CollinearityReport(verdict, max_dev, spread, len(in_disk), list_1_1_member(eps))


def list_1_1_member(epsilon: complex) -> bool:
    """The two quadratic parameters conjugate to a power or Chebyshev
    map, whose height sets degenerate to arithmetic progressions."""
    eps = complex(epsilon)
    return abs(eps) < LIST_MEMBER_TOL or abs(eps + 2.0) < LIST_MEMBER_TOL
