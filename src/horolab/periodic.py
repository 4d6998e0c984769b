"""Periodic points, multiplier classification, and Koenigs linearization
for f = z**2 + eps, each taking the parameter eps.

The periodic points of period p are the roots of f^p(z) - z, found by an
Aberth-Ehrlich simultaneous iteration whose Newton ratio is computed by
iterating f p times, without expanding the degree-2**p polynomial,
starting from the 2**p preimages under f^p of one point outside the
filled Julia set, followed by a Newton polish.  A root that is not
finite, or whose residual is above tolerance, is a RootFindingError.
Preimages are +-sqrt(w - eps) in closed form.

The roots of one period are then filtered by minimal period and
polished by Newton on f^p(z) - z together, as the rows of float arrays
(_polish; make_periodic_point is its one-row call): each Newton step and
the validation take f^p(z) and the multiplier (f^p)'(z) from one walk of
the cycle, and each row stops on its own.  The array passes are CPython's
complex arithmetic written out on the real and imaginary parts, with
maps' infinity tag and its signs of zero parts, so every point and
multiplier is bit for bit what the same steps on Python complex numbers
(maps.evaluate and maps.derivative) give; numpy's complex multiply,
divide and abs round differently.

The linearizer phi conjugates the map to w -> lambda*w near a repelling
fixed point a, normalized phi(a) = 0, phi'(a) = 1.  It is the Schroeder
power series of phi at a, whose coefficients follow from the Taylor
series f(a + u) - a = 2a u + u**2, summed in double precision on a disk
that holds no critical value eps and that the a-fixing inverse branch
maps into itself.
"""

from __future__ import annotations

import cmath
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
from .maps import OVERFLOW_RADIUS, evaluate

SUPERATTRACTING_TOL = 1e-9
PARABOLIC_TOL = 1e-8
PARABOLIC_ORDER_BOUND = 64
ROOT_RESIDUAL_TOL = 1e-9
ABERTH_MAX_ITER = 300
CLUSTER_REL_TOL = 1e-6  # roots this close (relative) merge into one of higher multiplicity
# Largest period solved for z**2 + eps.  Aberth holds n x n complex
# matrices of pairwise differences for the n = 2**p roots: 4**p entries,
# 16 MiB each at p = 10 but 256 MiB at p = 12.
MAX_FAMILY_PERIOD = 10
# Orbit points beyond this modulus are not iterated further: there the
# Newton ratio of f^p(z) - z is finished in closed form, so nothing
# overflows (see _iterated_newton).
ESCAPE_MODULUS = 1e30
LINEARIZER_BOUNDARY_SAMPLES = 64  # circle points whose pullbacks certify a linearizer disk
NODE_BUDGET = 65536  # largest preimage tree the collinearity check enumerates
LIST_MEMBER_TOL = 1e-12


# ---------------------------------------------------------------------------
# root solver


@dataclass(frozen=True)
class Root:
    value: complex
    multiplicity: int


def _aberth(z: np.ndarray, newton) -> np.ndarray:
    """Aberth-Ehrlich iteration from the start points z, then a Newton
    polish.  newton(z) gives the numerator and the denominator of the
    Newton ratio at every point (the function and its derivative)."""
    tiny = 1e-300
    for _ in range(ABERTH_MAX_ITER):
        p, dp = newton(z)
        dp = np.where(dp == 0, tiny, dp)
        w = p / dp
        diff = z[:, None] - z[None, :]
        np.fill_diagonal(diff, np.inf)
        s = (1.0 / diff).sum(axis=1)
        denom = 1.0 - w * s
        denom = np.where(denom == 0, tiny, denom)
        step = w / denom
        z = z - step
        if np.max(np.abs(step)) < 1e-14 * (1.0 + np.max(np.abs(z))):
            break
    for _ in range(4):  # Newton polish
        p, dp = newton(z)
        mask = np.abs(dp) > tiny
        z = np.where(mask, z - p / np.where(mask, dp, 1.0), z)
    return z


def _cluster(roots: list[complex]) -> list[Root]:
    """Merge each root with the later ones (by real part) within
    CLUSTER_REL_TOL * (1 + |z|) of it.  |w - z| >= |w.real - z.real|, so
    the scan stops at the first root whose real part is beyond that
    radius."""
    if not roots:
        return []
    remaining = sorted(roots, key=lambda z: (z.real, z.imag))
    out: list[Root] = []
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
        center = sum(members) / len(members)
        out.append(Root(center, len(members)))
    return out


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


def periodic_points(eps: complex, period: int) -> list[PeriodicPoint]:
    """All finite points of exact period `period`, sorted by (re, im).

    Roots of f^period(z) - z by iterated evaluation
    (_family_periodic_roots); points whose minimal period is a proper
    divisor are discarded, and the rest polished together (_polish).
    """
    if period < 1:
        raise ConfigError("period must be >= 1")
    z = np.array([r.value for r in _family_periodic_roots(eps, period)])
    z, m = _polish(eps, z[_exact_period(eps, z, period)], period)
    # a stable sort, so (re, im) ties, -0.0 against 0.0 among them, keep
    # the root order, as sorting on the key tuple keeps it
    order = np.lexsort((z.imag, z.real))
    return [
        PeriodicPoint(loc, period, mult, classify(mult))
        for loc, mult in zip(z[order].tolist(), m[order].tolist())
    ]


# The row passes: one candidate per row, its parts in two float arrays,
# each |.| np.hypot of the parts as abs(complex) is (module docstring).


def _tag(zr: np.ndarray, zi: np.ndarray) -> None:
    """maps' infinity tag in place: a row that is not finite, or whose
    modulus exceeds OVERFLOW_RADIUS, becomes INF = (inf, 0).  NaN fails
    the test hypot <= OVERFLOW_RADIUS, and so does an infinite part."""
    bad = ~(np.hypot(zr, zi) <= OVERFLOW_RADIUS)
    if bad.any():
        zr[bad], zi[bad] = math.inf, 0.0


def _evaluate_rows(eps: complex, zr: np.ndarray, zi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """maps.evaluate on tagged rows: ((z + 0j)*z + eps)/(1 + 0j), tagged.
    The division is CPython's with ratio 0/1 = 0.0 and denominator 1.0,
    which keep the signs of zero parts as it sets them."""
    ur, ui = zr + 0.0, zi + 0.0
    pr = ur * zr - ui * zi + eps.real
    pi = ur * zi + ui * zr + eps.imag
    wr, wi = pr + pi * 0.0, pi - pr * 0.0
    _tag(wr, wi)
    return wr, wi


def _walk_rows(eps: complex, zr: np.ndarray, zi: np.ndarray, period: int):
    """f^period(z) and the multiplier, the product of f'(f^j(z)) over
    j < period, per row: (wr, wi, mr, mi).

    f'(z) is maps.derivative's 2*z + 0j, which is (2 + 0j)*z + 0j in
    CPython; on a tagged row (finite, or INF, whose derivative is tagged
    anyway) that is (2 zr + 0.0, 2 zi + 0.0), tagged."""
    zr, zi = zr.copy(), zi.copy()
    _tag(zr, zi)  # evaluate and derivative tag their argument first
    mr, mi = np.ones_like(zr), np.zeros_like(zr)
    for _ in range(period):
        dr, di = 2.0 * zr + 0.0, 2.0 * zi + 0.0
        _tag(dr, di)
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


def _family_periodic_roots(eps: complex, period: int) -> list[Root]:
    """The 2**period roots of f^period(z) - z for f = z**2 + eps, clustered.

    Aberth iteration whose Newton ratio is computed by iterating f
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
    if period > MAX_FAMILY_PERIOD:
        raise ConfigError(f"period {period} exceeds {MAX_FAMILY_PERIOD} for z**2 + epsilon")
    newton = _iterated_newton(eps, period)
    radius = 1.05 * (1.0 + math.sqrt(1.0 + 4.0 * abs(eps))) / 2.0
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
    return _cluster([complex(x) for x in z])


def _iterated_newton(eps: complex, period: int):
    """Newton numerator and denominator of f^period(z) - z for
    f = z**2 + eps: f^period(z) - z and (f^period)'(z) - 1, the
    derivative being the product of 2 f^j(z) over j < period.

    An orbit point z_j beyond ESCAPE_MODULUS is not iterated further:
    from there the ratio is z_j / ((f^j)'(z) 2**(period - j)) to a
    relative 1/ESCAPE_MODULUS, so that is returned and nothing overflows.
    """

    def newton(z0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    divisor m of it has |f^m(z) - z| < 1e-7 (1 + |z|).  f is
    maps.evaluate on the rows (_evaluate_rows)."""
    zr, zi = z.real, z.imag
    scale = 1e-7 * (1.0 + np.hypot(zr, zi))
    exact = np.ones(len(z), bool)
    wr, wi = zr.copy(), zi.copy()
    with np.errstate(all="ignore"):
        _tag(wr, wi)  # evaluate tags its argument first
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

# Terms of the Schroeder series.  phi is analytic on the certified disk
# and the series is summed at most half its radius from a, where the
# Cauchy estimate bounds term n by 2^-n * max|phi| on the disk: 64 terms
# leave a truncation error of 2^-64 (5e-20) of that maximum, below
# double-precision rounding.
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
        if point.period != 1 or point.classification != "repelling":
            raise PreconditionError("linearizer base must be a repelling fixed point")
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
    g[1] = 2 * a + 0j  # the sign of a zero part as the series division gave it
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
        residual = max(residual, abs(lin(evaluate(lin.epsilon, z)) - lin.multiplier * lin(z)))
    return residual


def build_linearizer(eps: complex, point: PeriodicPoint) -> Linearizer:
    """Certify a disk for the Koenigs coordinate by shrink-and-retry.

    Radii start at (1 + |a|)/2.  A candidate radius r is accepted when the closed disk of radius r
    about a holds no critical value eps = f(0), so the inverse branch
    fixing a is analytic on it, and that branch maps the sampled
    boundary circle inside radius r*(1/|lambda| + 1)/2, so by the maximum
    principle it maps the disk into itself.  phi is then analytic on the
    disk, which is what the series evaluation needs.  Otherwise r halves.
    """
    lam = abs(point.multiplier)
    if lam <= 1.0:
        raise PreconditionError("linearizer base must be repelling")
    target = (1.0 / lam + 1.0) / 2.0
    r = 0.5 * (1.0 + abs(point.location))
    lin = Linearizer(eps, point, r)
    a = lin._a
    for _ in range(60):
        if abs(eps - a) > r and _radius_certified(lin, r, target):
            lin.radius = r
            return lin
        r *= 0.5
    raise ConstructionError("no certified linearization disk found")


def _radius_certified(lin: Linearizer, r: float, target: float) -> bool:
    a = lin._a
    for k in range(LINEARIZER_BOUNDARY_SAMPLES):
        z = a + r * cmath.exp(2j * math.pi * k / LINEARIZER_BOUNDARY_SAMPLES)
        if abs(lin._pullback(z) - a) > target * r:
            return False
    return True


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
