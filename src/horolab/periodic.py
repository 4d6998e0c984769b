"""Periodic points, multiplier classification, and Koenigs linearization.

Roots are found by an Aberth-Ehrlich simultaneous iteration from
deterministic start points, followed by a Newton polish.  For z**2 + eps
the periodic points of period p are the roots of f^p(z) - z, whose
Newton ratio is computed by iterating f p times, without expanding the
degree-2**p polynomial, starting from the 2**p preimages under f^p of
one point outside the filled Julia set, and preimages are
+-sqrt(w - eps) in closed form.  For any other map (the --map
commands) the iterate is composed into coefficients (iterated_pair) and
all_roots solves the polynomial, as it does for such a map's preimages
and for critical points.  A root that is not finite, or whose residual
is above tolerance, is a RootFindingError.  make_periodic_point
polishes a root by Newton on f^p(z) - z and validates it: each Newton
step and the validation take f^p(z) and the multiplier (f^p)'(z) from
one walk of the cycle.

The linearizer phi conjugates the map to w -> lambda*w near a repelling
fixed point a, normalized phi(a) = 0, phi'(a) = 1.  It is the Schroeder
power series of phi at a, whose coefficients follow from the Taylor
series of f at a, summed in double precision on a disk that holds no
critical value of f and that the a-fixing inverse branch maps into
itself.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    PreconditionError,
    RootFindingError,
)
from .maps import (
    RationalFunction,
    RationalMap,
    compose,
    evaluate,
    is_inf,
    poly_eval,
    poly_mul,
    poly_sub,
    poly_trim,
    quadratic_epsilon,
)

SUPERATTRACTING_TOL = 1e-9
PARABOLIC_TOL = 1e-8
PARABOLIC_ORDER_BOUND = 64
ROOT_RESIDUAL_TOL = 1e-9
ABERTH_MAX_ITER = 300
CLUSTER_REL_TOL = 1e-6  # roots this close (relative) merge into one of higher multiplicity
DEGREE_BUDGET = 4096  # largest degree of an iterate f^n composed for periodic points
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
BRANCH_COLLISION_TOL = 1e-13


# ---------------------------------------------------------------------------
# all-roots solver


@dataclass(frozen=True)
class Root:
    value: complex
    multiplicity: int


def all_roots(coeffs) -> list[Root]:
    """All complex roots of an ascending-coefficient polynomial.

    Aberth-Ehrlich simultaneous iteration, initial guesses equally
    spaced on the circle of radius 1 + max |c_i / c_n| with a fixed
    angular offset (deterministic, breaks root symmetries), followed
    by a Newton polish.  Near-coincident roots are merged into a
    cluster whose multiplicity is the cluster size.  Roots are sorted
    by real part, then imaginary part.
    """
    c = poly_trim(coeffs)
    zeros_at_origin = 0
    while len(c) > 1 and c[0] == 0:
        c = c[1:]
        zeros_at_origin += 1
    n = len(c) - 1
    roots: list[complex] = []
    if n == 1:
        roots = [-c[0] / c[1]]
    elif n > 1:
        a = np.asarray(c, dtype=complex)
        a = a / np.max(np.abs(a))
        da = npoly.polyder(a)
        radius = 1.0 + float(np.max(np.abs(a[:-1] / a[-1])))
        z = _aberth(_circle(n, radius), lambda x: (npoly.polyval(x, a), npoly.polyval(x, da)))
        roots = [complex(x) for x in z]
        _check_residuals(c, roots)
    clusters = _cluster(roots)
    if zeros_at_origin:
        clusters.append(Root(0j, zeros_at_origin))
    clusters.sort(key=lambda r: (r.value.real, r.value.imag))
    return clusters


def _circle(n: int, radius: float) -> np.ndarray:
    """n start points equally spaced on a circle, at a fixed angular offset."""
    angles = 2.0 * np.pi * (np.arange(n) / n) + 0.4
    return radius * np.exp(1j * angles)


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


def _check_residuals(c, roots):
    cs = max(abs(x) for x in c)
    residuals = [abs(poly_eval(c, z)) / (cs * max(1.0, abs(z)) ** (len(c) - 1)) for z in roots]
    worst = float(np.max(residuals))  # a non-finite root's NaN propagates and fails below
    if not worst <= ROOT_RESIDUAL_TOL:
        raise RootFindingError(
            f"root residual {worst:.3e} exceeds tolerance {ROOT_RESIDUAL_TOL:.1e}"
        )


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


def make_periodic_point(f: RationalMap, z: complex, period: int) -> PeriodicPoint:
    """Polish the candidate by Newton on f^period(z) - z, then validate."""
    if period < 1:
        raise ConfigError("period must be >= 1")
    return _periodic_point(f, f.derivative(), z, period)


def _periodic_point(f: RationalMap, df: RationalFunction, z: complex, period: int) -> PeriodicPoint:
    """make_periodic_point given df = f'.  Each Newton step and the
    validation take f^period(z) and the multiplier from one walk."""
    w, m = _walk_cycle(f, df, z, period)
    for _ in range(5):
        if abs(m - 1.0) < 1e-8:  # parabolic point: Newton would blow up
            break
        step = (w - z) / (m - 1.0)
        z = z - step
        w, m = _walk_cycle(f, df, z, period)
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            break
    if not abs(w - z) <= 1e-9 * (1.0 + abs(z)):  # NaN fails too
        raise ConstructionError(
            f"|f^{period}(z) - z| = {abs(w - z):.3e}; not a period-{period} point"
        )
    return PeriodicPoint(z, period, m, classify(m))


def _walk_cycle(f: RationalMap, df: RationalFunction, z: complex, period: int) -> tuple[complex, complex]:
    """f^period(z) and the multiplier, the product of f'(f^j(z)) over j < period."""
    m = 1 + 0j
    for _ in range(period):
        m *= evaluate(df, z)
        z = evaluate(f, z)
    return z, m


def iterated_pair(f: RationalMap, n: int) -> RationalFunction:
    """Coefficient pair of f^n, composed step by step."""
    if f.degree**n > DEGREE_BUDGET:
        raise ConfigError(
            f"degree {f.degree}^{n} exceeds the composition budget {DEGREE_BUDGET}"
        )
    g: RationalFunction = RationalFunction(f.num, f.den)
    for _ in range(n - 1):
        g = compose(RationalFunction(f.num, f.den), g)
    return g


def periodic_points(f: RationalMap, period: int) -> list[PeriodicPoint]:
    """All finite points of exact period `period`, sorted by (re, im).

    Roots of f^period(z) - z: for z**2 + eps by iterated evaluation
    (_family_periodic_roots), for any other map from the coefficients of
    the composed iterate; points whose minimal period is a proper
    divisor are discarded.
    """
    if period < 1:
        raise ConfigError("period must be >= 1")
    eps = quadratic_epsilon(f)
    if eps is None:
        fn = iterated_pair(f, period)
        # P_n(z) - z Q_n(z) = 0
        roots = all_roots(poly_sub(fn.num, poly_mul((0j, 1 + 0j), fn.den)))
    else:
        roots = _family_periodic_roots(eps, period)
    df = f.derivative()
    zs = [r.value for r in roots if _minimal_period(f, r.value, period) == period]
    out = [_periodic_point(f, df, z, period) for z in zs]
    return sorted(out, key=lambda p: (p.location.real, p.location.imag))


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


def _minimal_period(f: RationalMap, z: complex, period: int) -> int:
    w = z
    for m in range(1, period):
        w = f(w)
        if period % m == 0 and abs(w - z) < 1e-7 * (1.0 + abs(z)):
            return m
    return period


# ---------------------------------------------------------------------------
# preimage solving (linearizer pullback and collinearity preimage tree)


def preimage_points(f: RationalMap, w: complex) -> list[complex]:
    """All finite solutions of f(z) = w, sorted by argument then modulus
    (in closed form, +-sqrt(w - eps), for z**2 + eps)."""
    eps = quadratic_epsilon(f)
    if eps is None:
        roots: list[complex] = []
        for r in all_roots(poly_sub(f.num, tuple(w * q for q in f.den))):
            roots.extend([r.value] * r.multiplicity)
    else:
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

    def __init__(self, f: RationalMap, point: PeriodicPoint, radius: float):
        if point.period != 1 or point.classification != "repelling":
            raise PreconditionError("linearizer base must be a repelling fixed point")
        self.map = f
        self.point = point
        self.radius = radius
        self._a = complex(point.location)
        self._quad_eps = quadratic_epsilon(f)
        self.multiplier, self._coeffs = _schroeder_series(f, self._a)

    def __call__(self, z: complex) -> complex:
        w = complex(z)
        pushed = 0
        while abs(w - self._a) > 0.5 * self.radius:
            w = self._pullback(w)
            pushed += 1
            if pushed > 80:
                raise DomainError("point did not reach the certified disk under pullback")
        return poly_eval(self._coeffs, w - self._a) * self.multiplier**pushed

    def _pullback(self, w: complex) -> complex:
        """One step of the a-fixing inverse branch: the preimage nearest
        the linear prediction a + (w - a)/lambda (closed form for the
        quadratic family)."""
        guess = self._a + (w - self._a) / self.multiplier
        if self._quad_eps is not None:
            s = cmath.sqrt(w - self._quad_eps)
            return s if abs(s - guess) <= abs(-s - guess) else -s
        return min(preimage_points(self.map, w), key=lambda z: abs(z - guess))


def _schroeder_series(f: RationalMap, a: complex) -> tuple[complex, tuple[complex, ...]]:
    """The multiplier lambda and the coefficients d_0..d_N (N =
    SERIES_TERMS) of phi(a + u) = sum d_n u^n.

    g(u) = f(a + u) - a is expanded by a truncated series division of
    the shifted numerator by the shifted denominator; phi(f) = lambda*phi
    then gives d_1 = 1 and d_n = [u^n](sum_{k<n} d_k g^k) / (lambda - lambda^n)
    (Milnor, Dynamics in One Complex Variable, section 8).
    """
    n = SERIES_TERMS + 1
    shifted = compose(f, RationalFunction((a, 1 + 0j)))
    num, den = np.zeros(n, dtype=complex), np.zeros(n, dtype=complex)
    num[: len(shifted.num)] = shifted.num[:n]
    den[: len(shifted.den)] = shifted.den[:n]
    g = np.zeros(n, dtype=complex)
    g[0] = a  # f(a)
    for k in range(1, n):
        g[k] = (num[k] - np.dot(den[1 : k + 1], g[k - 1 :: -1])) / den[0]
    g[0] = 0.0  # g(u) = f(a + u) - a
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
        residual = max(residual, abs(lin(evaluate(lin.map, z)) - lin.multiplier * lin(z)))
    return residual


def build_linearizer(f: RationalMap, point: PeriodicPoint) -> Linearizer:
    """Certify a disk for the Koenigs coordinate by shrink-and-retry.

    Radii start at (1 + |a|)/2.  A candidate radius r is accepted when the closed disk of radius r
    about a holds no finite critical value f(c), so the inverse branch
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
    lin = Linearizer(f, point, r)
    a = lin._a
    critical_values = [v for v in map(f, f.critical_points()) if not is_inf(v)]
    for _ in range(60):
        if all(abs(v - a) > r for v in critical_values) and _radius_certified(lin, r, target):
            lin.radius = r
            return lin
        r *= 0.5
    raise ConstructionError("no certified linearization disk found")


def _radius_certified(lin: Linearizer, r: float, target: float) -> bool:
    a = lin._a
    for k in range(LINEARIZER_BOUNDARY_SAMPLES):
        z = a + r * cmath.exp(2j * math.pi * k / LINEARIZER_BOUNDARY_SAMPLES)
        try:
            w = lin._pullback(z)
        except RootFindingError:
            return False
        if abs(w - a) > target * r:
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
    f: RationalMap,
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

    Power maps z**d put the preimages (roots of unity) on a genuine
    line in the phi coordinate, so the flag for that exceptional
    family is reported alongside the raw verdict rather than folded
    into it.
    """
    a = lin.point.location
    if f.degree**depth > NODE_BUDGET:
        raise ConfigError(f"preimage tree of depth {depth} exceeds the node budget")
    level = [a]
    nodes: list[complex] = []
    for _ in range(depth):
        nxt: list[complex] = []
        for w in level:
            nxt.extend(preimage_points(f, w))
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
            "inconclusive", 0.0, 0.0, len(in_disk), _exceptional_family(f)
        )
    images = np.array([lin(z) for z in in_disk], dtype=complex)
    theta = 0.5 * cmath.phase(complex(np.sum(images**2)))
    rotated = images * cmath.exp(-1j * theta)
    max_dev = float(np.max(np.abs(rotated.imag)))
    spread = float(np.max(np.abs(images)))
    verdict = "line" if max_dev < 1e-8 * spread else "full"
    return CollinearityReport(verdict, max_dev, spread, len(in_disk), _exceptional_family(f))


def _exceptional_family(f: RationalMap) -> bool:
    """Power maps and the Chebyshev-like quadratic, whose height sets
    degenerate to arithmetic progressions."""
    if not f.is_polynomial:
        return False
    if abs(f.num[-1] - 1.0) < 1e-12 and all(abs(c) < 1e-12 for c in f.num[:-1]):
        return True
    if len(f.num) == 3 and abs(f.num[1]) < 1e-12 and abs(f.num[2] - 1.0) < 1e-12:
        return abs(f.num[0] + 2.0) < 1e-12
    return False
