"""The basic cocycle as a certified series, heights, and density reports.

The cocycle of two backward orbits of z**2 + epsilon over the repelling
fixed point a is the series of differences ln|2 y_j| - ln|2 x_j| along
the orbits (quadratic family only, like the orbit words).  Only
finitely many terms are large: once both orbits sit inside the
certified disk around a, the terms are controlled by the local
Lipschitz constant of ln|f'| and the measured contraction rate, which
gives an explicit geometric tail bound.  Every returned value carries
that bound.

The engine takes realized orbits (RealizedOrbit.at): a word's orbit,
typically the one sample_words hands on, is cut or continued to the
series start depth SERIES_DEPTH past the prefix (where a batch row
already is, so no step is taken) and continued again on a depth
restart, never realized afresh.  basic_cocycle's pair_at hands the
series each orbit's points with the distances to a that the realization
carries (RealizedOrbit.dists), so no distance is computed twice, the
indices of its points near the critical point 0 that the steps
recorded (RealizedOrbit.near_critical), so no point is tested twice,
and the end of its above-floor distances (RealizedOrbit.signal_end),
where the contraction scan stops.  values_vs_fixed, the one routine
that values words against the fixed orbit, realizes that orbit once, at
the deepest start depth its batch needs, and cuts it back for each
word; past its first point the orbit stands still, and the sum takes a
repeated x-point's term once.  The field's own backward orbits
(_follow) pick preimages by the same nearest-preimage rule, which also
gives the distances of the principal sequence to a.  Callers compute
each word's value once and hand the CocycleValues on: height_set takes
values, not words.  Semigroup convergence under concatenation is checked
in the family layer (quadratic.limit_decomposition_check).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .errors import (
    ConfigError,
    DepthBudgetError,
    DivergentWordError,
    DomainError,
    PreconditionError,
    SingularTermError,
)
from .orbits import (
    CRITICAL_PROXIMITY,
    OrbitWord,
    RealizedOrbit,
    _entry_index,
    _nearer,
    _signal_end,
    fixed_word,
    realize,
    tail_contraction,
)

MIN_TOL = 1e-12
DEPTH_BUDGET = 4000
SERIES_DEPTH = 120  # a series starts this far past the longer prefix
HEIGHT_WINDOW = (0.0, 1.0)  # the window height_set clips its heights to
SUM_BUDGET = 200  # progression_density_check sums at most this many sample values
ENUMERATION_CAP = 500_000  # most sums a semigroup shadow enumerates (here and build_B_epsilon)


@dataclass(frozen=True)
class CocycleValue:
    value: float
    tail_bound: float
    depth_used: int


@dataclass(frozen=True)
class DensityReport:
    """Sorted cocycle/height values with their certified bounds and the
    gap structure over a fixed window (gaps to the window edges count)."""

    values: tuple[tuple[float, float], ...]  # (value, tail_bound), sorted by value
    window: tuple[float, float]
    max_gap: float
    count: int


@dataclass(frozen=True)
class ProgressionReport:
    ok: bool
    max_gap: float
    gap_location: float
    count: int


# ---------------------------------------------------------------------------
# certified series engine


@functools.lru_cache(maxsize=256)
def _log_deriv_lipschitz(a: complex, sigma: float) -> float:
    """Sampled bound for the Lipschitz constant of z -> ln|2z| on
    D_sigma(a): max |f''/f'| = |2/(2z)| on the boundary circle (the
    quotient is holomorphic there, the disk being free of the critical
    point 0), with a 5% sampling margin."""
    worst = 0.0
    for k in range(256):
        z = a + sigma * complex(math.cos(2 * math.pi * k / 256), math.sin(2 * math.pi * k / 256))
        worst = max(worst, abs(2 / (2 * z)))
    return 1.05 * worst


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol >= MIN_TOL):
        raise ConfigError(f"tol must be finite and >= {MIN_TOL:g}, got {tol!r}")


def _certified_series(a: complex, sigma: float, tol: float, pair_at, depth: int) -> CocycleValue:
    """Sum sum_j [ln|f'(y_j)| - ln|f'(x_j)|] with a certified tail.

    pair_at(depth) -> ((x_points, x_dists, x_entry, x_near,
    x_signal_end), (y_points, ...)), aligned backward orbits starting at
    index 0, with their distances to a, their entry indices into the
    disk (orbits._entry_index), the sorted indices of their points
    within CRITICAL_PROXIMITY of the critical point 0, and one past
    their last distance above RHO_SIGNAL_FLOOR
    (RealizedOrbit.signal_end).  The truncation depth k is the first
    index, past both entries, where L * rho/(1-rho) * (|x_k - a| +
    |y_k - a|) drops below tol; that expression bounds the discarded
    tail, and a near-critical point at an index in [1, k] makes a term
    singular.  rho is 1.1 times the larger measured tail contraction
    (tail_contraction, which scans from the entry to the signal end),
    or the local theoretical rate 1/|f'(a)| = 1/|2a| (plus 0.05) when
    both tails sit at rounding scale.  Without such a k the depth
    doubles, up to DEPTH_BUDGET.

    The sum is value += ln|2 y_j| - ln|2 x_j| in index order; while
    x_j equals the point before it (==, so -0.0 and 0.0 parts match,
    which abs does not tell apart, and NaN never does), the previous
    ln|2 x_j| is reused, the same operands giving the same bits.  The
    fixed orbit thus takes one x-term per value.
    """
    L = _log_deriv_lipschitz(a, sigma)
    fallback_rho = 1.0 / abs(2 * a) + 0.05
    while True:
        (px, dx, ex, cx, sx), (py, dy, ey, cy, sy) = pair_at(depth)
        if ex is not None and ey is not None:
            measured = [tail_contraction(dx, ex, sx), tail_contraction(dy, ey, sy)]
            measured = [r for r in measured if r is not None]
            rho = 1.1 * max(measured) if measured else fallback_rho
            if rho >= 0.999:
                raise DivergentWordError(
                    f"measured tail contraction {rho:.3f} certifies no geometric bound"
                )
            coef = L * rho / (1.0 - rho)
            start = max(ex, ey, 1)
            k = None
            bound = math.inf
            for j in range(start, depth + 1):
                bound = coef * (dx[j] + dy[j])
                if bound <= tol:
                    k = j
                    break
            if k is not None:
                hits = [j for c in (cx, cy) for j in c if 1 <= j <= k]
                if hits:
                    raise SingularTermError(
                        f"orbit point at depth {min(hits)} is within"
                        f" {CRITICAL_PROXIMITY:g} of the critical point 0"
                    )
                value = 0.0
                x = lx = math.nan  # equal to no point
                for j in range(1, k + 1):
                    if px[j] != x:
                        x = px[j]
                        lx = math.log(abs(2 * x))
                    value += math.log(abs(2 * py[j])) - lx
                return CocycleValue(value, bound, k)
        if depth >= DEPTH_BUDGET:
            raise DepthBudgetError(
                f"tail certification did not reach tol={tol:g} within depth {DEPTH_BUDGET}"
            )
        depth = min(DEPTH_BUDGET, 2 * depth)


def _common_base(x, y):
    if x.epsilon != y.epsilon or x.base.location != y.base.location or x.sigma != y.sigma:
        raise PreconditionError("cocycle arguments must share epsilon, base, and sigma")


# ---------------------------------------------------------------------------
# cocycle operations


def basic_cocycle(x: OrbitWord | RealizedOrbit, y: OrbitWord | RealizedOrbit, tol: float) -> CocycleValue:
    """Certified value of the series between the two backward orbits.

    The series starts SERIES_DEPTH past the longer prefix.  Realized
    arguments are cut back or continued to that depth (RealizedOrbit.at), and a
    depth restart continues both orbits, so no step is taken twice.
    """
    _check_tol(tol)
    _common_base(x, y)
    if x.word == y.word:
        return CocycleValue(0.0, 0.0, 0)
    orbs = [x, y]

    def pair_at(depth):
        orbs[:] = [o.at(depth) for o in orbs]
        return [(o.points, o.dists, o.entry_index, o.near_critical, o.signal_end) for o in orbs]

    depth0 = max(len(x.prefix), len(y.prefix)) + SERIES_DEPTH
    return _certified_series(x.base.location, x.sigma, tol, pair_at, depth0)


def values_vs_fixed(ys: list[OrbitWord | RealizedOrbit], tol: float) -> list[CocycleValue]:
    """Cocycle of each word against the fixed orbit at their common base.

    The fixed orbit is realized once, to the series start depth of the
    longest prefix, and cut back for each word; each word is continued
    or cut back to its own start depth (RealizedOrbit.at).
    """
    _check_tol(tol)  # before any realization, as in basic_cocycle
    if not ys:
        return []
    fixed = realize(fixed_word(ys[0]), max(len(y.prefix) for y in ys) + SERIES_DEPTH)
    out = []
    for y in ys:
        depth0 = len(y.prefix) + SERIES_DEPTH
        out.append(basic_cocycle(fixed.at(depth0), y.at(depth0), tol))
    return out


def cocycle_vs_fixed(y: OrbitWord | RealizedOrbit, tol: float) -> CocycleValue:
    """Cocycle of y against the fixed orbit at the base point."""
    return values_vs_fixed([y], tol)[0]


def series_terms(y: OrbitWord | RealizedOrbit, depth: int) -> list[float]:
    """The individual series terms ln|f'(y_{-j})| - ln|f'(a)| to the
    given depth (diagnostic; the certified sum is cocycle_vs_fixed)."""
    orb = y.at(depth)
    base = math.log(abs(2 * y.base.location))
    return [math.log(abs(2 * p)) - base for p in orb.points[1:]]


def cocycle_field(c: OrbitWord | RealizedOrbit, z: complex, tol: float) -> float:
    """The cocycle field at z inside the certified disk.

    The series runs between the backward orbit of z along the a-fixing
    principal branches and the backward orbit of z along c's realized
    branch germ (at each step the preimage closest to c's own realized
    point).  At z = a this is the plain cocycle against the fixed orbit.
    """
    _check_tol(tol)
    a = c.base.location
    sigma = c.sigma
    dz = abs(z - a)
    if dz >= sigma:
        raise DomainError("field evaluation point must lie inside the sigma-disk")
    eps = c.epsilon
    guide = [c]

    def pair_at(depth):
        guide[0] = guide[0].at(depth)
        principal, d_principal = _follow(z, eps, [a] * depth, sigma)
        germ, _ = _follow(z, eps, guide[0].points[1:])
        pair = []
        for pts, d in ((principal, [dz, *d_principal]), (germ, [abs(p - a) for p in germ])):
            outside = [j for j, x in enumerate(d) if x >= sigma]
            near = [j for j, p in enumerate(pts) if abs(p) <= CRITICAL_PROXIMITY]
            pair.append((pts, d, _entry_index(outside, len(d)), near, _signal_end(d, len(d))))
        return pair

    return _certified_series(a, sigma, tol, pair_at, len(c.prefix) + SERIES_DEPTH).value


def field_mean_value(c: OrbitWord | RealizedOrbit, tol: float) -> tuple[float, float]:
    """The field at z0 = a + 0.3*sigma and its mean-value residual, the
    distance to its average over 16 equally spaced points on the circle
    of radius sigma/10 about z0 (zero for a harmonic field).  c is
    realized once for all 17 values."""
    _check_tol(tol)
    c = c.at(len(c.prefix) + SERIES_DEPTH)
    z0 = c.base.location + 0.3 * c.sigma
    center = cocycle_field(c, z0, tol)
    r = c.sigma / 10.0
    ring = [
        cocycle_field(c, z0 + r * complex(math.cos(2 * math.pi * k / 16), math.sin(2 * math.pi * k / 16)), tol)
        for k in range(16)
    ]
    return center, abs(sum(ring) / 16.0 - center)


def _follow(z, eps, targets, sigma=None):
    """Backward orbit of z taking, at step j, the preimage nearer
    targets[j-1] (orbits._nearer), and the distance of each taken
    preimage to its target.  With sigma, every point must stay within
    sigma of its target (the principal sequence, whose targets are all
    a, so the distances are those to a); without, the two preimages must
    differ by a factor 2 in distance to the target, so the choice never
    rests on a near-tie."""
    pts = [z]
    dists = []
    w = z
    for j, t in enumerate(targets, 1):
        w, d, other = _nearer(cmath.sqrt(w - eps), t)
        if sigma is None and max(d, other) < 2.0 * min(d, other):
            raise DomainError(
                f"branch collision at depth {j} while restarting the word's"
                " choices: the germ does not separate the preimages here"
            )
        if sigma is not None and d >= sigma:
            raise DomainError(
                "principal inverse branch left the sigma-disk; the disk"
                " certificate does not cover this point"
            )
        pts.append(w)
        dists.append(d)
    return pts, dists


def make_density_report(
    pairs: list[tuple[float, float]], window: tuple[float, float]
) -> DensityReport:
    lo, hi = window
    if not hi > lo:
        raise ConfigError("window must be a nondegenerate interval")
    kept = sorted((v, b) for v, b in pairs if lo <= v <= hi)
    vals = [v for v, _ in kept]
    if not vals:
        max_gap = hi - lo
    else:
        gaps = [vals[0] - lo] + [b - a for a, b in zip(vals, vals[1:])] + [hi - vals[-1]]
        max_gap = max(gaps)
    return DensityReport(tuple(kept), (lo, hi), max_gap, len(kept))


def height_set(betas: list[CocycleValue], step: float, m_range: tuple[int, int]) -> DensityReport:
    """All heights beta + m*step over the cocycle values, clipped to the
    unit window HEIGHT_WINDOW; step is ln|lambda| of the words' common
    base point.  Only the shifts that can land in the window (one more
    on each side, against rounding) are built, so a wide m_range costs
    no more than a narrow one."""
    m_lo, m_hi = m_range
    if m_hi < m_lo:
        raise ConfigError("empty m_range")
    if not step > 0.0:
        raise PreconditionError(f"step must be positive, got {step!r}")
    lo, hi = HEIGHT_WINDOW
    pairs = []
    for b in betas:
        first = max(m_lo, math.ceil((lo - b.value) / step) - 1)
        last = min(m_hi, math.floor((hi - b.value) / step) + 1)
        pairs.extend((b.value + m * step, b.tail_bound) for m in range(first, last + 1))
    return make_density_report(pairs, HEIGHT_WINDOW)


def progression_density_check(
    B_sample: list[float],
    M: float,
    window: tuple[float, float],
    epsilon_net: float,
) -> ProgressionReport:
    """Does the finite shadow of the semigroup B + Z*M fill the window
    to within epsilon_net?

    Enumerates all nonempty sums of at most SUM_BUDGET sample values
    (with repetition), shifts each by every integer multiple of M that
    lands in the window, and measures the largest gap (window edges
    included).
    """
    if not B_sample:
        raise PreconditionError("B_sample must be nonempty")
    if M == 0:
        raise PreconditionError("M must be nonzero")
    k = len(B_sample)
    if math.comb(SUM_BUDGET + k, k) > ENUMERATION_CAP:
        raise ConfigError(
            f"{k} generators at sum budget {SUM_BUDGET} exceed the enumeration cap"
        )
    lo, hi = window
    step = abs(M)
    sums: list[float] = []

    def rec(i: int, remaining: int, acc: float, nonempty: bool):
        if i == k:
            if nonempty:
                sums.append(acc)
            return
        v = B_sample[i]
        total = acc
        for cnt in range(remaining + 1):
            rec(i + 1, remaining - cnt, total, nonempty or cnt > 0)
            total += v

    rec(0, SUM_BUDGET, 0.0, False)
    vals: list[float] = []
    for b in sums:
        m_first = math.ceil((lo - b) / step)
        m_last = math.floor((hi - b) / step)
        for m in range(m_first, m_last + 1):
            vals.append(b + m * step)
    vals.sort()
    if not vals:
        return ProgressionReport(False, hi - lo, 0.5 * (lo + hi), 0)
    gaps = [(vals[0] - lo, lo)] + [
        (b - a, a) for a, b in zip(vals, vals[1:])
    ] + [(hi - vals[-1], vals[-1])]
    max_gap, at = max(gaps, key=lambda g: g[0])
    return ProgressionReport(max_gap <= epsilon_net, max_gap, at + 0.5 * max_gap, len(vals))
