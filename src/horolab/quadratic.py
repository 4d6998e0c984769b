"""The quadratic family z**2 + epsilon: distinguished fixed point,
certified disk construction, excursion statistics, cocycle floor checks,
the sign-definite value semigroup, and semigroup convergence under
concatenation (limit_decomposition_check, the one routine that values
concatenated words against beta(y) + beta(c)).

The distinguished fixed point is a(eps) = (1 + sqrt(1 - 4 eps))/2, the
repelling one for real eps < 1/4.  All Julia-geometry checks in this
module hang off two certified radii: sigma, below which the map is
injective on D_sigma(a) with image covering the closed disk and with
the first three backward disks pairwise disjoint, and delta, half the
smallest log-derivative gap to |f'(a)| over sampled Julia points away
from those disks.  Univalence and covering are closed forms lowered by
a few ulps; disjointness is a dense boundary sample.  Each certificate
records its margin.

sample_words hands each admitted word on as the realization its
membership check made (MEMBERSHIP_DEPTH past the prefix); the value,
the excursion count and the decomposition checks continue it rather
than realize the word again.  bound_checks and sampled_heights each
serve a command and the criteria that check the same claim.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .cocycle import (
    ENUMERATION_CAP,
    SERIES_DEPTH,
    CocycleValue,
    DensityReport,
    _check_tol,
    cocycle_vs_fixed,
    height_set,
    make_density_report,
    values_vs_fixed,
)
from .errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    PreconditionError,
)
from .julia import JuliaSample, inverse_iteration_sample
from .maps import quadratic_map
from .orbits import (
    OrbitWord,
    RealizedOrbit,
    concatenate,
    is_in_Pi_a,
    realize,  # unused here; perfbench/test_perfbench.py checks the tracer restores it
    realize_batch,
    shift,
)
from .periodic import list_1_1_member, make_periodic_point

BRANCH_EXCEPTIONAL_TOL = 1e-10
CERT_MARGIN = 1e-6
SIGMA_FLOOR_FACTOR = 1e-4
NEAR_BOUNDARY_PROXIMITY = 1e-3
NORMALIZED_TOL = 1e-9
DEFAULT_MAX_PREFIX = 10
MEMBERSHIP_DEPTH = 80  # a word's membership is checked this far past its prefix
BATCH_MIN_ROWS = 32  # smaller chunks are realized word by word: a lockstep step costs ~20 numpy calls
BOUNDARY_SAMPLES = 1024  # points on each sampled disk boundary of the sigma certificates
SAMPLE_DEPTH = 40  # inverse-iteration depth of default_sigma_delta's Julia sample


# ---------------------------------------------------------------------------
# the distinguished fixed point and the exceptional parameters


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


def branch_exceptional(epsilon: complex) -> bool:
    """True when the critical value equals the non-fixed preimage -a of
    the fixed point, so every backward orbit off the fixed one dies on
    the critical point."""
    a = fixed_point_a(epsilon)
    return abs(-a - complex(epsilon)) < BRANCH_EXCEPTIONAL_TOL


# ---------------------------------------------------------------------------
# word construction for the family


@functools.lru_cache(maxsize=128)
def _family_base(eps: complex):
    return make_periodic_point(quadratic_map(eps), fixed_point_a(eps), 1)


def family_word(epsilon: complex, prefix: str, sigma: float | None = None) -> OrbitWord:
    """An orbit word at a(epsilon); sigma defaults to the certified
    radius (pass one explicitly for parameters where the certificate
    construction fails, such as the branch-exceptional point)."""
    eps = complex(epsilon)
    point = _family_base(eps)
    if sigma is None:
        sigma = find_sigma(eps)[0]
    return OrbitWord(eps, point, prefix, sigma)


def word_from_json(data: dict) -> OrbitWord:
    eps = complex(data["epsilon"][0], data["epsilon"][1])
    return family_word(eps, data["prefix"], data["sigma"])


def sample_words(
    epsilon: complex,
    n: int,
    seed: int,
    max_len: int = DEFAULT_MAX_PREFIX,
) -> list[RealizedOrbit]:
    """n distinct admissible words with seeded random prefixes.

    Every word is normalized, starting with '-' (first backward step to
    -a), the hypothesis under which excursion statistics are defined.  Each word
    comes as the realization its membership check made (MEMBERSHIP_DEPTH
    past the prefix), which reads like the word; the series engine and
    the excursion count continue it instead of realizing the word again.

    Candidates are drawn in chunks: as many draws as words are still
    needed, capped by what is left of the 80 * n attempt budget.  A
    chunk of at least BATCH_MIN_ROWS new prefixes is realized in one
    lockstep batch (realize_batch), and its rows are checked and
    admitted in draw order.  The draws do not depend on the verdicts and
    the generator is local, so the list, or the error, is bitwise that of
    drawing and checking one candidate at a time.
    """
    if n < 1 or max_len < 1:
        raise ConfigError(f"need n >= 1 words of max_len >= 1, got n={n}, max_len={max_len}")
    if n.bit_length() > max_len:  # n > 2**max_len - 1, the number of normalized prefixes
        raise ConfigError(
            f"{n} words requested, but only {2**max_len - 1} normalized prefixes"
            f" of length <= {max_len} exist"
        )
    rng = np.random.default_rng(seed)
    out: list[RealizedOrbit] = []
    seen: set[str] = set()
    attempts = 0
    while len(out) < n and attempts < 80 * n:
        chunk = min(n - len(out), 80 * n - attempts)
        attempts += chunk
        words = []
        for _ in range(chunk):
            length = int(rng.integers(1, max_len + 1))
            bits = rng.integers(0, 2, size=length)
            prefix = "-" + "".join(["+-"[b] for b in bits[1:].tolist()])  # normalized
            if prefix not in seen:
                seen.add(prefix)
                words.append(family_word(epsilon, prefix))
        depths = [len(w.prefix) + MEMBERSHIP_DEPTH for w in words]
        rows = realize_batch(words, depths) if len(words) >= BATCH_MIN_ROWS else words
        for row, depth in zip(rows, depths):
            mem = is_in_Pi_a(row, depth)
            if mem.member:
                out.append(mem.orbit)
    if len(out) < n:
        raise ConfigError(
            f"only {len(out)} of {n} admissible words found within the attempt budget"
        )
    return out


def normalize_word(word: OrbitWord) -> OrbitWord:
    """Shift until the first backward point is the non-fixed preimage -a."""
    k = 0
    while k < len(word.prefix) and word.prefix[k] == "+":
        k += 1
    if k == len(word.prefix):
        raise PreconditionError(
            "all-principal word realizes the fixed orbit; nothing to normalize"
        )
    return shift(word, -k) if k else word


# ---------------------------------------------------------------------------
# Julia containment and derivative extremality (real parameters)


@dataclass(frozen=True)
class ContainmentReport:
    epsilon: float
    radius: float  # |a(eps)|, the critical circle radius
    n: int
    violations: tuple[complex, ...]
    near_boundary: tuple[complex, ...]
    proximity_failures: tuple[complex, ...]
    max_excess: float  # largest signed crossing of the circle bound


def _real_family_pre(epsilon, sample: JuliaSample):
    eps = complex(epsilon)
    if eps.imag != 0.0:
        raise PreconditionError("containment checks are stated for real epsilon")
    if eps.real >= 0.25:
        raise PreconditionError("epsilon must be below 1/4")
    if list_1_1_member(eps):
        raise PreconditionError("epsilon 0 and -2 are excluded (degenerate geometry)")
    if not sample.points:
        raise PreconditionError("sample must be nonempty")
    return eps.real


def disk_containment_check(
    epsilon: float,
    sample: JuliaSample,
    tol: float,
) -> ContainmentReport:
    """Julia points against the circle |z| = a(eps): inside (closure)
    for eps < 0, outside for 0 < eps < 1/4; points within tol of the
    circle must cluster at +-a."""
    e = _real_family_pre(epsilon, sample)
    a = fixed_point_a(e).real
    violations = []
    near = []
    prox = []
    max_excess = -math.inf
    for z in sample.points:
        excess = (abs(z) - a) if e < 0 else (a - abs(z))
        max_excess = max(max_excess, excess)
        if excess > tol:
            violations.append(z)
        if excess > -tol:
            near.append(z)
            if min(abs(z - a), abs(z + a)) > NEAR_BOUNDARY_PROXIMITY:
                prox.append(z)
    return ContainmentReport(
        e, a, len(sample.points), tuple(violations), tuple(near), tuple(prox), max_excess
    )


@dataclass(frozen=True)
class ExtremalityReport:
    epsilon: float
    bound: float  # |f'(a)| = 2 a(eps)
    n: int
    max_abs_deriv: float
    min_abs_deriv: float
    violations: tuple[complex, ...]
    equality_failures: tuple[complex, ...]


def derivative_extremality_check(
    epsilon: float,
    sample: JuliaSample,
    tol: float,
) -> ExtremalityReport:
    """|f'| over the Julia sample is extremal at a(eps): a maximum for
    eps < 0, a minimum for 0 < eps < 1/4, with equality only near +-a."""
    e = _real_family_pre(epsilon, sample)
    a = fixed_point_a(e).real
    bound = 2.0 * a
    ds = [abs(2.0 * z) for z in sample.points]
    violations = []
    eq_fail = []
    for z, d in zip(sample.points, ds):
        bad = d > bound + tol if e < 0 else d < bound - tol
        if bad:
            violations.append(z)
        if abs(d - bound) <= tol and min(abs(z - a), abs(z + a)) > NEAR_BOUNDARY_PROXIMITY:
            eq_fail.append(z)
    return ExtremalityReport(
        e, bound, len(ds), max(ds), min(ds), tuple(violations), tuple(eq_fail)
    )


# ---------------------------------------------------------------------------
# the certified sigma / delta construction


@dataclass(frozen=True)
class SigmaDelta:
    epsilon: complex
    sigma: float
    delta: float
    certificates: dict


def _sigma_certificates(eps: complex, a: complex, sigma: float) -> dict:
    """Margins for the disk certificates at this sigma.

    univalence: the disk must avoid the critical point 0 (a disk of
    radius below |center| contains no antipodal pair, so z**2 is
    injective on it), margin |a| - sigma; covering: |f - a| on the
    boundary must exceed sigma while the image loop winds once about a.
    As f(z) - a = (z - a)(z + a), the minimum of |f - a| on the boundary
    is sigma*(2|a| - sigma), and the loop winds once whenever sigma <
    2|a|, which univalence implies.  Both margins are lowered by
    4 ulps so that each is a bound.  disjointness: the backward disk
    chain D_sigma(a), D', f^{-1}(D'), f^{-2}(D') must be pairwise
    separated, tested via bounding circles of the sampled boundary
    clouds around their known centers.
    """
    univalence = abs(a) - sigma
    univalence -= 4.0 * math.ulp(univalence)
    covering = sigma * (2.0 * abs(a) - sigma) - sigma
    covering -= 4.0 * math.ulp(covering)
    winding = float(1 + (2.0 * abs(a) < sigma))  # once per preimage (a, -a) of a in the disk
    theta = 2.0 * np.pi * np.arange(BOUNDARY_SAMPLES) / BOUNDARY_SAMPLES
    circle0 = a + sigma * np.exp(1j * theta)
    # boundary of D' (the preimage component of D_sigma(a) at -a)
    s1 = np.sqrt(circle0 - eps)
    cloud1 = np.where(np.abs(s1 + a) <= np.abs(-s1 + a), s1, -s1)
    # the two components of f^{-1}(D'), centered at the preimages of -a
    c2 = cmath.sqrt(-a - eps)
    centers2 = [c2, -c2]
    s2 = np.sqrt(cloud1 - eps)
    pts2 = np.concatenate([s2, -s2])
    # the four components of f^{-2}(D')
    centers3 = []
    for c in centers2:
        r = cmath.sqrt(c - eps)
        centers3.extend([r, -r])
    s3 = np.sqrt(pts2 - eps)
    pts3 = np.concatenate([s3, -s3])
    reject = {
        "univalence_margin": -1.0,
        "covering_margin": covering,
        "winding": winding,
        "disjointness_margin": -1.0,
    }
    regions = [(a, sigma), (-a, float(np.max(np.abs(cloud1 + a))))]
    for pts, centers in ((pts2, centers2), (pts3, centers3)):
        owner = np.argmin(np.abs(pts[:, None] - np.array(centers)[None, :]), axis=1)
        for i, c in enumerate(centers):
            cloud = pts[owner == i]
            if len(cloud) == 0:
                return reject
            regions.append((c, float(np.max(np.abs(cloud - c)))))
    disjoint = math.inf
    for (ci, ri), (cj, rj) in itertools.combinations(regions, 2):
        disjoint = min(disjoint, abs(ci - cj) - ri - rj)
    return {
        "univalence_margin": univalence,
        "covering_margin": covering,
        "winding": winding,
        "disjointness_margin": float(disjoint),
    }


def _admissible(cert: dict) -> bool:
    return (
        cert["univalence_margin"] >= CERT_MARGIN
        and cert["covering_margin"] >= CERT_MARGIN
        and cert["disjointness_margin"] >= CERT_MARGIN
    )


@functools.lru_cache(maxsize=128)
def find_sigma(epsilon: complex) -> tuple[float, dict]:
    """Largest certified sigma <= |a(eps)|/4, by bisection on the
    boundary-sampled certificates.  Fails when nothing above the floor
    1e-4*|a| is admissible (as at the branch-exceptional parameter,
    where the backward disks necessarily merge at the critical point)."""
    eps = complex(epsilon)
    a = fixed_point_a(eps)
    hi = abs(a) / 4.0
    cert = _sigma_certificates(eps, a, hi)
    if _admissible(cert):
        return hi, cert
    lo = SIGMA_FLOOR_FACTOR * abs(a)
    cert_lo = _sigma_certificates(eps, a, lo)
    if not _admissible(cert_lo):
        raise ConstructionError(
            f"no certified sigma above the floor {lo:.3e} at epsilon {eps}"
        )
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _admissible(_sigma_certificates(eps, a, mid)):
            lo = mid
        else:
            hi = mid
    return lo, _sigma_certificates(eps, a, lo)


def find_sigma_delta(epsilon: complex, sample: JuliaSample) -> SigmaDelta:
    """The certified sigma together with the log-derivative floor delta.

    delta is half the smallest |ln|f'(z)| - ln|f'(a)|| over sampled
    Julia points outside D_sigma(a) and D' (the preimage component of
    D_sigma(a) around -a) and other than 0; the sampled minimum sits
    above the true infimum over J, so the recorded margins carry the
    caveat that a denser sample can only shrink delta.

    The sample is taken as arrays of real and imaginary parts, and the
    exclusions are formed as CPython forms them on complex numbers: each
    |.| is np.hypot of the parts, as abs(complex) is, and z*z + eps - a
    is taken from the parts.  np.log may differ from math.log in the
    last bits (a SIMD log), so it only picks the candidates for the
    minimum, the points whose gap is within a few ulps of the smallest;
    delta is then 0.5 * min of the math.log gaps over those, the value a
    loop over every point in math.log gives.  The points are finite.
    """
    eps = complex(epsilon)
    if list_1_1_member(eps):
        raise PreconditionError("sigma/delta construction excludes epsilon in {0, -2}")
    if not sample.points:
        raise PreconditionError("need a nonempty Julia sample")
    if sample.epsilon != eps:
        raise PreconditionError("sample was drawn for a different epsilon")
    sigma, cert = find_sigma(eps)
    a = fixed_point_a(eps)
    base = math.log(2.0 * abs(a))
    z = np.array(sample.points, dtype=complex)
    zr, zi = z.real, z.imag
    dist = np.hypot(zr - a.real, zi - a.imag)
    image = np.hypot(zr * zr - zi * zi + eps.real - a.real, zr * zi + zi * zr + eps.imag - a.imag)
    in_d_prime = (image < sigma) & (np.hypot(zr + a.real, zi + a.imag) < dist)
    modulus = np.hypot(zr, zi)[~((dist < sigma) | in_d_prime | ((zr == 0) & (zi == 0)))]
    if not len(modulus):
        raise ConstructionError("no sampled Julia points outside the excluded disks")
    gaps = np.abs(np.log(2.0 * modulus) - base)
    least = gaps.min()
    # the math.log gap and the np.log gap of a point differ by a few ulps
    # of |log| (about |base| + gap near the minimum) at most, so the
    # points that can hold the least math.log gap lie within twice that
    near = modulus[gaps <= least + 16 * np.spacing(abs(base) + least)]
    delta = 0.5 * min(abs(math.log(2.0 * r) - base) for r in near.tolist())
    if delta <= 0.0:
        raise ConstructionError("sampled log-derivative floor is not positive")
    certs = dict(cert)
    certs["delta_sample_size"] = float(len(modulus))
    return SigmaDelta(eps, sigma, delta, certs)


def default_sigma_delta(epsilon: complex, seed: int, n_points: int = 10000) -> SigmaDelta:
    """find_sigma_delta over a fresh seeded inverse-iteration sample of
    SAMPLE_DEPTH steps per path."""
    eps = complex(epsilon)
    sample = inverse_iteration_sample(eps, n_points, SAMPLE_DEPTH, seed)
    return find_sigma_delta(eps, sample)


# ---------------------------------------------------------------------------
# excursion statistics and the cocycle floor


@dataclass(frozen=True)
class ExcursionStats:
    word: OrbitWord
    sigma: float  # radius of the disk the excursions leave
    J_indices: tuple[int, ...]  # last in-disk index before each exit
    K_indices: tuple[int, ...]  # first in-disk index after each excursion
    s: int  # excursion count
    d: int  # total time spent outside the disk (depth indices >= 1)


def excursion_stats(word: OrbitWord | RealizedOrbit, sigma: float) -> ExcursionStats:
    """Leaving/return indices of the realized orbit against the disk of
    radius sigma at a (a certified one: SigmaDelta.sigma).  The orbit is
    the one the series is summed along, SERIES_DEPTH past the prefix.
    Requires the normalized form (first backward point at -a);
    normalize_word performs the shift."""
    orb = word.at(len(word.prefix) + SERIES_DEPTH)
    a = word.base.location
    if abs(orb.points[1] + a) > NORMALIZED_TOL * (1.0 + abs(a)):
        raise PreconditionError(
            "word is not normalized (y_{-1} != -a); apply normalize_word first"
        )
    inside = [d < sigma for d in orb.dists]
    J = [j for j in range(orb.depth) if inside[j] and not inside[j + 1]]
    K = [j for j in range(1, orb.depth + 1) if not inside[j - 1] and inside[j]]
    d = sum(1 for j in range(1, orb.depth + 1) if not inside[j])
    return ExcursionStats(word.word, sigma, tuple(J), tuple(K), len(J), d)


@dataclass(frozen=True)
class BoundCheck:
    ok: bool
    margin: float  # |beta| - tail_bound - delta_used * d
    beta: CocycleValue
    stats: ExcursionStats
    delta_used: float


def cocycle_lower_bound_check(word: OrbitWord | RealizedOrbit, sd: SigmaDelta, tol: float) -> BoundCheck:
    """Certified check of |beta| > delta * d.  The excursions and the
    value come from one realization of the word."""
    orb = word.at(len(word.prefix) + SERIES_DEPTH)
    return lower_bound(cocycle_vs_fixed(orb, tol), excursion_stats(orb, sd.sigma), sd)


def lower_bound(beta: CocycleValue, stats: ExcursionStats, sd: SigmaDelta) -> BoundCheck:
    """The check of |beta| > delta * d for a value and excursion count
    already computed; the excursions must leave sd's disk.

    When the word's parameter differs from the one delta was computed
    at (the complex-perturbation regime, where sigma/delta come from
    the nearby real parameter), the floor is delta/2.
    """
    if stats.sigma != sd.sigma:
        raise PreconditionError(
            f"excursions counted against radius {stats.sigma!r}, not sd.sigma {sd.sigma!r}"
        )
    delta_used = sd.delta if stats.word.epsilon == sd.epsilon else 0.5 * sd.delta
    margin = abs(beta.value) - beta.tail_bound - delta_used * stats.d
    return BoundCheck(margin > 0.0, margin, beta, stats, delta_used)


def bound_checks(
    epsilon: complex, n_words: int, seed: int, max_len: int, tol: float
) -> tuple[SigmaDelta, list[BoundCheck]]:
    """sigma and delta at Re(epsilon), and the check of |beta| > delta * d
    for n_words seeded words at epsilon (the bound-528 command and
    criterion 12).  Each word is continued to its series start once, for
    its excursions and its value; the values come in one batch."""
    eps = complex(epsilon)
    sd = default_sigma_delta(complex(eps.real, 0.0), seed)
    orbs = [w.at(len(w.prefix) + SERIES_DEPTH) for w in sample_words(eps, n_words, seed, max_len)]
    betas = values_vs_fixed(orbs, tol)
    return sd, [lower_bound(b, excursion_stats(o, sd.sigma), sd) for b, o in zip(betas, orbs)]


# ---------------------------------------------------------------------------
# the value semigroup


def build_B_epsilon(
    epsilon: complex,
    word_budget: int,
    l_max: int,
    tol: float,
    seed: int,
) -> DensityReport:
    """Sums of up to l_max single-word cocycle values over a seeded
    word sample, as a density report whose window touches 0 so the gap
    at the origin exposes the sign-definite floor."""
    eps = complex(epsilon)
    if list_1_1_member(eps):
        raise PreconditionError("B is degenerate at epsilon in {0, -2}")
    if eps.real == 0.0:
        raise PreconditionError("Re epsilon must have a definite sign")
    if l_max < 1:
        raise ConfigError("l_max must be >= 1")
    total = sum(math.comb(word_budget + l - 1, l) for l in range(1, l_max + 1))
    if total > ENUMERATION_CAP:
        raise ConfigError(f"{total} sums exceed the enumeration cap {ENUMERATION_CAP}")
    return value_sums(values_vs_fixed(sample_words(eps, word_budget, seed), tol), l_max)


def sampled_heights(
    epsilon: complex, n_words: int, seed: int, max_len: int, tol: float, m_span: int
) -> tuple[list[CocycleValue], DensityReport]:
    """The values of n_words seeded words against the fixed orbit and
    their height set over shifts -m_span..m_span (the heights command,
    criteria 3 and 10).  The sampled orbits go before the height set is
    built."""
    words = sample_words(epsilon, n_words, seed, max_len)
    step = math.log(abs(words[0].base.multiplier))
    values = values_vs_fixed(words, tol)
    del words
    return values, height_set(values, step, (-m_span, m_span))


def value_sums(betas: list[CocycleValue], l_max: int) -> DensityReport:
    """The density report of build_B_epsilon over values already computed."""
    pairs: list[tuple[float, float]] = []
    for l in range(1, l_max + 1):
        for combo in itertools.combinations_with_replacement(range(len(betas)), l):
            pairs.append(
                (
                    sum(betas[i].value for i in combo),
                    sum(betas[i].tail_bound for i in combo),
                )
            )
    vmin = min(v for v, _ in pairs)
    vmax = max(v for v, _ in pairs)
    window = (min(0.0, vmin), max(0.0, vmax))
    return make_density_report(pairs, window)


# ---------------------------------------------------------------------------
# limit decompositions


WINDOW_DEPTH = 8  # post-junction steps compared with c's own orbit
FINAL_DEFECT_TARGET = 1e-8  # defect at the last junction of a converged sequence
NESTED_DEFECT_TARGET = 1e-6
RATE_FLOOR = 1e-11  # defects at or below this are rounding, not decay


@dataclass(frozen=True)
class LimitDecomposition:
    sequence_id: str
    l: int
    nu_indices: tuple[tuple[int, ...], ...]  # per sequence member
    component_words: tuple[OrbitWord | RealizedOrbit, ...]  # y as realized for its value, then c
    component_betas: tuple[CocycleValue, ...]
    c: RealizedOrbit  # as realized for beta_c and as the window's guide
    beta_c: CocycleValue  # zero for a fixed-orbit c
    tol: float  # every value's tolerance
    sequence_betas: tuple[CocycleValue, ...]
    defects: tuple[float, ...]
    nu_tail_distances: tuple[float, ...]  # |point at the last junction - a|
    window_sup: tuple[float, ...]  # sup over the window of distance to c's orbit
    limit_value: float
    rate: float | None  # fitted geometric decay of the defect, where measurable
    defects_decreasing: bool
    nu_distances_decreasing: bool
    windows_converging: bool
    converged: bool


def _window_sup(worb: RealizedOrbit, offset: int, guide: RealizedOrbit) -> float:
    return max(abs(worb.points[offset + t] - guide.points[t]) for t in range(WINDOW_DEPTH + 1))


def _decreasing(xs: tuple[float, ...]) -> bool:
    return all(b <= a * (1.0 + 1e-6) + 1e-12 for a, b in zip(xs, xs[1:]))


def _fit_rate(junctions, defects) -> float | None:
    pts = [(j, math.log(d)) for j, d in zip(junctions, defects) if d > RATE_FLOOR]
    if len(pts) < 2:
        return None
    xs = np.array([p[0] for p in pts])
    ys = np.array([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return math.exp(slope)


def limit_decomposition_check(
    y: OrbitWord | RealizedOrbit,
    c: OrbitWord | RealizedOrbit,
    junction_sequence: list[int],
    tol: float,
) -> LimitDecomposition:
    """The word sequence concat(y, c, j_n) against its two-component
    limit: beta values must converge to beta(y) + beta(c), the junction
    points must fall into a geometrically, and the post-junction window
    must track c's realized orbit.  The defect
    |beta(concat(y, c, j)) - beta(y) - beta(c)| decays like the distance
    from y's depth-j point to a; its fitted geometric rate is reported
    where the defect is above rounding scale.  A fixed-orbit c
    degenerates to the one-component decomposition with limit beta(y).
    y, c and each concatenated word are realized once, and beta(y),
    beta(c) and the sequence's values come in one batch."""
    junctions = list(junction_sequence)
    if junctions != sorted(junctions) or len(set(junctions)) != len(junctions):
        raise PreconditionError("junction sequence must be strictly increasing")
    _check_tol(tol)
    y = y.at(len(y.prefix) + SERIES_DEPTH)
    c = c.at(len(c.prefix) + SERIES_DEPTH)
    degenerate = is_in_Pi_a(c, c.depth).reason == "fixed-orbit"
    words = [concatenate(y, c, j) for j in junctions]
    values = values_vs_fixed([y, *([] if degenerate else [c]), *words], tol)
    beta_y = values[0]
    beta_c = CocycleValue(0.0, 0.0, 0) if degenerate else values[1]
    betas = values[1 if degenerate else 2 :]
    expected = beta_y.value + beta_c.value
    defects = [abs(b.value - expected) for b in betas]
    worbs = [w.at(j + len(c.prefix) + WINDOW_DEPTH + 20) for w, j in zip(words, junctions)]
    nu_dist = [worb.dists[j] for worb, j in zip(worbs, junctions)]
    wsup = [_window_sup(worb, j, c) for worb, j in zip(worbs, junctions)]
    if degenerate:
        l, comps, comp_betas = 1, (y,), (beta_y,)
        nus = tuple((0,) for _ in junctions)
    else:
        l, comps, comp_betas = 2, (y, c), (beta_y, beta_c)
        nus = tuple((0, j) for j in junctions)
    return LimitDecomposition(
        sequence_id=f"concat({y.prefix!r},{c.prefix!r})@{junctions}",
        l=l,
        nu_indices=nus,
        component_words=comps,
        component_betas=comp_betas,
        c=c,
        beta_c=beta_c,
        tol=tol,
        sequence_betas=tuple(betas),
        defects=tuple(defects),
        nu_tail_distances=tuple(nu_dist),
        window_sup=tuple(wsup),
        limit_value=expected,
        rate=_fit_rate(junctions, defects),
        defects_decreasing=_decreasing(tuple(defects)),
        nu_distances_decreasing=_decreasing(tuple(nu_dist)),
        windows_converging=_decreasing(tuple(wsup)),
        converged=bool(defects) and defects[-1] <= FINAL_DEFECT_TARGET,
    )


def nested_decomposition_check(two: LimitDecomposition, junction: int) -> LimitDecomposition:
    """Three-component variant of limit_decomposition_check's result two
    for y and c: concat(concat(y, c, j), c, 2j) against beta(y) +
    2*beta(c), with the realizations of y and c, both values and the
    tolerance taken from two.  w2 is realized once."""
    y, beta_y, c, beta_c = two.component_words[0], two.component_betas[0], two.c, two.beta_c
    w1 = concatenate(y, c, junction)
    w2 = concatenate(w1, c, 2 * junction)
    expected = beta_y.value + 2.0 * beta_c.value
    b2 = cocycle_vs_fixed(w2, two.tol)
    defect = abs(b2.value - expected)
    worb = w2.at(2 * junction + len(c.prefix) + WINDOW_DEPTH + 20)
    return LimitDecomposition(
        sequence_id=f"nested({y.prefix!r},{c.prefix!r})@{junction}",
        l=3,
        nu_indices=((0, junction, 2 * junction),),
        component_words=(y, c, c),
        component_betas=(beta_y, beta_c, beta_c),
        c=c,
        beta_c=beta_c,
        tol=two.tol,
        sequence_betas=(b2,),
        defects=(defect,),
        nu_tail_distances=(worb.dists[2 * junction],),
        window_sup=(_window_sup(worb, 2 * junction, c),),
        limit_value=expected,
        rate=None,
        defects_decreasing=True,
        nu_distances_decreasing=True,
        windows_converging=True,
        converged=defect <= NESTED_DEFECT_TARGET,
    )
