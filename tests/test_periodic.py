import cmath
import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import periodic
from horolab.errors import ConfigError, ConstructionError, PreconditionError, RootFindingError
from horolab.periodic import (
    MAX_FAMILY_PERIOD,
    base_point,
    build_linearizer,
    classify,
    collinearity_in_linearizer,
    fixed_point_a,
    make_periodic_point,
    periodic_points,
    preimage_points,
)
from horolab.quadratic import family_word


def test_classification_tags():
    assert classify(0.0) == "superattracting"
    assert classify(0.5) == "attracting"
    assert classify(3.0) == "repelling"
    assert classify(1.0) == "parabolic"
    assert classify(cmath.exp(2j)) == "indifferent"


def classify_by_powers(m):
    """classify with every power tried, as it was before the modulus guard."""
    m = complex(m)
    if abs(m) < periodic.SUPERATTRACTING_TOL:
        return "superattracting"
    power = m
    for _ in range(periodic.PARABOLIC_ORDER_BOUND):
        if abs(power - 1.0) < periodic.PARABOLIC_TOL:
            return "parabolic"
        power *= m
    if abs(m) < 1.0:
        return "attracting"
    if abs(m) > 1.0:
        return "repelling"
    return "indifferent"


@pytest.mark.parametrize(
    "m",
    [1 + 2e-8, 1 - 2e-8, 1 + 1e-8, 1 - 1e-8, -1.0, complex("nan"), complex("inf"), cmath.exp(2j * math.pi / 3)],
)
def test_classify_modulus_guard_keeps_the_class(m):
    assert classify(m) == classify_by_powers(m)


def test_cluster_scan_cut_keeps_the_clusters():
    """Stopping each scan at the merge radius in real part gives the same
    clusters as scanning every later root."""

    def cluster_by_full_scan(roots):
        remaining = sorted(roots, key=lambda z: (z.real, z.imag))
        out, used = [], [False] * len(remaining)
        for i, z in enumerate(remaining):
            if used[i]:
                continue
            members, used[i] = [z], True
            for j in range(i + 1, len(remaining)):
                w = remaining[j]
                if not used[j] and abs(w - z) <= periodic.CLUSTER_REL_TOL * (1.0 + abs(z)):
                    members.append(w)
                    used[j] = True
            out.append((sum(members) / len(members), len(members)))
        return out

    rng = random.Random(5)
    # real parts on a grid a fraction of the merge radius apart, so that
    # many roots share a real part and many pairs lie near the radius
    step = 0.3 * periodic.CLUSTER_REL_TOL
    roots = [complex(rng.randrange(40) * step - 1.0, rng.randrange(40) * step) for _ in range(400)]
    assert cluster_pairs(periodic._cluster(roots)) == cluster_by_full_scan(roots)
    assert any(m > 1 for _, m in cluster_pairs(periodic._cluster(roots)))


def cluster_pairs(clustered):
    """_cluster's centres and multiplicities as (complex, int) pairs."""
    centres, multiplicities = clustered
    return list(zip(centres.tolist(), multiplicities.tolist()))


def reference_cluster(roots):
    """_cluster as it was, one root at a time: the reference its array
    pass must match repr for repr, as (centre, multiplicity) pairs."""
    remaining = sorted(roots, key=lambda z: (z.real, z.imag))
    out, used = [], [False] * len(remaining)
    for i, z in enumerate(remaining):
        if used[i]:
            continue
        members, used[i] = [z], True
        radius = periodic.CLUSTER_REL_TOL * (1.0 + abs(z))
        for j in range(i + 1, len(remaining)):
            w = remaining[j]
            if w.real - z.real > radius:
                break
            if used[j]:
                continue
            if abs(w - z) <= radius:
                members.append(w)
                used[j] = True
        out.append((sum(members) / len(members), len(members)))
    return out


@pytest.mark.parametrize(
    "eps",
    [-3.0, -1.1, complex(-0.525, 0.16), complex(-1, 0.02), complex(-1, -0.0), -0.75, -1.75],
    ids=repr,
)
def test_cluster_matches_the_loop_on_the_solved_roots(eps, monkeypatch):
    """The roots at periods 1 to 9 (period 1 in closed form, the rest
    Aberth's, solved directly, as -3 takes the branch words in
    periodic_points), clustered by the array pass and by the loop."""
    seen = []
    cluster = periodic._cluster
    monkeypatch.setattr(periodic, "_cluster", lambda z: seen.append(z.copy()) or cluster(z))
    periodic._family_periodic_roots(eps, 1)
    for p in range(2, 10):
        periodic._aberth_roots(eps, p)
    assert len(seen) == 9
    for z in seen:
        assert repr(cluster_pairs(cluster(z))) == repr(reference_cluster([complex(x) for x in z]))


@pytest.mark.parametrize(
    "roots",
    [
        [1.0 + 0.5j, 1.0 + 1e-7 + 0.5j, -2.0 + 0j],  # a merged pair
        [0.0j, 5e-7 + 1e-7j, 9e-7 - 2e-7j, 3e-6 + 0j],  # the first radius covers the next two
        [0.3 + 0.4j, 0.3 - 0.4j, -1 + 2j, -1 - 2j, 0.3 + 0j],  # conjugate pairs, equal real parts
        [0.3 + 1e-8j, 0.3 - 1e-8j],  # a conjugate pair within the radius
        [complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.0, -0.0), complex(-1.5, -0.0)],
        [complex(-0.0, 0.5), complex(-0.0, 0.5 + 1e-9)],
        [0j, periodic.CLUSTER_REL_TOL + 0j],  # exactly on the radius
        [],
    ],
    ids=[
        "merged-pair",
        "covers-two",
        "conjugates",
        "close-conjugates",
        "negative-zeros",
        "negative-zero-pair",
        "on-the-radius",
        "empty",
    ],
)
def test_cluster_matches_the_loop_on_built_roots(roots):
    assert repr(cluster_pairs(periodic._cluster(roots))) == repr(reference_cluster(roots))


def test_fixed_points_of_squaring_map():
    pts = periodic_points(complex(0.0), 1)
    locs = sorted((p.location for p in pts), key=lambda z: z.real)
    assert abs(locs[0]) < 1e-9 and abs(locs[1] - 1) < 1e-9
    by_loc = {round(p.location.real): p for p in pts}
    assert by_loc[0].classification == "superattracting"
    assert by_loc[1].classification == "repelling"
    assert abs(by_loc[1].multiplier - 2) < 1e-9


def test_periodic_points_squaring_map_period_2_and_3():
    """For z**2 the period-n points are the (2**n - 1)-th roots of unity
    of exact order; period 2 gives the primitive cube roots, period 3 the
    primitive 7th roots."""
    f = complex(0.0)
    p2 = periodic_points(f, 2)
    assert len(p2) == 2
    for p in p2:
        assert abs(p.location ** 3 - 1) < 1e-8
        assert abs(p.location - 1) > 0.5
    p3 = periodic_points(f, 3)
    assert len(p3) == 6
    for p in p3:
        assert abs(p.location ** 7 - 1) < 1e-8
        assert p.classification == "repelling"


def test_minimal_period_filter():
    # fixed points must not reappear as period-2 points
    f = complex(-1.0)
    locs2 = [p.location for p in periodic_points(f, 2)]
    for q in periodic_points(f, 1):
        assert all(abs(q.location - z) > 1e-6 for z in locs2)


def test_make_periodic_point_polishes_residual():
    f = complex(-1.0)
    a = (1 + math.sqrt(5)) / 2
    p = make_periodic_point(f, a + 1e-7, 1)
    assert abs(p.location * p.location + f - p.location) < 1e-11
    assert p.classification == "repelling"


def test_make_periodic_point_rejects_non_periodic():
    with pytest.raises(ConstructionError):
        make_periodic_point(complex(-1.0), 0.3 + 0.4j, 1)


@pytest.mark.parametrize("period", [0, -1])
def test_make_periodic_point_rejects_period_below_1(period):
    with pytest.raises(ConfigError):
        make_periodic_point(complex(-1.0), (1 + math.sqrt(5)) / 2, period)


@pytest.mark.parametrize("eps", [-3.0, -1.0, complex(-0.525, 0.16)])
def test_words_and_linearizers_share_the_base_point(eps):
    point = base_point(eps)
    assert point == make_periodic_point(complex(eps), fixed_point_a(eps), 1)
    assert family_word(eps, "-").base is point
    assert build_linearizer(complex(eps), point).point is point


def test_linearizer_rejects_attracting_base():
    f = complex(0.0)
    p = make_periodic_point(f, 0.0, 1)
    with pytest.raises(PreconditionError):
        build_linearizer(f, p)


def test_preimage_points_deterministic_order():
    f = complex(0.1)
    a = preimage_points(f, 0.5)
    b = preimage_points(f, 0.5)
    assert a == b
    for r in a:
        assert abs(r * r + f - 0.5) < 1e-9


def test_linearizer_functional_equation():
    for eps in (-3.0, -1.0, 0.1):
        f = complex(eps)
        a = (1 + cmath.sqrt(1 - 4 * eps)) / 2
        p = make_periodic_point(f, a, 1)
        lin = build_linearizer(f, p)
        worst = 0.0
        for k in range(12):
            z = complex(p.location) + lin.radius * 0.4 * cmath.exp(1j * k)
            worst = max(worst, abs(lin(z * z + f) - lin.multiplier * lin(z)))
        assert worst < 1e-9


@pytest.mark.parametrize(
    "f, a, exact",
    [
        (complex(0.0), 1.0, cmath.log),
        (complex(-2.0), 2.0, lambda z: cmath.acosh(z / 2) ** 2),
    ],
    ids=["z**2", "z**2-2"],
)
def test_linearizer_matches_exact_koenigs_coordinate(f, a, exact):
    lin = build_linearizer(f, make_periodic_point(f, a, 1))
    worst = 0.0
    for k in range(12):
        for s in (0.25, 0.5, 0.75, 1.0):
            z = a + lin.radius * s * cmath.exp(1j * (k + 0.5))
            worst = max(worst, abs(lin(z) - exact(z)))
    assert worst < 1e-13


def test_linearizer_disk_excludes_critical_values():
    """At eps 0.1 the first radius (1 + |a|)/2 = 0.944 holds the critical
    value eps, |a - eps| = |a|**2 = 0.787 from a, so the disk halves."""
    eps = complex(0.1)
    point = make_periodic_point(eps, (1 + cmath.sqrt(0.6)) / 2, 1)
    first = 0.5 * (1.0 + abs(point.location))
    assert abs(eps - point.location) == pytest.approx(abs(point.location) ** 2, rel=1e-15)
    assert first >= abs(point.location) ** 2
    assert build_linearizer(eps, point).radius == first / 2


def test_linearizer_rejects_a_periodic_base_before_any_radius(monkeypatch):
    """A repelling period-2 point (1 at eps -3, multiplier -8) raises
    PreconditionError, and no linearizer is built for it."""
    eps = complex(-3.0)
    point = make_periodic_point(eps, 1.0, 2)
    assert point.classification == "repelling"
    monkeypatch.setattr(periodic, "Linearizer", None)
    with pytest.raises(PreconditionError, match="repelling fixed point"):
        build_linearizer(eps, point)


# The disk grid: Re eps from -3 to 0.25 in steps of 0.05 by Im eps, where
# fixed_point_a is defined (not at the real 0.25), and parameters near the
# parabolic 0.25, at parabolic cycles, at tiny and signed-zero parts.
DISK_GRID = [
    complex(k / 20, im) for im in (0.0, 0.1, 0.3, 0.5, 0.8) for k in range(-60, 6) if complex(k / 20, im) != 0.25
] + [0.1, 0.2, 0.24, 0.249, 0.2499999, -0.75, -1.75, -1.9, -2.0, 1e-300j, complex(-1.0, -0.0),
     -0.525 + 0.16j, 0.26 + 0.3j, -2.5 + 1.2j]


def sampled_disk(eps, point, pullback):
    """build_linearizer's radius as 64 boundary samples decided it before
    the closed form, the reference it must equal bit for bit, and the
    largest sampled |g(z) - a| at that radius."""
    a = complex(point.location)
    target = (1.0 / abs(point.multiplier) + 1.0) / 2.0
    r = 0.5 * (1.0 + abs(point.location))
    for _ in range(60):
        if abs(eps - a) > r:
            dists = [abs(pullback(a + r * cmath.exp(2j * math.pi * k / 64)) - a) for k in range(64)]
            if not any(d > target * r for d in dists):
                return r, max(dists)
        r *= 0.5


def sqrt_bounds(x):
    """Rationals lo <= sqrt(x) <= hi, within 2**-64 relative, for a rational x >= 0."""
    if x == 0:
        return x, x
    k = max(0, 64 - (x.numerator.bit_length() - x.denominator.bit_length()) // 2)
    n = x * 4**k
    lo = math.isqrt(n.numerator // n.denominator)
    return Fraction(lo, 2**k), Fraction(lo + 1, 2**k)


def test_linearizer_disk_matches_the_sampler_and_the_closed_form():
    """Over the grid the closed-form radius is the sampler's, bit for bit.
    At it, the pullback where u is antiparallel to a (z - a = -r (a/|a|)**2)
    meets the closed form rho = |a| - sqrt(|a|**2 - r) within a few ulps of
    |a|, no sampled pullback exceeds it by more, and the disk test holds in
    exact rational arithmetic, with |a - a*| bounded by the exact residual."""
    for p in DISK_GRID:
        eps = complex(p)
        point = make_periodic_point(eps, fixed_point_a(p), 1)
        lin = build_linearizer(eps, point)
        r, a = lin.radius, complex(point.location)
        sampled_r, sampled_max = sampled_disk(eps, point, lin._pullback)
        assert r == sampled_r, p
        rho = r / (abs(a) + math.sqrt(abs(a) ** 2 - r))
        unit = a / abs(a)
        assert abs(abs(lin._pullback(a - r * unit * unit) - a) - rho) <= 4 * math.ulp(abs(a)), p
        assert sampled_max <= rho + 4 * math.ulp(abs(a)), p
        ar, ai, er, ei = (Fraction(x) for x in (a.real, a.imag, eps.real, eps.imag))
        residual2 = (ar * ar - ai * ai - ar + er) ** 2 + (2 * ar * ai - ai + ei) ** 2
        e = sqrt_bounds(4 * residual2 / ((2 * ar - 1) ** 2 + (2 * ai) ** 2))[1]
        m = sqrt_bounds(ar * ar + ai * ai)[0] - e
        t = Fraction((1.0 / abs(point.multiplier) + 1.0) / 2.0 * r) - e
        assert 0 <= t and Fraction(r) + e <= t * (2 * m - t), p


@settings(deadline=None, max_examples=60)
@given(
    re=st.floats(-3.0, 0.2499),
    im=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
    s=st.floats(0.0, 1.0),
    theta=st.floats(0.0, 2 * math.pi),
)
def test_pullback_is_the_a_fixing_branch_on_the_disk(re, im, s, theta):
    """On the certified disk _pullback is the branch fixing a: it lands
    within rho(r) = |a| - sqrt(|a|**2 - r) of a, and the other preimage
    -(a + u) lies at least 2|a| - rho(r) from a."""
    eps = complex(re, im)
    point = make_periodic_point(eps, fixed_point_a(eps), 1)
    lin = build_linearizer(eps, point)
    a, r = complex(point.location), lin.radius
    rho = r / (abs(a) + math.sqrt(abs(a) ** 2 - r))
    u = lin._pullback(a + s * r * cmath.exp(1j * theta)) - a
    assert abs(u) <= rho + 4 * math.ulp(abs(a))
    assert abs(-(a + u) - a) >= 2 * abs(a) - rho - 4 * math.ulp(abs(a))


# Every parameter at which tools/same_outputs.sh builds a linearizer.
SAME_OUTPUTS_LINEARIZERS = [-1.0, -0.525 + 0.16j, complex(-1.0, -0.0), 0.1, 0.2499999, 1e-300j, -3.0, 0.2]


@pytest.mark.parametrize("p", SAME_OUTPUTS_LINEARIZERS)
def test_schroeder_coefficients_meet_the_koebe_cauchy_bound(p):
    """phi is univalent on the certified disk with phi'(a) = 1, so Koebe's
    growth theorem gives |phi| <= 0.9r/0.01 on D_0.9r(a), and the Cauchy
    estimate there |d_n| (0.9r)**n <= 0.9r/0.01: the bound behind
    SERIES_TERMS."""
    eps = complex(p)
    lin = build_linearizer(eps, make_periodic_point(eps, fixed_point_a(p), 1))
    rho = 0.9 * lin.radius
    assert all(abs(d) * rho**n <= rho / 0.01 for n, d in enumerate(lin._coeffs))


@pytest.mark.parametrize("a", [complex(1.618, 0.0), complex(-1.3, -0.0), complex(-0.0, -0.7), complex(0.6, 0.3)])
def test_linearizer_multiplier_is_the_derivative_at_a(a):
    """lambda = f'(a) bit for bit, signs of zero parts included: the
    multiplier the polish's walk of a period-1 cycle takes at a."""
    lam, _ = periodic._schroeder_series(a)
    _, _, mr, mi = periodic._walk_rows(0j, np.array([a.real]), np.array([a.imag]), 1)
    assert complex_bits(lam) == complex_bits(complex(mr[0], mi[0]))


def test_non_finite_roots_raise(monkeypatch):
    monkeypatch.setattr(periodic, "_aberth", lambda z, newton: np.full_like(z, complex("nan")))
    with pytest.raises(RootFindingError):
        periodic_points(complex(-1.1), 4)


def reference_aberth(z, newton):
    """_aberth as it was, with two fresh n x n arrays per iteration: the
    reference the one reused buffer must match bit for bit."""
    tiny = 1e-300
    for _ in range(periodic.ABERTH_MAX_ITER):
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
    for _ in range(4):
        p, dp = newton(z)
        mask = np.abs(dp) > tiny
        z = np.where(mask, z - p / np.where(mask, dp, 1.0), z)
    return z


@pytest.mark.parametrize(
    "eps",
    [-3.0, -1.1, complex(-0.525, 0.16), complex(-1, 0.02), complex(-1, -0.0), -0.75, -1.75],
    ids=repr,
)
def test_aberth_buffer_matches_fresh_arrays(eps, monkeypatch):
    """Roots and multiplicities of the Aberth solve at periods 2 to 9,
    repr for repr, as the Aberth iteration with fresh arrays gives them
    (solved directly: periodic_points takes the branch words at -3)."""
    solved = [cluster_pairs(periodic._aberth_roots(eps, p)) for p in range(2, 10)]
    monkeypatch.setattr(periodic, "_aberth", reference_aberth)
    for p, roots in enumerate(solved, 2):
        assert repr(roots) == repr(cluster_pairs(periodic._aberth_roots(eps, p))), p


def test_aberth_buffer_fails_as_fresh_arrays_do(monkeypatch):
    with pytest.raises(ConstructionError) as changed:
        periodic_points(-2.0, 8)
    monkeypatch.setattr(periodic, "_aberth", reference_aberth)
    with pytest.raises(ConstructionError) as reference:
        periodic_points(-2.0, 8)
    assert str(changed.value) == str(reference.value)


def reference_iterated_newton(eps, period):
    """_iterated_newton as it was, every step through the masks: the
    reference the whole-array step must match bit for bit."""

    def newton(z0):
        z = z0.copy()
        d = np.ones_like(z0)
        tail = np.ones(len(z0))
        for _ in range(period):
            live = np.abs(z) <= periodic.ESCAPE_MODULUS
            tail[~live] *= 2.0
            zl = z[live]
            d[live] *= 2.0 * zl
            z[live] = zl * zl + eps
        escaped = tail > 1.0
        return np.where(escaped, z, z - z0), np.where(escaped, d * tail, d - 1.0)

    return newton


def escaping_at_the_last_step(eps, period):
    """A start point whose orbit first goes beyond ESCAPE_MODULUS at
    f^period: a preimage under f^(period - 1) of 1e16."""
    z = 1e16 + 0j
    for _ in range(period - 1):
        z = cmath.sqrt(z - eps)
    orbit = [z]
    for _ in range(period):
        orbit.append(orbit[-1] * orbit[-1] + eps)
    assert all(abs(w) <= periodic.ESCAPE_MODULUS for w in orbit[:-1]) and abs(orbit[-1]) > periodic.ESCAPE_MODULUS
    return z


@pytest.mark.parametrize("eps", [-3.0, -1.1, complex(-0.525, 0.16)], ids=repr)
@pytest.mark.parametrize("period", [1, 2, 5, 8])
def test_iterated_newton_whole_array_steps_match_the_masked_walk(eps, period):
    """Numerator and denominator, bit for bit, with no warning: on points
    that never escape (every step on the whole arrays), with a point that
    escapes part way, one beyond ESCAPE_MODULUS from the start, a NaN
    point and one that goes beyond it only at the last step (each a
    whole-array walk that fails the escape test, then the masked walk),
    and with |eps| beyond ESCAPE_MODULUS (the masked walk only)."""
    rng = np.random.default_rng(5)
    inside = rng.uniform(-1.5, 1.5, 64) + 1j * rng.uniform(-1.5, 1.5, 64)
    cases = [
        (eps, inside),
        (eps, np.append(inside, 1e20 + 1e19j)),
        (eps, np.append(inside, 2.0 * periodic.ESCAPE_MODULUS)),
        (eps, np.append(inside, complex(math.nan, 0.0))),
        (eps, np.append(inside, escaping_at_the_last_step(eps, period))),
        (eps * 1e31, inside),
    ]
    for f, z0 in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            changed = periodic._iterated_newton(f, period)(z0)
            reference = reference_iterated_newton(f, period)(z0)
        for x, y in zip(changed, reference):
            assert x.tobytes() == y.tobytes()


def test_period_1_is_the_closed_form():
    """The fixed points at period 1 are (1 +- sqrt(1 - 4 eps))/2, polished:
    a is base_point bit for bit, a real eps gives no imaginary part, and
    at eps = 1/4 the two are one, 1/2 with multiplier 1."""
    for im in (0.0, -0.0, 0.3):
        for k in range(-350, 25):
            eps = complex(k / 100, im)
            points = [point_bits(p) for p in periodic_points(eps, 1)]
            assert len(points) == 2 and point_bits(base_point(eps)) in points, eps
            if im == 0.0:
                assert all(p[1] == p[3] == "0.0" for p in points), eps
    assert [point_bits(p) for p in periodic_points(0.25, 1)] == [("0.5", "0.0", "1.0", "0.0", 1, "parabolic")]


def test_root_solve_at_an_overflowing_start_radius_warns_nothing():
    """At |eps| = 1e308 the start radius overflows: the points turn NaN,
    which the residual check turns into RootFindingError, and no numpy
    RuntimeWarning escapes (the test suite makes one an error)."""
    with pytest.raises(RootFindingError):
        periodic_points(1e308, 1)


@pytest.mark.parametrize("period", [2, 3])
def test_aberth_start_radius_overflows_past_period_1(period):
    """Period 1 is solved in closed form, whose 1 - 4 eps overflows at
    |eps| = 1e308; from period 2 up the Aberth start radius overflows
    there, and its NaN points fail the residual check, with no numpy
    warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(RootFindingError, match="residual nan"):
            periodic_points(1e308, period)


def mobius_count(p):
    """Points of exact period p of a quadratic polynomial: sum over d | p of mu(p/d) 2**d."""

    def mu(n):
        out, k = 1, 2
        while k * k <= n:
            if n % k == 0:
                n //= k
                if n % k == 0:
                    return 0
                out = -out
            k += 1
        return -out if n > 1 else out

    return sum(mu(p // d) * 2**d for d in range(1, p + 1) if p % d == 0)


@pytest.mark.parametrize("eps", [-3.0, -1.1, complex(-0.525, 0.16)])
def test_family_periodic_points_counted_and_solved(eps):
    # the expanded period-p polynomial overflows in evaluation for p >= 6
    # (p >= 5 at -3); iterating f never forms it
    f = complex(eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow or invalid-value warning
        for p in range(1, 9):
            pts = periodic_points(f, p)
            assert len(pts) == mobius_count(p), p
            for q in pts:
                z = w = q.location
                for _ in range(p):
                    w = w * w + f
                assert abs(w - z) <= 1e-9 * (1.0 + abs(z))


def coefficient_periodic_points(eps, p):
    """Points of exact period p from the expanded polynomial f^p(z) - z:
    its numpy.roots, each polished by make_periodic_point, with the
    points of a proper-divisor period dropped."""
    z = np.polynomial.Polynomial([0, 1])
    fp = z
    for _ in range(p):
        fp = fp**2 + eps
    out = []
    for root in np.roots((fp - z).coef[::-1]):
        q = make_periodic_point(eps, complex(root), p)
        w = q.location
        for d in range(1, p):
            w = w * w + eps
            if p % d == 0 and abs(w - q.location) < 1e-7 * (1.0 + abs(q.location)):
                break
        else:
            out.append(q)
    return out


@pytest.mark.parametrize("eps", [-3.0, -1.1, complex(-0.525, 0.16), -1.0, 0.1])
def test_family_periodic_points_match_the_coefficient_path(eps):
    f = complex(eps)
    for p in range(1, 5):
        points = periodic_points(f, p)
        coefficient = coefficient_periodic_points(f, p)
        assert len(points) == len(coefficient)
        for q in points:
            match = min(coefficient, key=lambda r: abs(r.location - q.location))
            assert abs(match.location - q.location) <= 4 * sys.float_info.epsilon * (1.0 + abs(q.location))
            assert match.classification == q.classification


@pytest.mark.parametrize("eps", [-1.1, 1j])
def test_family_periodic_points_solved_at_the_largest_period(eps):
    pts = periodic_points(complex(eps), MAX_FAMILY_PERIOD)
    assert len(pts) == mobius_count(MAX_FAMILY_PERIOD) == 990
    assert all(cmath.isfinite(q.location) for q in pts)


def test_family_period_cap_raises_config_error():
    with pytest.raises(ConfigError):
        periodic_points(complex(-1.0), MAX_FAMILY_PERIOD + 1)


# Real parameters where the inverse branches contract [-beta, beta], each
# with the largest period whose points pass the polish's residual test: at
# -10 the multipliers at period 9 reach 4e7, and 30 of the 504 points have
# no float within 6 ulp whose residual |f^9(z) - z| is below 1e-9 (1 + |z|).
BRANCH_PARAMETERS = [(-3.0, MAX_FAMILY_PERIOD), (-2.5, MAX_FAMILY_PERIOD), (-4.0, MAX_FAMILY_PERIOD), (-10.0, 8)]


@pytest.mark.parametrize("eps, top", BRANCH_PARAMETERS)
def test_branch_words_give_every_periodic_point_on_the_real_line(eps, top):
    """Where the branches contract, every period has the Moebius count of
    points (990 at period 10, which the Aberth solve misses at -3 and -4),
    each real: its imaginary part is 0."""
    for p in range(1, top + 1):
        points = periodic_points(complex(eps), p)
        assert len(points) == mobius_count(p), p
        assert all(q.location.imag == 0.0 for q in points), p


@pytest.mark.parametrize("eps, top", BRANCH_PARAMETERS)
def test_branch_words_match_the_aberth_points(eps, top, monkeypatch):
    """Each point lies within 4 ulp of the Aberth solve's point, with the
    same class, at every period where the Aberth solve succeeds."""
    branch = {p: periodic_points(complex(eps), p) for p in range(2, top + 1)}
    monkeypatch.setattr(periodic, "_branch_steps", lambda eps, period: 0)
    compared = 0
    for p, points in branch.items():
        try:
            aberth = periodic_points(complex(eps), p)
        except (ConstructionError, RootFindingError):
            continue
        compared += 1
        assert len(aberth) == len(points), p
        for q, r in zip(points, aberth):
            assert abs(q.location - r.location) <= 4 * math.ulp(abs(r.location)), (p, q, r)
            assert q.classification == r.classification, (p, q, r)
    assert compared >= 7


def test_branch_words_make_no_aberth_solve(monkeypatch):
    def no_aberth(z, newton):
        raise AssertionError("an Aberth solve at -3")

    monkeypatch.setattr(periodic, "_aberth", no_aberth)
    assert len(periodic_points(complex(-3.0), 8)) == 240


@pytest.mark.parametrize("eps", [-2.3, -2.0])
def test_aberth_solves_where_the_branches_are_not_proved_to_contract(eps, monkeypatch):
    """At -2.3 and -2 the branch bound q is not below 1, so every period
    from 2 up is one Aberth solve, and -2 at period 8 fails as before."""
    calls = []
    aberth = periodic._aberth
    monkeypatch.setattr(periodic, "_aberth", lambda z, newton: calls.append(len(z)) or aberth(z, newton))
    assert not periodic._branch_contraction(complex(eps)) < 1.0
    for p in range(2, 8):
        assert len(periodic_points(complex(eps), p)) == mobius_count(p)
    assert calls == [2**p for p in range(2, 8)]
    if eps == -2.0:
        with pytest.raises(ConstructionError, match=r"^\|f\^8\(z\) - z\| = 1\.237e-02; not a period-8 point$"):
            periodic_points(complex(eps), 8)


def test_branch_contraction_bounds_the_exact_one():
    """The rounded q is at least 1/(2 sqrt(-eps - beta)) in exact rational
    arithmetic, so it is below 1 only where the exact one is, from
    -(5 + sqrt(20))/4 = -2.3680339887... down."""
    boundary = -(5 + math.sqrt(20)) / 4
    grid = [boundary + k * 1e-15 for k in range(-4, 5)] + [-2.0 - k / 64 for k in range(1, 200)]
    grid += [-3.0, -10.0, -1e5, -1e25, -1e300]
    for eps in grid:
        q = periodic._branch_contraction(complex(eps))
        c = -Fraction(eps)
        beta = Fraction(1, 2) + sqrt_bounds(Fraction(1, 4) + c)[1]
        if c - beta <= 0:
            assert q == math.inf, eps
            continue
        exact = 1 / (2 * sqrt_bounds(c - beta)[0])  # at least the exact q
        assert q == math.inf or Fraction(q) >= exact, eps
    assert periodic._branch_contraction(complex(boundary + 1e-12)) > 1.0
    assert periodic._branch_contraction(complex(boundary - 1e-12)) < 1.0
    assert periodic._branch_contraction(complex(-3.0, 1e-300)) == math.inf


def test_branch_points_that_polish_to_one_raise(monkeypatch):
    """Two rows that the polish takes to one point are a ConstructionError:
    the branch words' fixed points are distinct."""
    polish = periodic._polish

    def merge_two(eps, z, period):
        points, multipliers = polish(eps, z, period)
        points[1] = points[0]
        return points, multipliers

    monkeypatch.setattr(periodic, "_polish", merge_two)
    with pytest.raises(ConstructionError, match="polish to one point"):
        periodic_points(complex(-3.0), 4)


@pytest.mark.parametrize("w", [0.5, -2.0, 1j, complex(0.3, -0.2)])
def test_family_preimages_in_closed_form(w):
    f = complex(-1.1)
    closed = preimage_points(f, w)
    solved = [complex(z) for z in np.roots([1, 0, f - w])]
    assert len(closed) == len(solved) == 2
    for a in closed:
        assert min(abs(a - b) for b in solved) <= 4 * sys.float_info.epsilon * (1.0 + abs(a))
    assert all(abs(z * z + f - w) <= 4 * sys.float_info.epsilon * (1.0 + abs(w)) for z in closed)


def test_linearizer_normalized_derivative():
    f = complex(-1.0)
    a = (1 + math.sqrt(5)) / 2
    lin = build_linearizer(f, make_periodic_point(f, a, 1))
    h = 1e-6
    slope = (lin(a + h) - lin(a - h)) / (2 * h)
    assert abs(slope - 1) < 1e-5
    assert abs(lin(a)) < 1e-12


def test_collinearity_dichotomy():
    f3 = complex(-3.0)
    a3 = make_periodic_point(f3, (1 + math.sqrt(13)) / 2, 1)
    rep3 = collinearity_in_linearizer(f3, build_linearizer(f3, a3), depth=6)
    assert rep3.verdict == "line"
    assert rep3.max_deviation < 1e-8 * rep3.spread

    f1 = complex(-1.0)
    a1 = make_periodic_point(f1, (1 + math.sqrt(5)) / 2, 1)
    rep1 = collinearity_in_linearizer(f1, build_linearizer(f1, a1), depth=6)
    assert rep1.verdict == "full"
    assert rep1.max_deviation > 0.01


def test_power_map_flagged_exceptional():
    f = complex(0.0)
    a = make_periodic_point(f, 1.0, 1)
    rep = collinearity_in_linearizer(f, build_linearizer(f, a), depth=5)
    assert rep.exceptional_family_flag


# ---------------------------------------------------------------------------
# the array polish against the scalar one it replaced


def reference_walk_cycle(eps, z, period):
    """f^period(z) and the multiplier, one Python complex step at a time:
    f(z) = z*z + eps and f'(z) = 2*z on the parts."""
    z, m = complex(z), 1 + 0j
    for _ in range(period):
        m *= complex(2 * z.real, 2 * z.imag)
        z = z * z + eps
    return z, m


def reference_make_periodic_point(eps, z, period, stops=None):
    """Newton on f^period(z) - z and the residual check, one candidate;
    how the polish stopped is appended to stops."""
    w, m = reference_walk_cycle(eps, z, period)
    stop = "limit"
    for _ in range(5):
        if abs(m - 1.0) < 1e-8:
            stop = "guard"
            break
        step = (w - z) / (m - 1.0)
        z = z - step
        w, m = reference_walk_cycle(eps, z, period)
        if abs(step) < 1e-15 * (1.0 + abs(z)):
            stop = "step"
            break
    if stops is not None:
        stops.append(stop)
    if not abs(w - z) <= 1e-9 * (1.0 + abs(z)):
        raise ConstructionError(f"|f^{period}(z) - z| = {abs(w - z):.3e}; not a period-{period} point")
    return periodic.PeriodicPoint(complex(z), period, m, classify(m))


def reference_minimal_period(eps, z, period):
    w = complex(z)
    for m in range(1, period):
        w = w * w + eps
        if period % m == 0 and abs(w - z) < 1e-7 * (1.0 + abs(z)):
            return m
    return period


def reference_periodic_points(eps, period, stops=None):
    roots, _ = periodic._family_periodic_roots(eps, period)
    zs = [z for z in roots.tolist() if reference_minimal_period(eps, z, period) == period]
    out = [reference_make_periodic_point(eps, z, period, stops) for z in zs]
    return sorted(out, key=lambda p: (p.location.real, p.location.imag))


def point_bits(p):
    """A periodic point as the reprs of its parts: -0.0 and NaN distinct."""
    parts = (p.location.real, p.location.imag, p.multiplier.real, p.multiplier.imag)
    return tuple(repr(x) for x in parts) + (p.period, p.classification)


def outcome(fn, *args):
    """The points fn returns, as bits, or the type and text of its error."""
    try:
        out = fn(*args)
    except ConstructionError as exc:
        return ("ConstructionError", str(exc))
    return [point_bits(p) for p in (out if isinstance(out, list) else [out])]


@pytest.mark.parametrize(
    "eps",
    [complex(-3.0), complex(-1.1), complex(-0.525, 0.16), complex(0.1), complex(-1.0, 0.02), complex(-1.0, -0.0)],
)
def test_periodic_points_bitwise_the_scalar_polish(eps):
    for p in range(1, 9):
        assert outcome(periodic_points, eps, p) == outcome(reference_periodic_points, eps, p), p


@pytest.mark.parametrize("eps, period, stops", [(-0.75, 2, ["guard", "guard"]), (-1.75, 3, ["step", "limit", "limit"])])
def test_near_parabolic_rows_stop_on_their_own(eps, period, stops):
    """At -0.75 both rows stop at the parabolic guard before a step; at
    -1.75 two rows (|m - 1| about 1e-7) take all 5 steps while the third
    stops once its step is small."""
    f = complex(eps)
    seen = []
    reference = reference_periodic_points(f, period, seen)
    assert seen == stops
    assert [point_bits(p) for p in periodic_points(f, period)] == [point_bits(p) for p in reference]


@pytest.mark.parametrize(
    "start",
    [
        1e200,
        7e149,  # squared twice it overflows to inf
        1e151,  # at eps -1e302 its square cancels
        complex(math.nan, 0.0),
        complex(0.0, math.nan),
        0.3 + 0.4j,
        (1 + math.sqrt(5)) / 2 + 1e-7,
        complex((1 + math.sqrt(5)) / 2, -0.0),
        1.0,
        -0.0,
        complex(-0.0, 0.0),
        complex(0.0, -0.0),
        complex(-0.0, -0.0),
    ],
)
def test_make_periodic_point_bitwise_the_scalar_polish(start):
    for eps in (complex(-1.0), complex(0.0), complex(-1.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.0), -1e302 + 0j):
        for period in (1, 2):
            got = outcome(make_periodic_point, eps, start, period)
            assert got == outcome(reference_make_periodic_point, eps, start, period), (eps, period)


SPECIAL_STARTS = [
    1e200,
    7e149,
    1e151,
    complex(math.nan, 0.0),
    complex(0.0, math.inf),
    complex(-0.0, 0.0),
    complex(0.0, -0.0),
    complex(-0.0, -0.0),
    complex(1.5, -0.0),
    complex(-0.0, 2.0),
    0.3 + 0.4j,
]


def complex_bits(z):
    z = complex(z)
    return repr(z.real), repr(z.imag)


@pytest.mark.parametrize("eps", [complex(-1.0), complex(-1.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.5), -1e302 + 0j])
def test_walk_rows_bitwise_the_scalar_walk(eps):
    """f^p(z) and the multiplier per row, signs of zero parts, infinities
    and NaNs included, against the scalar walk."""
    rng = random.Random(3)
    starts = SPECIAL_STARTS + [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(20)]
    z = np.array(starts, complex)
    for period in (1, 2, 3):
        with np.errstate(all="ignore"):
            wr, wi, mr, mi = periodic._walk_rows(eps, z.real.copy(), z.imag.copy(), period)
        for k, start in enumerate(starts):
            w, m = reference_walk_cycle(eps, start, period)
            got = (complex_bits(complex(wr[k], wi[k])), complex_bits(complex(mr[k], mi[k])))
            assert got == (complex_bits(w), complex_bits(m)), (start, period)


def test_divide_bitwise_python_division():
    rng = random.Random(5)
    values = [0.0, -0.0, 1.0, -1.0, 1e-300, 3e200, math.inf, -math.inf, math.nan]
    values += [rng.uniform(-5, 5) for _ in range(6)]
    pairs = [(complex(a, b), complex(c, d)) for a in values[::3] for b in values[1::3] for c in values for d in values]
    pairs = [(x, y) for x, y in pairs if y != 0]  # CPython raises on a zero divisor
    a = np.array([x for x, _ in pairs])
    b = np.array([y for _, y in pairs])
    with np.errstate(all="ignore"):
        qr, qi = periodic._divide(a.real, a.imag, b.real, b.imag)
    for k, (x, y) in enumerate(pairs):
        assert complex_bits(complex(qr[k], qi[k])) == complex_bits(x / y), (x, y)


def test_merged_roots_fail_with_the_scalar_text():
    """At eps -2, p = 8, _cluster merges two distinct roots, and the first
    failing point's error is the one raised."""
    f = complex(-2.0)
    got = outcome(periodic_points, f, 8)
    assert got[0] == "ConstructionError"
    assert got == outcome(reference_periodic_points, f, 8)
