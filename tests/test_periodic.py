import cmath
import math
import random
import sys
import warnings

import numpy as np
import pytest

from horolab import periodic
from horolab.errors import ConfigError, ConstructionError, PreconditionError, RootFindingError
from horolab.maps import derivative, evaluate
from horolab.maps import quadratic_map as quad
from horolab.periodic import (
    MAX_FAMILY_PERIOD,
    build_linearizer,
    classify,
    collinearity_in_linearizer,
    make_periodic_point,
    periodic_points,
    preimage_points,
)


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
            out.append(periodic.Root(sum(members) / len(members), len(members)))
        return out

    rng = random.Random(5)
    # real parts on a grid a fraction of the merge radius apart, so that
    # many roots share a real part and many pairs lie near the radius
    step = 0.3 * periodic.CLUSTER_REL_TOL
    roots = [complex(rng.randrange(40) * step - 1.0, rng.randrange(40) * step) for _ in range(400)]
    assert periodic._cluster(roots) == cluster_by_full_scan(roots)
    assert any(r.multiplicity > 1 for r in periodic._cluster(roots))


def test_fixed_points_of_squaring_map():
    pts = periodic_points(quad(0.0), 1)
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
    f = quad(0.0)
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
    f = quad(-1.0)
    locs2 = [p.location for p in periodic_points(f, 2)]
    for q in periodic_points(f, 1):
        assert all(abs(q.location - z) > 1e-6 for z in locs2)


def test_make_periodic_point_polishes_residual():
    f = quad(-1.0)
    a = (1 + math.sqrt(5)) / 2
    p = make_periodic_point(f, a + 1e-7, 1)
    assert abs(evaluate(f, p.location) - p.location) < 1e-11
    assert p.classification == "repelling"


def test_make_periodic_point_rejects_non_periodic():
    with pytest.raises(ConstructionError):
        make_periodic_point(quad(-1.0), 0.3 + 0.4j, 1)


@pytest.mark.parametrize("period", [0, -1])
def test_make_periodic_point_rejects_period_below_1(period):
    with pytest.raises(ConfigError):
        make_periodic_point(quad(-1.0), (1 + math.sqrt(5)) / 2, period)


def test_linearizer_rejects_attracting_base():
    f = quad(0.0)
    p = make_periodic_point(f, 0.0, 1)
    with pytest.raises(PreconditionError):
        build_linearizer(f, p)


def test_preimage_points_deterministic_order():
    f = quad(0.1)
    a = preimage_points(f, 0.5)
    b = preimage_points(f, 0.5)
    assert a == b
    for r in a:
        assert abs(evaluate(f, r) - 0.5) < 1e-9


def test_linearizer_functional_equation():
    for eps in (-3.0, -1.0, 0.1):
        f = quad(eps)
        a = (1 + cmath.sqrt(1 - 4 * eps)) / 2
        p = make_periodic_point(f, a, 1)
        lin = build_linearizer(f, p)
        worst = 0.0
        for k in range(12):
            z = complex(p.location) + lin.radius * 0.4 * cmath.exp(1j * k)
            worst = max(worst, abs(lin(evaluate(f, z)) - lin.multiplier * lin(z)))
        assert worst < 1e-9


@pytest.mark.parametrize(
    "f, a, exact",
    [
        (quad(0.0), 1.0, cmath.log),
        (quad(-2.0), 2.0, lambda z: cmath.acosh(z / 2) ** 2),
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


def test_linearizer_disk_excludes_critical_values(monkeypatch):
    """At eps 0.1 the first radius (1 + |a|)/2 = 0.944 holds the critical
    value eps, 0.787 from a, so the disk halves."""
    eps = quad(0.1)
    point = make_periodic_point(eps, (1 + cmath.sqrt(0.6)) / 2, 1)
    first = 0.5 * (1.0 + abs(point.location))
    assert abs(eps - point.location) < first
    assert build_linearizer(eps, point).radius == first / 2
    # the same halving with the sampled boundary check passing every disk
    monkeypatch.setattr(periodic, "_radius_certified", lambda lin, r, target: True)
    assert build_linearizer(eps, point).radius == first / 2


@pytest.mark.parametrize("a", [complex(1.618, 0.0), complex(-1.3, -0.0), complex(-0.0, -0.7), complex(0.6, 0.3)])
def test_linearizer_multiplier_is_the_derivative_at_a(a):
    """lambda = f'(a) bit for bit, signs of zero parts included."""
    lam, _ = periodic._schroeder_series(a)
    assert (repr(lam.real), repr(lam.imag)) == (repr(derivative(a).real), repr(derivative(a).imag))


def test_non_finite_roots_raise(monkeypatch):
    monkeypatch.setattr(periodic, "_aberth", lambda z, newton: np.full_like(z, complex("nan")))
    with pytest.raises(RootFindingError):
        periodic_points(quad(-1.1), 4)


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
    f = quad(eps)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow or invalid-value warning
        for p in range(1, 9):
            pts = periodic_points(f, p)
            assert len(pts) == mobius_count(p), p
            for q in pts:
                z = w = q.location
                for _ in range(p):
                    w = evaluate(f, w)
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
            w = evaluate(eps, w)
            if p % d == 0 and abs(w - q.location) < 1e-7 * (1.0 + abs(q.location)):
                break
        else:
            out.append(q)
    return out


@pytest.mark.parametrize("eps", [-3.0, -1.1, complex(-0.525, 0.16), -1.0, 0.1])
def test_family_periodic_points_match_the_coefficient_path(eps):
    f = quad(eps)
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
    pts = periodic_points(quad(eps), MAX_FAMILY_PERIOD)
    assert len(pts) == mobius_count(MAX_FAMILY_PERIOD) == 990
    assert all(cmath.isfinite(q.location) for q in pts)


def test_family_period_cap_raises_config_error():
    with pytest.raises(ConfigError):
        periodic_points(quad(-1.0), MAX_FAMILY_PERIOD + 1)


@pytest.mark.parametrize("w", [0.5, -2.0, 1j, complex(0.3, -0.2)])
def test_family_preimages_in_closed_form(w):
    f = quad(-1.1)
    closed = preimage_points(f, w)
    solved = [complex(z) for z in np.roots([1, 0, f - w])]
    assert len(closed) == len(solved) == 2
    for a in closed:
        assert min(abs(a - b) for b in solved) <= 4 * sys.float_info.epsilon * (1.0 + abs(a))
    assert all(abs(evaluate(f, z) - w) <= 4 * sys.float_info.epsilon * (1.0 + abs(w)) for z in closed)


def test_linearizer_normalized_derivative():
    f = quad(-1.0)
    a = (1 + math.sqrt(5)) / 2
    lin = build_linearizer(f, make_periodic_point(f, a, 1))
    h = 1e-6
    slope = (lin(a + h) - lin(a - h)) / (2 * h)
    assert abs(slope - 1) < 1e-5
    assert abs(lin(a)) < 1e-12


def test_collinearity_dichotomy():
    f3 = quad(-3.0)
    a3 = make_periodic_point(f3, (1 + math.sqrt(13)) / 2, 1)
    rep3 = collinearity_in_linearizer(f3, build_linearizer(f3, a3), depth=6)
    assert rep3.verdict == "line"
    assert rep3.max_deviation < 1e-8 * rep3.spread

    f1 = quad(-1.0)
    a1 = make_periodic_point(f1, (1 + math.sqrt(5)) / 2, 1)
    rep1 = collinearity_in_linearizer(f1, build_linearizer(f1, a1), depth=6)
    assert rep1.verdict == "full"
    assert rep1.max_deviation > 0.01


def test_power_map_flagged_exceptional():
    f = quad(0.0)
    a = make_periodic_point(f, 1.0, 1)
    rep = collinearity_in_linearizer(f, build_linearizer(f, a), depth=5)
    assert rep.exceptional_family_flag


# ---------------------------------------------------------------------------
# the array polish against the scalar one it replaced


def reference_walk_cycle(eps, z, period):
    """f^period(z) and the multiplier, one Python complex step at a time."""
    m = 1 + 0j
    for _ in range(period):
        m *= derivative(z)
        z = evaluate(eps, z)
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
    w = z
    for m in range(1, period):
        w = evaluate(eps, w)
        if period % m == 0 and abs(w - z) < 1e-7 * (1.0 + abs(z)):
            return m
    return period


def reference_periodic_points(eps, period, stops=None):
    roots = periodic._family_periodic_roots(eps, period)
    zs = [r.value for r in roots if reference_minimal_period(eps, r.value, period) == period]
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
    [quad(-3.0), quad(-1.1), quad(complex(-0.525, 0.16)), quad(0.1), quad(complex(-1.0, 0.02)), complex(-1.0, -0.0)],
)
def test_periodic_points_bitwise_the_scalar_polish(eps):
    for p in range(1, 9):
        assert outcome(periodic_points, eps, p) == outcome(reference_periodic_points, eps, p), p


@pytest.mark.parametrize("eps, period, stops", [(-0.75, 2, ["guard", "guard"]), (-1.75, 3, ["step", "limit", "limit"])])
def test_near_parabolic_rows_stop_on_their_own(eps, period, stops):
    """At -0.75 both rows stop at the parabolic guard before a step; at
    -1.75 two rows (|m - 1| about 1e-7) take all 5 steps while the third
    stops once its step is small."""
    f = quad(eps)
    seen = []
    reference = reference_periodic_points(f, period, seen)
    assert seen == stops
    assert [point_bits(p) for p in periodic_points(f, period)] == [point_bits(p) for p in reference]


@pytest.mark.parametrize(
    "start",
    [
        1e200,
        7e149,  # |z| at most OVERFLOW_RADIUS, |2z| beyond it: the derivative alone is tagged
        1e151,  # tagged before it is squared: at eps -1e302 its square would cancel
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
    for eps in (quad(-1.0), quad(0.0), complex(-1.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.0), -1e302 + 0j):
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


@pytest.mark.parametrize("eps", [quad(-1.0), complex(-1.0, -0.0), complex(-0.0, -0.0), complex(-0.0, 0.5), -1e302 + 0j])
def test_walk_rows_bitwise_the_scalar_walk(eps):
    """f^p(z) and the multiplier per row, tags and signs of zero parts
    included, against maps.evaluate and maps.derivative."""
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
    f = quad(-2.0)
    got = outcome(periodic_points, f, 8)
    assert got[0] == "ConstructionError"
    assert got == outcome(reference_periodic_points, f, 8)
