import cmath
import math
import random
import sys
import warnings

import pytest

from horolab import periodic
from horolab.errors import ConfigError, ConstructionError, PreconditionError, RootFindingError
from horolab.maps import RationalFunction, RationalMap, evaluate
from horolab.periodic import (
    MAX_FAMILY_PERIOD,
    all_roots,
    build_linearizer,
    classify,
    collinearity_in_linearizer,
    make_periodic_point,
    periodic_points,
    preimage_points,
)


def quad(eps):
    return RationalMap(num=(eps, 0, 1), den=(1,))


def test_all_roots_quadratic_factorization():
    # (z - 2)(z + 3) = z^2 + z - 6
    roots = all_roots((-6, 1, 1))
    assert abs(roots[0].value + 3) < 1e-9
    assert abs(roots[1].value - 2) < 1e-9
    assert all(r.multiplicity == 1 for r in roots)


def test_all_roots_of_unity():
    n = 7
    coeffs = (-1,) + (0,) * (n - 1) + (1,)
    roots = all_roots(coeffs)
    assert len(roots) == n
    for r in roots:
        assert abs(r.value ** n - 1) < 1e-8


def test_all_roots_double_root_clustered():
    # (z - 1)^2 = z^2 - 2z + 1
    roots = all_roots((1, -2, 1))
    assert len(roots) == 1
    assert roots[0].multiplicity == 2
    assert abs(roots[0].value - 1) < 1e-6


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


def test_periodic_points_build_the_derivative_once(monkeypatch):
    calls = []
    derivative = RationalFunction.derivative

    def counted(self):
        calls.append(self)
        return derivative(self)

    monkeypatch.setattr(RationalFunction, "derivative", counted)
    assert len(periodic_points(quad(-1.1), 6)) == 54
    assert len(calls) == 1


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


MOBIUS_SQUARE = RationalMap(num=(0, 0, 1), den=(1, -2, 2))  # w -> w/(1-w) conjugates it to z**2


@pytest.mark.parametrize(
    "f, a, exact",
    [
        (quad(0.0), 1.0, cmath.log),
        (quad(-2.0), 2.0, lambda z: cmath.acosh(z / 2) ** 2),
        (MOBIUS_SQUARE, 0.5, lambda w: cmath.log(w / (1 - w)) / 4),
    ],
    ids=["z**2", "z**2-2", "mobius"],
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
    # the critical values 0 and 1 of MOBIUS_SQUARE lie 0.5 from a = 1/2
    lin = build_linearizer(MOBIUS_SQUARE, make_periodic_point(MOBIUS_SQUARE, 0.5, 1))
    assert lin.radius < 0.5


def test_non_finite_roots_raise():
    # Aberth on the degree-81 period-4 polynomial of z**3 - 1.1 ends in NaN
    with pytest.raises(RootFindingError):
        periodic_points(RationalMap(num=(-1.1, 0, 0, 1), den=(1,)), 4)


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


@pytest.mark.parametrize("eps", [-3.0, -1.1, complex(-0.525, 0.16), -1.0, 0.1])
def test_family_periodic_points_match_the_coefficient_path(eps, monkeypatch):
    f = quad(eps)
    family = {p: periodic_points(f, p) for p in range(1, 5)}
    monkeypatch.setattr(periodic, "quadratic_epsilon", lambda f: None)  # iterated_pair + all_roots
    for p, points in family.items():
        coefficient = periodic_points(f, p)
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
def test_family_preimages_in_closed_form(w, monkeypatch):
    f = quad(-1.1)
    closed = preimage_points(f, w)
    monkeypatch.setattr(periodic, "quadratic_epsilon", lambda f: None)
    solved = preimage_points(f, w)
    assert all(abs(a - b) <= 4 * sys.float_info.epsilon * (1.0 + abs(a)) for a, b in zip(closed, solved))
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
