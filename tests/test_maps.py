import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab.errors import ConstructionError
from horolab.maps import INF, OVERFLOW_RADIUS, derivative, evaluate, is_inf, quadratic_map


def tagged(w):
    return INF if not cmath.isfinite(w) or abs(w) > OVERFLOW_RADIUS else w


def horner(coeffs, z):
    """A polynomial with ascending coefficients at z, divided by the
    monic denominator 1 + 0j, with escapes tagged: the arithmetic of a
    map held as a numerator and denominator coefficient pair."""
    z = complex(z)
    if not cmath.isfinite(z) or abs(z) > OVERFLOW_RADIUS:
        return INF
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return tagged(acc / (1 + 0j))


def bits(z):
    return repr(z.real), repr(z.imag)


# signed zeros, values either side of the overflow radius, inf and NaN
edge = st.sampled_from([0.0, -0.0, 1.0, -2.0, 1e-300, OVERFLOW_RADIUS, -1.0000000001 * OVERFLOW_RADIUS, 1e200])
parts = st.one_of(
    edge,
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(width=16, allow_nan=False, allow_infinity=False),  # small ones, often exact
)
points = st.one_of(st.builds(complex, parts, parts), st.builds(complex, parts, st.sampled_from([math.inf, math.nan])))
params = st.builds(complex, parts, parts)


def test_evaluate_basic_and_infinity():
    f = quadratic_map(-1.0)
    assert evaluate(f, 2.0) == 3.0
    assert is_inf(evaluate(f, INF))
    assert is_inf(evaluate(f, 2 * OVERFLOW_RADIUS))
    assert is_inf(evaluate(f, 1e100))  # the value escapes past the radius


@settings(max_examples=400, deadline=None)
@given(z=points, eps=params)
def test_evaluate_agrees_with_direct_formula(z, eps):
    """Bit for bit, signs of zero parts included, Horner's rule over
    (eps, 0, 1) then the division by 1 + 0j."""
    e = quadratic_map(eps)
    assert bits(evaluate(e, z)) == bits(horner((e, 0j, 1 + 0j), z))


@settings(max_examples=400, deadline=None)
@given(z=points)
def test_derivative_of_quadratic(z):
    """Bit for bit, Horner's rule over the derivative's coefficients (0, 2)."""
    assert bits(derivative(z)) == bits(horner((0j, 2 + 0j), z))
    if cmath.isfinite(z) and abs(z) <= OVERFLOW_RADIUS / 2:
        assert derivative(z) == 2 * z


@pytest.mark.parametrize("eps", [complex(math.nan, 0.0), complex(0.1, math.nan), complex(math.inf, 0.0), -math.inf])
def test_quadratic_map_rejects_non_finite(eps):
    with pytest.raises(ConstructionError):
        quadratic_map(eps)


def test_monic_denominator_normalization():
    """quadratic_map stores eps divided by the leading denominator
    coefficient 1 + 0j, which drops some negative zeros and keeps others."""
    assert bits(quadratic_map(complex(-1.0, -0.0))) == ("-1.0", "0.0")
    assert bits(quadratic_map(complex(1.0, -0.0))) == ("1.0", "-0.0")
    assert bits(quadratic_map(complex(-0.0, -0.0))) == ("-0.0", "0.0")


def test_critical_points_quadratic():
    """The one finite critical point is 0 and its value is eps, the
    critical value the linearizer's disk must exclude."""
    for eps in (quadratic_map(0.3), quadratic_map(complex(-0.525, 0.16))):
        assert derivative(0j) == 0
        assert evaluate(eps, 0j) == eps
