import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab.errors import ConstructionError
from horolab.maps import (
    INF,
    RationalFunction,
    RationalMap,
    compose,
    evaluate,
    is_inf,
    quadratic_epsilon,
    quadratic_map,
)


def quad(eps):
    return RationalMap(num=(eps, 0, 1), den=(1,))


def test_monic_denominator_normalization():
    f = RationalFunction(num=(2, 4), den=(2,))
    assert f.den == (1,)
    assert f.num == (1, 2)


def test_common_root_rejected():
    # num and den share the root z = 1
    with pytest.raises(ConstructionError):
        RationalFunction(num=(-1, 1), den=(-2, 1, 1))


def test_degree_and_polynomial_flag():
    f = quad(0.3)
    assert f.degree == 2
    assert f.is_polynomial
    g = RationalFunction(num=(1,), den=(0, 1))
    assert not g.is_polynomial


def test_evaluate_basic_and_infinity():
    f = quad(-1.0)
    assert evaluate(f, 2.0) == 3.0
    assert is_inf(evaluate(f, INF))
    inv = RationalFunction(num=(1,), den=(0, 1))
    assert is_inf(evaluate(inv, 0.0))
    assert evaluate(inv, INF) == 0.0


def test_compose_degree():
    f = quad(1.0)
    g = compose(f, f)
    assert g.degree == 4
    z = 0.3 - 0.2j
    assert abs(evaluate(g, z) - evaluate(f, evaluate(f, z))) < 1e-10


def test_derivative_of_quadratic():
    f = quad(0.7)
    df = f.derivative()
    for z in (0.0, 1.5, -2.0 + 1.0j):
        assert abs(evaluate(df, z) - 2 * z) < 1e-12


def test_critical_points_quadratic():
    crits = quad(0.3).critical_points()
    assert any(abs(c) < 1e-9 for c in crits)


def test_quadratic_epsilon_recognition():
    assert quadratic_epsilon(quad(0.25 + 1j)) == 0.25 + 1j
    cubic = RationalMap(num=(0, 0, 0, 1), den=(1,))
    assert quadratic_epsilon(cubic) is None


def test_quadratic_map_is_recognized():
    eps = -1.5 + 0.25j
    assert quadratic_epsilon(quadratic_map(eps)) == eps
    assert quadratic_epsilon(RationalMap.from_json(quadratic_map(eps).to_json())) == eps
    with pytest.raises(ConstructionError):
        quadratic_map(complex(float("nan"), 0.0))


def test_map_json_roundtrip():
    f = RationalMap(num=(1, 0, 2), den=(3, 1))
    g = RationalMap.from_json(f.to_json())
    assert g.num == f.num and g.den == f.den


finite = st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False)


@settings(max_examples=60, deadline=None)
@given(z=finite, eps=finite)
def test_evaluate_agrees_with_direct_formula(z, eps):
    f = quad(eps)
    assert abs(evaluate(f, z) - (z * z + eps)) < 1e-9 * (1 + abs(z) ** 2 + abs(eps))


@settings(max_examples=40, deadline=None)
@given(z=st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False))
def test_compose_is_pointwise_composition(z):
    f = quad(0.1)
    g = quad(-0.5)
    h = compose(f, g)
    assert abs(evaluate(h, z) - evaluate(f, evaluate(g, z))) < 1e-8
