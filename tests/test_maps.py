import math

import pytest

from horolab.errors import ConstructionError
from horolab.maps import evaluate, quadratic_map


def bits(z):
    return repr(z.real), repr(z.imag)


def test_evaluate_is_z_squared_plus_eps():
    assert evaluate(-1.0, 2.0) == 3.0
    z, eps = complex(0.3, -1.7), complex(-1.0, -0.0)
    assert bits(evaluate(eps, z)) == bits(z * z + eps)


@pytest.mark.parametrize("eps", [complex(math.nan, 0.0), complex(0.1, math.nan), complex(math.inf, 0.0), -math.inf])
def test_quadratic_map_rejects_non_finite(eps):
    with pytest.raises(ConstructionError):
        quadratic_map(eps)


def test_quadratic_map_keeps_the_parameter():
    """epsilon comes back as a complex with the signs of its zero parts."""
    assert bits(quadratic_map(complex(-1.0, -0.0))) == ("-1.0", "-0.0")
    assert bits(quadratic_map(-0.0)) == ("-0.0", "0.0")
    assert bits(quadratic_map(0.25)) == ("0.25", "0.0")


def test_critical_points_quadratic():
    """The one finite critical point is 0 and its value is eps, the
    critical value the linearizer's disk must exclude."""
    for eps in (0.3, complex(-0.525, 0.16)):
        assert evaluate(eps, 0j) == eps
