import hashlib

import numpy as np
import pytest

from horolab import julia, periodic
from horolab.errors import ConfigError
from horolab.julia import inverse_iteration_sample


def test_inverse_iteration_points_lie_on_unit_circle():
    # the Julia set of z**2 is the unit circle
    sample = inverse_iteration_sample(0.0, 400, 40, seed=11)
    assert len(sample.points) == 400
    assert max(abs(abs(z) - 1.0) for z in sample.points) < 1e-9


def test_inverse_iteration_bounded_for_basilica():
    sample = inverse_iteration_sample(-1.0, 500, 40, seed=11)
    assert all(abs(z) <= 2.0 + 1e-9 for z in sample.points)
    # orbits must also spread over both half planes
    assert any(z.real > 0.5 for z in sample.points)
    assert any(z.real < -0.5 for z in sample.points)


def test_inverse_iteration_deterministic_in_seed():
    a = inverse_iteration_sample(-1.0, 300, 40, seed=7)
    b = inverse_iteration_sample(-1.0, 300, 40, seed=7)
    c = inverse_iteration_sample(-1.0, 300, 40, seed=8)
    assert a.points == b.points and a.params == b.params
    assert a.points != c.points


def test_inverse_iteration_passthrough_on_critical_parameter():
    # eps = -2: the critical orbit lies in the Julia set [-2, 2], so
    # every path crosses a branch collision and passes through it
    sample = inverse_iteration_sample(-2.0, 200, 40, seed=3)
    assert sample.params["resampled_paths"] == sample.params["passthrough_paths"] > 0
    assert all(abs(z.imag) < 1e-7 for z in sample.points)
    assert all(-2.0 - 1e-9 <= z.real <= 2.0 + 1e-9 for z in sample.points)


def test_sample_starts_at_the_base_point_without_a_root_solve(monkeypatch):
    """The Julia set of z**2 - 3 lies on the real line, and so does every
    sample point: the walk starts at the polished closed-form fixed point,
    not at a root solve's, whose imaginary part was rounding noise.  The
    real parts, frozen as a digest, are those drawn from the solved root."""

    def no_solve(eps, period):
        raise AssertionError("the sampler solved for its start point")

    monkeypatch.setattr(periodic, "_family_periodic_roots", no_solve)
    sample = inverse_iteration_sample(-3.0, 2000, 40, 7)
    assert all(z.imag == 0.0 for z in sample.points)
    reals = repr([z.real for z in sample.points]).encode()
    assert hashlib.sha256(reals).hexdigest() == "2c966119dc1d9beef11e233e9c60fe87b338f44ecd5e4af952b92e90fcd235bc"


def test_inverse_iteration_config_errors():
    with pytest.raises(ConfigError):
        inverse_iteration_sample(0.0, 100, 10, seed=1)  # depth <= burn-in
    with pytest.raises(ConfigError):
        inverse_iteration_sample(0.0, 0, 40, seed=1)


def reference_sorted(points):
    """The sample's order before the array sort: each point converted to
    a Python complex, then the list sorted on the key (re, im)."""
    flat = [complex(z) for z in points]
    flat.sort(key=lambda z: (z.real, z.imag))
    return flat


def bits(points):
    return [(repr(z.real), repr(z.imag)) for z in points]


def test_sorted_keeps_the_draw_order_of_signed_zero_ties():
    parts = [(0.0, 1.0), (-0.0, 1.0), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0), (0.0, 0.0), (-1.5, 0.0), (-1.5, -0.0)]
    points = np.empty(len(parts), complex)
    points.real, points.imag = zip(*parts)
    ordered = julia._sorted(points)
    assert bits(ordered) == bits(reference_sorted(points))
    assert bits(ordered)[:6] == [
        ("-1.5", "0.0"),
        ("-1.5", "-0.0"),
        ("0.0", "-0.0"),
        ("-0.0", "0.0"),
        ("-0.0", "-0.0"),
        ("0.0", "0.0"),
    ]


@pytest.mark.parametrize("eps", [-1.0, -3.0, complex(-0.525, 0.16), complex(-1.0, -0.0)])
def test_sample_bitwise_the_key_sort(eps, monkeypatch):
    got = inverse_iteration_sample(eps, 3000, 40, seed=7)
    monkeypatch.setattr(julia, "_sorted", reference_sorted)
    want = inverse_iteration_sample(eps, 3000, 40, seed=7)
    assert bits(got.points) == bits(want.points)
    assert got.params == want.params
