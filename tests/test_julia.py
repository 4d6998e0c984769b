import math

import pytest

from horolab.errors import ConfigError
from horolab.julia import (
    escape_membership,
    inverse_iteration_sample,
    repelling_sample,
)


def test_escape_detects_large_orbit_quickly():
    res = escape_membership(0.0, 2.0 + 0j, 100)
    assert res.status == "escaped"
    assert res.steps <= 3


def test_escape_keeps_unit_disk_for_squaring_map():
    for z in (0.0, 0.5j, -0.9, 0.6 + 0.6j):
        res = escape_membership(0.0, complex(z), 200)
        assert res.status == "inside-filled"
        assert res.steps == 200


def test_escape_budget_guardrails():
    assert escape_membership(0.0, 5.0 + 0j, 0).status == "undecided"
    with pytest.raises(ConfigError):
        escape_membership(0.0, 0.0j, 10**6)


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


def test_inverse_iteration_config_errors():
    with pytest.raises(ConfigError):
        inverse_iteration_sample(0.0, 100, 10, seed=1)  # depth <= burn-in
    with pytest.raises(ConfigError):
        inverse_iteration_sample(0.0, 0, 40, seed=1)


def test_repelling_sample_roots_of_unity():
    """Repelling points of z**2 through period 3: z = 1, the primitive
    cube roots, and the primitive 7th roots; 0 is omitted (attracting)."""
    sample = repelling_sample(0.0, 3)
    assert len(sample.points) == 1 + 2 + 6
    for z in sample.points:
        order = 2 ** min(
            n for n in (1, 2, 3) if abs(z ** (2**n - 1) - 1) < 1e-6
        ) - 1
        assert abs(z**order - 1) < 1e-8
    assert all(abs(abs(z) - 1) < 1e-9 for z in sample.points)


def test_repelling_sample_sorted_and_tagged():
    sample = repelling_sample(-1.0, 2)
    assert sample.method == "repelling-periodic"
    assert list(sample.points) == sorted(
        sample.points, key=lambda z: (z.real, z.imag)
    )
    phi = (1 + math.sqrt(5)) / 2
    assert any(abs(z - phi) < 1e-9 for z in sample.points)
