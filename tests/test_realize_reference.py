"""realize against a plain step-by-step loop: the stationary-tail fill
and the carried distances change no bit of a realization."""

import cmath
import types

import pytest

from horolab import orbits
from horolab.maps import quadratic_epsilon
from horolab.orbits import TAIL_CONFIRM, _nearer, _same_signs, realize
from horolab.quadratic import family_word, sample_words


def reference(word, depth):
    """Points (as float bits), choices and entry index of the word's
    orbit, one square root per step and no shortcut."""
    eps = quadratic_epsilon(word.map)
    a = word.base.location
    pts, choices = [a], ""
    w = a
    for j in range(depth):
        s = cmath.sqrt(w - eps)
        if j < len(word.prefix):
            z = s if word.prefix[j] == "+" else -s
        else:
            z = _nearer(s, a)[0]
        pts.append(z)
        choices += "+" if z == s else "-"
        w = z
    entry = len(pts)
    while entry > 0 and abs(pts[entry - 1] - a) < word.sigma:
        entry -= 1
    if len(pts) - entry < TAIL_CONFIRM + 1:
        entry = None
    return bits(pts), choices, entry


def bits(points):
    """The points as hex floats: unlike ==, this tells -0.0 from 0.0."""
    return [(p.real.hex(), p.imag.hex()) for p in points]


def checked(orb):
    """orb's points (as float bits), choices and entry index, after
    checking that it carries the distance of every point to a."""
    a = orb.base.location
    assert orb.dists == tuple(abs(p - a) for p in orb.points)
    return bits(orb.points), orb.choices, orb.entry_index


@pytest.fixture
def sqrt_calls(monkeypatch):
    """The arguments of every cmath.sqrt call realize makes from here on."""
    calls = []

    def sqrt(z):
        calls.append(z)
        return cmath.sqrt(z)

    monkeypatch.setattr(orbits, "cmath", types.SimpleNamespace(sqrt=sqrt))
    return calls


@pytest.mark.parametrize("eps", [0.1, -1.0, complex(-1.0, 0.02), complex(-0.525, 0.16)])
def test_realize_matches_the_plain_loop(eps):
    for w in sample_words(eps, 8, seed=5, max_len=8):
        n = len(w.prefix)
        depths = (n, n + 1, n + 12, n + 80, n + 120, n + 240)
        deep = realize(w.word, depths[-1])
        previous = None
        for d in depths:
            expected = reference(w.word, d)
            orb = realize(w.word, d)
            assert checked(orb) == expected
            assert checked(deep.at(d)) == expected  # a cut
            if previous is not None:
                assert checked(realize(previous, d)) == expected  # a continuation
            previous = orb


def test_fixed_orbit_fills_its_stationary_tail(sqrt_calls):
    w = family_word(-1.0, "")
    orb = realize(w, 4000)
    assert len(sqrt_calls) <= 2
    assert checked(orb) == reference(w, 4000)


@pytest.mark.parametrize("eps", [complex(-1.0, 0.02), complex(-0.525, 0.16)])
def test_continuing_a_stationary_tail_takes_one_step(eps, sqrt_calls):
    for w in sample_words(eps, 8, seed=5, max_len=8):
        n = len(w.prefix)
        short = realize(w.word, n + 80)
        assert short.points[-1] == short.points[-2]  # the tail has stopped moving
        sqrt_calls.clear()
        assert checked(realize(short, n + 240)) == reference(w.word, n + 240)
        assert len(sqrt_calls) == 1


@pytest.mark.parametrize("prefix", ["-", "--", "-+-"])
def test_stationary_point_keeps_the_sign_of_its_zero_part(prefix):
    # at eps = -3 these orbits stay on the real axis, their imaginary
    # parts 0.0 or -0.0, and stop moving within 40 steps
    w = family_word(-3.0, prefix)
    orb = realize(w, 200)
    assert orb.points[-1].imag == 0.0
    assert checked(orb) == reference(w, 200)


def test_zero_parts_of_opposite_sign_differ():
    # equal under ==, so only the sign check keeps such a step from
    # counting as stationary
    assert _same_signs(complex(1.5, -0.0), complex(1.5, -0.0))
    assert not _same_signs(complex(1.5, -0.0), complex(1.5, 0.0))
    assert not _same_signs(complex(-0.0, 2.0), complex(0.0, 2.0))
