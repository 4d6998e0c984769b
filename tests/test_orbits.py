import cmath
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab.errors import (
    ConfigError,
    DegenerateBranchError,
    DomainError,
    PreconditionError,
)
from horolab.maps import RationalMap, evaluate
from horolab.orbits import (
    OrbitWord,
    concatenate,
    fixed_word,
    is_in_Pi_a,
    principal_symbol,
    realize,
    shift,
)
from horolab.periodic import make_periodic_point
from horolab.quadratic import family_word, fixed_point_a


def test_realize_first_step_is_exact_negative_branch():
    # a^2 = a - eps, so the "-" branch of a is exactly -a
    eps = 0.1
    a = fixed_point_a(eps)
    orb = realize(family_word(eps, "-"), 12)
    assert orb.points[0] == a
    assert abs(orb.points[1] + a) < 1e-15
    assert orb.choices[0] == "-"


def test_realize_forward_residuals():
    w = family_word(-1.0, "-+-")
    orb = realize(w, 30)
    for j in range(orb.depth):
        assert abs(evaluate(w.map, orb.points[j + 1]) - orb.points[j]) < 1e-11


def test_tie_breaks_toward_positive_imaginary():
    # preimages of -a are +/- i sqrt(a + eps), equidistant from the real
    # point a; the tie must resolve to the upper half plane
    orb = realize(family_word(0.1, "-"), 3)
    assert orb.points[2].imag > 0
    expected = 1j * cmath.sqrt(fixed_point_a(0.1) + 0.1).real
    assert abs(orb.points[2] - expected) < 1e-12


def test_entry_index_and_contraction():
    eps = 0.1
    orb = realize(family_word(eps, "-"), 60)
    assert orb.entry_index == 6
    lam = 2 * fixed_point_a(eps)
    tc = orb.tail_contraction()
    assert tc is not None
    assert abs(tc - 1 / lam) < 5e-3


def test_fixed_orbit_stays_at_a():
    orb = realize(family_word(-1.0, ""), 20)
    a = fixed_point_a(-1.0)
    assert all(abs(p - a) < 1e-12 for p in orb.points)
    assert orb.entry_index == 0
    assert orb.choices == "+" * 20


def test_depth_shorter_than_prefix_rejected():
    with pytest.raises(PreconditionError):
        realize(family_word(0.1, "-+-"), 2)


def test_bad_symbols_rejected():
    with pytest.raises(ConfigError):
        family_word(0.1, "-x")


def test_non_quadratic_map_rejected():
    cube = RationalMap((0j, 0j, 0j, 1 + 0j))
    base = make_periodic_point(cube, 1.0, 1)
    assert base.classification == "repelling"
    with pytest.raises(ConfigError):
        OrbitWord(cube, base, "", 0.1)


def test_nonpositive_sigma_rejected():
    with pytest.raises(PreconditionError):
        family_word(0.1, "-", sigma=0.0)


def test_membership_reasons():
    assert is_in_Pi_a(family_word(0.1, ""), 40).reason == "fixed-orbit"
    ok = is_in_Pi_a(family_word(0.1, "-"), 40)
    assert ok.member and ok.reason == "ok"


def test_membership_critical_hit_at_branch_merge():
    # eps = -2: the "-" orbit lands on the critical point and the next
    # pullback collides both branches
    w = family_word(-2.0, "-", sigma=0.5)
    mem = is_in_Pi_a(w, 10)
    assert not mem.member
    assert mem.reason == "critical-hit"
    with pytest.raises(DegenerateBranchError):
        realize(w, 3)


def test_principal_symbol_is_plus_for_family():
    assert principal_symbol(family_word(0.1, "-")) == "+"


def test_shift_prepends_and_pops_principal_symbols():
    w = family_word(0.1, "-")
    deeper = shift(w, 3)
    assert deeper.prefix == "+++-"
    assert shift(deeper, -3).prefix == "-"
    assert shift(w, 0) is w
    with pytest.raises(DomainError):
        shift(w, -1)


def test_fixed_word_clears_prefix():
    w = family_word(0.1, "-+-")
    assert fixed_word(w).prefix == ""
    assert fixed_word(w).map == w.map


def test_concatenate_replays_choices_through_junction():
    eps = 0.1
    y = family_word(eps, "-")
    c = family_word(eps, "--")
    glued = concatenate(y, c, 8)
    replay = realize(y, 8)
    assert glued.prefix == replay.choices[:8] + "--"
    assert is_in_Pi_a(glued, 60).member


def test_concatenate_rejects_junction_above_entry():
    eps = 0.1
    y = family_word(eps, "-")  # entry index 6
    c = family_word(eps, "-")
    with pytest.raises(PreconditionError):
        concatenate(y, c, 2)


def test_concatenate_rejects_mismatched_base():
    y = family_word(0.1, "-")
    c = family_word(-1.0, "-")
    with pytest.raises(PreconditionError):
        concatenate(y, c, 10)


def test_orbit_word_requires_repelling_base():
    w = family_word(0.0, "-")
    from horolab.periodic import make_periodic_point

    attracting = make_periodic_point(w.map, 0.0, 1)
    with pytest.raises(PreconditionError):
        dataclasses.replace(w, base=attracting)


@settings(deadline=None, max_examples=40)
@given(
    prefix=st.text(alphabet="+-", min_size=0, max_size=6),
    eps=st.sampled_from([0.0, 0.1, -1.0]),
)
def test_realized_orbits_respect_the_map(prefix, eps):
    w = family_word(eps, prefix)
    orb = realize(w, len(prefix) + 40)
    for j in range(orb.depth):
        scale = max(1.0, abs(orb.points[j]))
        assert abs(evaluate(w.map, orb.points[j + 1]) - orb.points[j]) < 1e-11 * scale
    assert len(orb.choices) == orb.depth
    assert orb.choices[: len(prefix)] == prefix
