"""Cocycle engine tests.

The reference values here come from a separate brute-force evaluator
(kept inline below) that realizes quadratic backward orbits with the
closed-form square-root recursion and sums the raw series to depth
2000.  It shares no code with the package engine, so agreement within
the engine's own reported tail bound is evidence the bound is honest.
"""

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab.cocycle import (
    CocycleValue,
    basic_cocycle,
    cocycle_field,
    cocycle_vs_fixed,
    height_set,
    make_density_report,
    progression_density_check,
    series_terms,
    values_vs_fixed,
)
from horolab.errors import ConfigError, DomainError, PreconditionError, SingularTermError
from horolab.orbits import fixed_word
from horolab.quadratic import family_word, fixed_point_a, limit_decomposition_check, sample_words

SEED_WORD_TOL = 1e-9


# --- independent brute-force evaluator -------------------------------------


def brute_orbit(eps, prefix, depth):
    a = (1 + cmath.sqrt(1 - 4 * eps)) / 2
    pts = [a]
    for j in range(depth):
        s = cmath.sqrt(pts[-1] - eps)
        cands = sorted([s, -s], key=lambda r: (abs(r - a), -r.imag, -r.real))
        if j < len(prefix):
            z = s if prefix[j] == "+" else -s
        else:
            z = cands[0]
        pts.append(z)
    return a, pts


def brute_beta(eps, prefix, depth=2000):
    a, pts = brute_orbit(eps, prefix, depth)
    return sum(math.log(abs(2 * p)) - math.log(abs(2 * a)) for p in pts[1:])


# frozen outputs of brute_beta at depth 2000
BRUTE = {
    (0.1, "-"): 0.45047942930981455,
    (-1.0, "-"): -1.2423743676001426,
    (0.0, "-"): -7.771561172376096e-16,
}


def test_brute_evaluator_reproduces_frozen_values():
    for (eps, prefix), frozen in BRUTE.items():
        assert brute_beta(eps, prefix) == pytest.approx(frozen, abs=1e-15)


def test_engine_matches_brute_force_within_tail_bound():
    for (eps, prefix), frozen in BRUTE.items():
        v = cocycle_vs_fixed(family_word(eps, prefix), SEED_WORD_TOL)
        assert abs(v.value - frozen) <= v.tail_bound + 1e-12
        assert v.tail_bound <= SEED_WORD_TOL


def test_tail_bound_tightens_with_tol():
    w = family_word(0.1, "-")
    loose = cocycle_vs_fixed(w, 1e-6)
    tight = cocycle_vs_fixed(w, 1e-11)
    assert tight.tail_bound < loose.tail_bound
    assert abs(tight.value - loose.value) <= loose.tail_bound + tight.tail_bound


def test_partial_sums_converge_to_value():
    w = family_word(0.1, "-")
    v = cocycle_vs_fixed(w, SEED_WORD_TOL)
    terms = series_terms(w, v.depth_used)
    assert abs(sum(terms) - v.value) < 1e-12
    deeper = series_terms(w, v.depth_used + 40)
    assert all(abs(t) < 1e-8 for t in deeper[v.depth_used :])


def test_identical_words_give_exact_zero():
    w = family_word(0.1, "-+")
    assert basic_cocycle(w, w, SEED_WORD_TOL) == CocycleValue(0.0, 0.0, 0)


def test_antisymmetry():
    x = family_word(0.1, "-")
    y = family_word(0.1, "--")
    xy = basic_cocycle(x, y, SEED_WORD_TOL)
    yx = basic_cocycle(y, x, SEED_WORD_TOL)
    assert abs(xy.value + yx.value) <= xy.tail_bound + yx.tail_bound + 1e-13


def test_additivity_chain():
    x = family_word(0.1, "-")
    y = family_word(0.1, "-+-")
    z = family_word(0.1, "--")
    xy = basic_cocycle(x, y, SEED_WORD_TOL)
    yz = basic_cocycle(y, z, SEED_WORD_TOL)
    xz = basic_cocycle(x, z, SEED_WORD_TOL)
    slack = xy.tail_bound + yz.tail_bound + xz.tail_bound + 1e-12
    assert abs(xy.value + yz.value - xz.value) <= slack


def test_tol_floor_enforced():
    w = family_word(0.1, "-")
    with pytest.raises(ConfigError):
        cocycle_vs_fixed(w, 1e-13)


# engine outputs frozen bit for bit; any change to the truncation, the
# contraction estimate or the term evaluation shows here
FROZEN_ENGINE = {
    (0.1, "-"): (0.45047942930950924, 6.481225263013562e-13, 53),
    (-1.0, "-+--"): (-2.9171783382250362, 8.157093952541832e-13, 28),
    (0.1 + 0.02j, "-+"): (0.36787711959380287, 6.421455691073477e-13, 53),
}


def test_engine_values_frozen():
    for (eps, prefix), frozen in FROZEN_ENGINE.items():
        v = cocycle_vs_fixed(family_word(eps, prefix), 1e-12)
        assert (v.value, v.tail_bound, v.depth_used) == frozen
    v = basic_cocycle(family_word(-1.0, "-+"), family_word(-1.0, "--+-"), 1e-12)
    assert v == CocycleValue(-1.329501860367812, 5.78639474160013e-13, 29)
    c = family_word(0.1, "-")
    assert cocycle_field(c, fixed_point_a(0.1) + 0.3 * c.sigma, 1e-12) == 0.4362588979617221


# the certified region: real parameters on both sides of the sign law and
# a complex strip off the real axis, away from 0, -2 and 1/4
CERTIFIED_EPSILON = st.one_of(
    st.floats(-1.9, -0.3),
    st.floats(0.05, 0.2),
    st.builds(complex, st.floats(-1.2, 0.1), st.floats(0.02, 0.3)),
)
PREFIX = st.text(alphabet="+-", max_size=8)


@settings(deadline=None, max_examples=30)
@given(eps=CERTIFIED_EPSILON, p=PREFIX, q=PREFIX)
def test_engine_within_tail_bound_of_brute_force(eps, p, q):
    x = family_word(eps, p)
    v = cocycle_vs_fixed(x, 1e-12)
    assert abs(v.value - brute_beta(eps, p)) <= v.tail_bound + 1e-12
    y = family_word(eps, q)
    xy = basic_cocycle(x, y, 1e-12)
    yx = basic_cocycle(y, x, 1e-12)
    assert abs(xy.value + yx.value) <= xy.tail_bound + yx.tail_bound


def plain_sum(x, y, k):
    """The series to index k as the engine summed it before it reused a
    repeated x-point's term: both logarithms of every term, in index
    order."""
    depth = max(k, len(x.prefix), len(y.prefix))
    px, py = x.at(depth).points, y.at(depth).points
    value = 0.0
    for j in range(1, k + 1):
        value += math.log(abs(2 * py[j])) - math.log(abs(2 * px[j]))
    return value


@pytest.mark.parametrize("eps", [0.1, -1.0, complex(-1.0, 0.02), complex(-0.525, 0.16)])
def test_series_sum_is_the_plain_loop_bit_for_bit(eps):
    words = sample_words(eps, 12, seed=5, max_len=8)
    for y, v in zip(words, values_vs_fixed(words, 1e-12)):
        assert v.value.hex() == plain_sum(fixed_word(y), y, v.depth_used).hex()
    # x orbits that are not the fixed one; past the 90-symbol prefix's
    # late entry, the series runs on beyond index 100
    short, long = family_word(eps, "-"), family_word(eps, "-" * 90)
    pairs = list(zip(words, words[1:])) + [(short, long), (long, short)]
    for x, y in pairs:
        v = basic_cocycle(x, y, 1e-12)
        assert v.value.hex() == plain_sum(x, y, v.depth_used).hex()
    k = basic_cocycle(short, long, 1e-12).depth_used
    points = short.at(k).points
    if isinstance(eps, complex):  # the x tail stops moving before k, so its terms repeat
        assert points[k - 40] == points[k]
    else:
        assert len(set(points[k - 40 :])) == 41


def test_near_critical_point_makes_a_singular_term():
    # eps = -2 + 1e-18i: the "-" orbit passes 8.2e-10 from the critical
    # point at depth 2
    y = family_word(complex(-2.0, 1e-18), "-", sigma=0.5)
    with pytest.raises(SingularTermError, match="orbit point at depth 2 is within 1e-08 of the critical point 0"):
        cocycle_vs_fixed(y, 1e-10)
    # with sigma 2.5 the orbit enters the disk at that point, and at tol
    # 1e6 the series stops there: the last term is the singular one
    y = family_word(complex(-2.0, 1e-18), "-", sigma=2.5)
    with pytest.raises(SingularTermError, match="at depth 2 "):
        cocycle_vs_fixed(y, 1e6)


def test_mismatched_bases_rejected():
    with pytest.raises(PreconditionError):
        basic_cocycle(family_word(0.1, "-"), family_word(-1.0, "-"), SEED_WORD_TOL)


def test_field_at_base_matches_plain_cocycle():
    c = family_word(0.1, "-")
    a = fixed_point_a(0.1)
    direct = cocycle_vs_fixed(c, SEED_WORD_TOL)
    at_a = cocycle_field(c, a, SEED_WORD_TOL)
    assert abs(at_a - direct.value) <= 2 * SEED_WORD_TOL


def test_field_rejects_points_outside_disk():
    c = family_word(0.1, "-")
    a = fixed_point_a(0.1)
    with pytest.raises(DomainError):
        cocycle_field(c, a + 2 * c.sigma, SEED_WORD_TOL)


def test_field_varies_over_the_disk():
    c = family_word(-1.0, "-")
    a = fixed_point_a(-1.0)
    vals = [
        cocycle_field(c, a + 0.3 * c.sigma * cmath.exp(1j * k), 1e-8)
        for k in range(6)
    ]
    assert max(vals) - min(vals) > 1e-6


def test_density_report_counts_edge_gaps():
    rep = make_density_report([(0.5, 0.0)], (0.0, 1.0))
    assert rep.count == 1
    assert rep.max_gap == pytest.approx(0.5)
    empty = make_density_report([(5.0, 0.0)], (0.0, 1.0))
    assert empty.count == 0
    assert empty.max_gap == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        make_density_report([], (1.0, 1.0))


def test_height_set_fills_window():
    words = [family_word(0.1, p) for p in ("-", "--", "-+", "-+-", "--+")]
    betas = [cocycle_vs_fixed(w, SEED_WORD_TOL) for w in words]
    step = math.log(abs(words[0].base.multiplier))
    rep = height_set(betas, step, (-20, 20))
    assert rep.count >= 5
    assert rep.max_gap < 1.0
    vals = [v for v, _ in rep.values]
    assert vals == sorted(vals)
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_height_set_builds_only_the_shifts_in_the_window():
    words = [family_word(-1.0, p) for p in ("-", "--", "-+", "-+-", "--+")]
    betas = [cocycle_vs_fixed(w, SEED_WORD_TOL) for w in words]
    step = math.log(abs(words[0].base.multiplier))
    assert height_set(betas, step, (-10**9, 10**9)) == height_set(betas, step, (-40, 40))
    with pytest.raises(PreconditionError):
        height_set(betas, 0.0, (-40, 40))


def test_values_vs_fixed_equals_cocycle_vs_fixed_word_by_word():
    # mixed prefix lengths: the batch's fixed orbit is realized for the
    # longest and cut back for the others
    words = [family_word(0.1, p) for p in ("-+--+-+", "-", "--+", "", "-+-+-+-+-+-")]
    assert values_vs_fixed(words, 1e-12) == [cocycle_vs_fixed(w, 1e-12) for w in words]
    assert values_vs_fixed([], 1e-12) == []
    with pytest.raises(ConfigError):
        values_vs_fixed([], 0.0)


def test_semigroup_defect_decays_geometrically():
    y = family_word(0.1, "-")
    c = family_word(0.1, "--")
    table = limit_decomposition_check(y, c, [8, 12, 16, 20, 24, 28], SEED_WORD_TOL)
    assert all(b < a for a, b in zip(table.defects, table.defects[1:]))
    assert table.defects[-1] < 1e-5
    # observed per-step decay tracks 1/|multiplier| = 0.5635
    assert table.rate is not None
    assert 0.50 < table.rate < 0.63
    expected = table.component_betas[0].value + table.component_betas[1].value
    assert abs(table.sequence_betas[-1].value - expected) < 1e-5


def test_semigroup_rejects_unsorted_junctions():
    y = family_word(0.1, "-")
    c = family_word(0.1, "--")
    with pytest.raises(PreconditionError):
        limit_decomposition_check(y, c, [12, 8], SEED_WORD_TOL)


def test_progression_two_generators_fill_unit_window():
    rep = progression_density_check([0.30, 0.31], 1.0, (0.0, 1.0), 0.02)
    assert rep.ok
    assert rep.max_gap <= 0.02


def test_progression_single_commensurate_generator_leaves_gaps():
    rep = progression_density_check([math.log(2)], math.log(2), (0.0, 1.0), 0.1)
    assert not rep.ok
    assert rep.max_gap > 0.3


def test_progression_guards():
    with pytest.raises(PreconditionError):
        progression_density_check([], 1.0, (0.0, 1.0), 0.1)
    with pytest.raises(PreconditionError):
        progression_density_check([0.5], 0.0, (0.0, 1.0), 0.1)
    with pytest.raises(ConfigError):
        progression_density_check([0.1] * 30, 1.0, (0.0, 1.0), 0.1)  # C(230, 30) sums
