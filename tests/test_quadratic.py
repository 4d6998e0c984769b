"""Tests for the family-specific constructions.

Frozen sigma and delta regression values were produced by this code
and cross-checked by hand against the closed forms they should reduce
to (sigma = a/4 where that radius certifies, the explicit fixed point
for real parameters); the excursion counts are recomputed here from an
inline realization that shares nothing with the package engine.
"""

import cmath
import math

import pytest

from horolab.cocycle import cocycle_vs_fixed
from horolab.errors import (
    ConfigError,
    ConstructionError,
    DomainError,
    PreconditionError,
)
from horolab.julia import JuliaSample, inverse_iteration_sample
from horolab.maps import evaluate
from horolab.quadratic import (
    branch_exceptional,
    build_B_epsilon,
    cocycle_lower_bound_check,
    default_sigma_delta,
    derivative_extremality_check,
    disk_containment_check,
    excursion_stats,
    family_word,
    find_sigma,
    find_sigma_delta,
    fixed_point_a,
    limit_decomposition_check,
    list_1_1_member,
    lower_bound,
    nested_decomposition_check,
    normalize_word,
    quadratic_map,
    sample_words,
    word_from_json,
)

TOL = 1e-9
PHI = (1 + math.sqrt(5)) / 2


def test_fixed_point_closed_forms():
    assert fixed_point_a(0.0) == 1.0
    assert abs(fixed_point_a(-1.0) - PHI) < 1e-15
    assert abs(fixed_point_a(0.1) - 0.8872983346207417) < 1e-16
    a = fixed_point_a(0.3 + 0.1j)
    assert abs(a * a + (0.3 + 0.1j) - a) < 1e-15


def test_fixed_point_domain_cut():
    for eps in (0.25, 0.3, 1.0):
        with pytest.raises(DomainError):
            fixed_point_a(eps)


def test_quadratic_map_evaluates():
    f = quadratic_map(-1.0)
    assert evaluate(f, 0.5j) == 0.5j * 0.5j - 1.0


def test_branch_exceptional_only_at_minus_two():
    assert branch_exceptional(-2.0)
    for eps in (0.0, 0.1, -1.0, -1.999, -2.001):
        assert not branch_exceptional(eps)


def test_list_membership_tolerance():
    assert list_1_1_member(0.0) and list_1_1_member(-2.0)
    assert list_1_1_member(1e-13) and list_1_1_member(-2.0 + 1e-13)
    assert not list_1_1_member(1e-11)
    assert not list_1_1_member(-1.0)


def test_sigma_frozen_values():
    cases = {
        0.0: 0.25,
        0.1: 0.22182458365518543,
        -1.0: 0.4045084971874737,
        -3.0: 0.3332396889405186,
    }
    for eps, expected in cases.items():
        sigma, cert = find_sigma(eps)
        assert sigma == pytest.approx(expected, abs=1e-15)
        assert cert["univalence_margin"] >= 1e-6
        assert cert["covering_margin"] >= 1e-6
        assert cert["disjointness_margin"] >= 1e-6
        assert abs(cert["winding"] - 1.0) < 0.01


def test_sigma_quarter_rule_and_bisection():
    # a/4 certifies directly at 0.1 and -1; at -3 it does not and the
    # bisected radius must land strictly below it
    assert find_sigma(0.1)[0] == pytest.approx(fixed_point_a(0.1).real / 4)
    assert find_sigma(-1.0)[0] == pytest.approx(PHI / 4)
    assert find_sigma(-3.0)[0] < fixed_point_a(-3.0).real / 4


def test_sigma_delta_reuses_the_family_words_disk():
    """family_word and find_sigma_delta ask find_sigma the same question,
    so the disk at a parameter is constructed once."""
    find_sigma.cache_clear()
    find_sigma(-1.0)
    misses = find_sigma.cache_info().misses
    default_sigma_delta(-1.0, 7)
    assert find_sigma.cache_info().misses == misses


def test_sigma_fails_where_disks_must_merge():
    with pytest.raises(ConstructionError):
        find_sigma(-2.0)


def test_delta_frozen_values():
    assert default_sigma_delta(0.1, seed=7).delta == pytest.approx(
        0.016286439020712862, abs=1e-15
    )
    assert default_sigma_delta(-1.0, seed=7).delta == pytest.approx(
        0.03983292957929174, abs=1e-15
    )


def test_sigma_delta_preconditions():
    sample = inverse_iteration_sample(-1.0, 500, 40, seed=2)
    with pytest.raises(PreconditionError):
        find_sigma_delta(0.0, sample)
    with pytest.raises(PreconditionError):
        find_sigma_delta(0.1, sample)  # sample drawn for the wrong epsilon
    empty = JuliaSample(-1.0, (), "inverse-iteration", {})
    with pytest.raises(PreconditionError):
        find_sigma_delta(-1.0, empty)


def reference_delta(eps, sample):
    """delta and delta_sample_size by the loop over the points that the
    array pass replaced."""
    sigma, _ = find_sigma(eps)
    a = fixed_point_a(eps)
    base = math.log(2.0 * abs(a))
    gaps = []
    for z in sample.points:
        if abs(z - a) < sigma or (abs(z * z + eps - a) < sigma and abs(z + a) < abs(z - a)):
            continue
        if z == 0:
            continue
        gaps.append(abs(math.log(2.0 * abs(z)) - base))
    return repr(0.5 * min(gaps)), float(len(gaps))


def delta_bits(sd):
    return repr(sd.delta), sd.certificates["delta_sample_size"]


@pytest.mark.parametrize("eps", [-3.0, -1.1, complex(-0.525, 0.16), 0.1, complex(-1.0, 0.02)])
@pytest.mark.parametrize("seed", [7, 11])
def test_delta_bitwise_the_loop_over_points(eps, seed):
    eps = complex(eps)
    sample = inverse_iteration_sample(eps, 10000, 40, seed)
    assert delta_bits(find_sigma_delta(eps, sample)) == reference_delta(eps, sample)


def test_delta_on_a_constructed_sample_with_signed_zeros():
    """Zeros of either sign are dropped, points in D_sigma(a) and D' are
    excluded, and conjugate points tie for the smallest gap."""
    eps = complex(-1.0)
    a = fixed_point_a(eps)
    sigma, _ = find_sigma(eps)
    zeros = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    excluded = [a, a + 0.5 * sigma, -a, -a + 0.1 * sigma * 1j]
    kept = [complex(0.7, 0.3), complex(0.7, -0.3), complex(-0.0, 1.2), complex(-1.1, -0.0), complex(0.31, 0.0)]
    sample = JuliaSample(eps, tuple(zeros + excluded + kept), "inverse-iteration", {})
    sd = find_sigma_delta(eps, sample)
    assert delta_bits(sd) == reference_delta(eps, sample)
    assert sd.certificates["delta_sample_size"] == len(kept)


def brute_excursion_counts(eps, prefix, sigma, depth):
    """Independent excursion recount via the closed-form recursion."""
    a = (1 + cmath.sqrt(1 - 4 * eps)) / 2
    pts = [a]
    for j in range(depth):
        s = cmath.sqrt(pts[-1] - eps)
        if j < len(prefix):
            z = s if prefix[j] == "+" else -s
        else:
            z = min([s, -s], key=lambda r: (abs(r - a), -r.imag, -r.real))
        pts.append(z)
    inside = [abs(p - a) < sigma for p in pts]
    J = tuple(j for j in range(depth) if inside[j] and not inside[j + 1])
    K = tuple(j for j in range(1, depth + 1) if not inside[j - 1] and inside[j])
    d = sum(1 for j in range(1, depth + 1) if not inside[j])
    return J, K, d


def test_excursion_stats_match_independent_recount():
    sd = default_sigma_delta(0.1, seed=7)
    w = family_word(0.1, "-")
    stats = excursion_stats(w, sd.sigma)
    J, K, d = brute_excursion_counts(0.1, "-", sd.sigma, len(w.prefix) + 120)
    assert stats.J_indices == J == (0,)
    assert stats.K_indices == K == (6,)
    assert stats.s == 1
    assert stats.d == d == 5


def test_excursion_requires_normalized_word():
    sd = default_sigma_delta(0.1, seed=7)
    with pytest.raises(PreconditionError):
        excursion_stats(family_word(0.1, "+-"), sd.sigma)
    assert excursion_stats(normalize_word(family_word(0.1, "++-")), sd.sigma).s == 1


def test_normalize_word():
    assert normalize_word(family_word(0.1, "++-")).prefix == "-"
    assert normalize_word(family_word(0.1, "-+")).prefix == "-+"
    with pytest.raises(PreconditionError):
        normalize_word(family_word(0.1, "++"))


def test_lower_bound_check_same_parameter():
    sd = default_sigma_delta(0.1, seed=7)
    bc = cocycle_lower_bound_check(family_word(0.1, "-"), sd, TOL)
    assert bc.ok
    assert bc.delta_used == sd.delta
    assert bc.margin == pytest.approx(
        abs(bc.beta.value) - bc.beta.tail_bound - sd.delta * bc.stats.d
    )
    assert bc.beta.value > 0  # positive side of the family


def test_lower_bound_check_perturbed_parameter_halves_delta():
    sd = default_sigma_delta(0.1, seed=7)
    w = family_word(0.1 + 0.02j, "-", sigma=sd.sigma)
    bc = cocycle_lower_bound_check(normalize_word(w), sd, TOL)
    assert bc.delta_used == 0.5 * sd.delta
    assert bc.ok


def test_lower_bound_rejects_excursions_from_another_disk():
    sd = default_sigma_delta(0.1, seed=7)
    w = family_word(0.1, "-")
    beta = cocycle_lower_bound_check(w, sd, TOL).beta
    assert lower_bound(beta, excursion_stats(w, sd.sigma), sd).ok
    with pytest.raises(PreconditionError, match="radius"):
        lower_bound(beta, excursion_stats(w, 0.5 * sd.sigma), sd)


def test_negative_parameter_gives_negative_cocycle():
    for prefix in ("-", "--", "-+"):
        v = cocycle_vs_fixed(family_word(-1.0, prefix), TOL)
        assert v.value < 0


def synthetic_sample(eps, points):
    return JuliaSample(complex(eps), tuple(points), "inverse-iteration", {})


def test_containment_clean_on_real_sample():
    sample = inverse_iteration_sample(-1.0, 2000, 40, seed=5)
    rep = disk_containment_check(-1.0, sample, 1e-6)
    assert not rep.violations
    assert not rep.proximity_failures
    assert rep.max_excess <= 1e-6


def test_containment_flags_synthetic_outlier():
    a = fixed_point_a(-1.0).real
    rep = disk_containment_check(-1.0, synthetic_sample(-1.0, [2.0 + 0j]), 1e-6)
    assert rep.violations == (2.0 + 0j,)
    # a circle point away from +-a is near the boundary but not at a
    z = a * cmath.exp(1j * 2.0)
    rep2 = disk_containment_check(-1.0, synthetic_sample(-1.0, [z]), 1e-6)
    assert rep2.proximity_failures == (z,)


def test_containment_direction_flips_with_sign():
    # for 0 < eps < 1/4 the Julia set lies outside the circle, so a
    # point near the origin is the violation
    rep = disk_containment_check(0.1, synthetic_sample(0.1, [0.1 + 0j]), 1e-6)
    assert rep.violations == (0.1 + 0j,)


def test_extremality_clean_and_synthetic():
    sample = inverse_iteration_sample(-1.0, 2000, 40, seed=5)
    rep = derivative_extremality_check(-1.0, sample, 1e-6)
    assert not rep.violations and not rep.equality_failures
    assert rep.max_abs_deriv <= rep.bound + 1e-6
    bad = derivative_extremality_check(-1.0, synthetic_sample(-1.0, [1.7 + 0j]), 1e-6)
    assert bad.violations == (1.7 + 0j,)


def test_real_precondition_guards():
    sample = synthetic_sample(0.3 + 0j, [1.0 + 0j])
    with pytest.raises(PreconditionError):
        disk_containment_check(0.3, sample, 1e-6)
    with pytest.raises(PreconditionError):
        derivative_extremality_check(0.0, synthetic_sample(0.0, [1.0 + 0j]), 1e-6)


def test_sample_words_deterministic_and_distinct():
    a = sample_words(0.1, 12, seed=3, max_len=6)
    b = sample_words(0.1, 12, seed=3, max_len=6)
    assert [w.prefix for w in a] == [w.prefix for w in b]
    prefixes = [w.prefix for w in a]
    assert len(set(prefixes)) == 12
    assert all(p.startswith("-") for p in prefixes)


def test_sample_words_exhaustion_is_an_error():
    # only 3 distinct normalized prefixes exist at max_len 2
    with pytest.raises(ConfigError):
        sample_words(0.1, 10, seed=3, max_len=2)


def test_sample_words_refuses_more_words_than_prefixes():
    # seven normalized prefixes of length <= 3 exist: -, -+, --, and four of length 3
    with pytest.raises(ConfigError, match="only 7 normalized prefixes"):
        sample_words(0.1, 8, 7, max_len=3)


@pytest.mark.parametrize("eps", [0.1, -1.0, -3.0, 0.2499, complex(0.1, 0.02), complex(-0.525, 0.16)])
def test_closed_form_covering_margin_bounds_a_dense_sample(eps):
    sigma, cert = find_sigma(eps)
    a = fixed_point_a(eps)
    circle = [a + sigma * cmath.exp(2j * math.pi * k / 2**16) for k in range(2**16)]
    sampled = min(abs(z * z + eps - a) for z in circle) - sigma
    assert cert["covering_margin"] <= sampled <= cert["covering_margin"] + 1e-9
    assert cert["univalence_margin"] < abs(a) - sigma
    assert cert["winding"] == 1.0


def test_word_json_round_trip():
    w = family_word(0.1, "-+")
    assert word_from_json(w.to_json()) == w


def test_build_B_window_touches_zero_and_misses_neighborhood():
    rep = build_B_epsilon(0.1, word_budget=6, l_max=2, tol=TOL, seed=7)
    assert rep.window[0] == 0.0  # all values positive at eps > 0
    assert rep.count == 6 + 21  # singles plus pairs with repetition
    assert min(v for v, _ in rep.values) > 0.01


def test_build_B_preconditions():
    with pytest.raises(PreconditionError):
        build_B_epsilon(0.0, 5, 2, TOL, seed=1)
    with pytest.raises(PreconditionError):
        build_B_epsilon(0.05j, 5, 2, TOL, seed=1)
    with pytest.raises(ConfigError):
        build_B_epsilon(0.1, 5, 0, TOL, seed=1)
    with pytest.raises(ConfigError):
        build_B_epsilon(0.1, 200, 3, TOL, seed=1)  # 1,373,700 sums


def test_limit_decomposition_two_components():
    y = family_word(0.1, "-")
    c = family_word(0.1, "--")
    dec = limit_decomposition_check(y, c, [10, 20, 30, 40], TOL)
    assert dec.l == 2
    assert dec.defects_decreasing
    assert dec.nu_distances_decreasing
    assert dec.windows_converging
    assert dec.converged
    bsum = dec.component_betas[0].value + dec.component_betas[1].value
    assert dec.limit_value == pytest.approx(bsum)
    assert dec.nu_indices[-1] == (0, 40)


def test_limit_decomposition_degenerates_on_fixed_tail():
    y = family_word(0.1, "-")
    dec = limit_decomposition_check(y, family_word(0.1, ""), [10, 20], TOL)
    assert dec.l == 1
    assert dec.limit_value == pytest.approx(dec.component_betas[0].value)
    assert dec.beta_c.value == 0.0


def test_limit_decomposition_of_no_junctions_is_empty():
    dec = limit_decomposition_check(family_word(0.1, "-"), family_word(0.1, "--"), [], TOL)
    assert dec.defects == () and dec.rate is None and not dec.converged


def test_limit_decomposition_rejects_unsorted_junctions():
    y = family_word(0.1, "-")
    with pytest.raises(PreconditionError):
        limit_decomposition_check(y, y, [20, 10], TOL)


def test_nested_decomposition_three_components():
    y = family_word(0.1, "-")
    c = family_word(0.1, "--")
    dec = nested_decomposition_check(limit_decomposition_check(y, c, [20], TOL), 20)
    assert dec.l == 3
    assert dec.nu_indices == ((0, 20, 40),)
    two_c = dec.component_betas[1].value + dec.component_betas[2].value
    assert dec.limit_value == pytest.approx(dec.component_betas[0].value + two_c)
    assert dec.converged
    assert dec.defects[0] < 1e-6


def test_nested_decomposition_takes_c_and_tol_from_the_limit_result():
    y = family_word(0.1, "-")
    two = limit_decomposition_check(y, family_word(0.1, "--"), [20], 1e-9)
    dec = nested_decomposition_check(two, 20)
    assert dec.c is two.c and dec.tol == 1e-9
    assert dec.component_betas[1] is two.component_betas[1] is two.beta_c
