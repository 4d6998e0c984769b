"""Work counts of the battery: a sampled word's step loop runs once, the
fixed orbit once per batch, and a value once per run; of a
realization: its closing checks read no more distances at a greater
depth; of the certified series: distances its contraction scan reads
and logarithms its sum takes; of the family's periodic-point solve:
Aberth iterations and evaluations of the map on rows; and of the sigma
bisection: certificates made.

The counts come from wrapping orbits.realize, orbits.realize_batch and
cocycle.basic_cocycle in every horolab module that binds them, as the
benchmark's tracer does, from wrapping the Newton ratio that
periodic._aberth evaluates once per iteration, from wrapping
periodic._evaluate_rows and quadratic._sigma_certificates, and from
wrapping the distances cocycle.tail_contraction is handed and the
math.log cocycle calls.
"""

import collections
import math
import sys
import types

import pytest

from horolab import cocycle, orbits, periodic, quadratic, suite
from horolab.quadratic import family_word


def wrap_everywhere(monkeypatch, original, wrapper):
    for name, module in list(sys.modules.items()):
        if name == "horolab" or name.startswith("horolab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


def realize_steps(monkeypatch, criterion):
    """Run the criterion at seed 7 and return, per word, the (first step,
    depth) of each step loop: each realize call, where a realization
    passed in is continued from its own depth, and each row that
    realize_batch closes, which starts from scratch."""
    steps = collections.defaultdict(list)
    realize, batch = orbits.realize, orbits.realize_batch

    def counted(word, depth):
        steps[word.word].append((word.depth if isinstance(word, orbits.RealizedOrbit) else 0, depth))
        return realize(word, depth)

    def counted_batch(words, depths):
        rows = batch(words, depths)
        for row in rows:
            if isinstance(row, orbits.RealizedOrbit):
                steps[row.word].append((0, row.depth))
        return rows

    wrap_everywhere(monkeypatch, realize, counted)
    wrap_everywhere(monkeypatch, batch, counted_batch)
    assert criterion(7).ok
    return steps


def assert_each_step_loop_runs_once(steps):
    """The fixed orbit is realized once at each of the two parameters,
    and each call continues where the word's last one stopped."""
    fixed = [w for w in steps if w.prefix == ""]
    assert len(fixed) == 2
    assert all(len(steps[w]) == 1 for w in fixed)
    for word, calls in steps.items():
        assert [start for start, _ in calls] == [0] + [depth for _, depth in calls[:-1]], word.prefix


def test_sign_law_realizes_each_word_once(monkeypatch):
    """Criterion 4: 200 sampled words at eps 0.1 and at -1, with their
    values and series terms."""
    steps = realize_steps(monkeypatch, suite.criterion_4)
    assert_each_step_loop_runs_once(steps)
    assert len(steps) == 2 + 400  # no candidate was rejected at seed 7


def test_complex_bound_realizes_each_word_once(monkeypatch):
    """Criterion 12: 200 sampled words at eps 0.1+0.02i and at -1+0.02i,
    with their excursions and values."""
    assert_each_step_loop_runs_once(realize_steps(monkeypatch, suite.criterion_12))


def test_sampled_words_closed_by_the_batch_are_not_realized_again(monkeypatch):
    """sample_words realizes its candidates in lockstep (realize_batch);
    a row the batch closes takes no realize call of its own, and only
    the rows it hands back, and the words of a round short of
    BATCH_MIN_ROWS (when fewer words are still needed), are realized one
    by one."""
    closed, handed_back, realized = [], [], []
    realize, batch = orbits.realize, orbits.realize_batch

    def counted(word, depth):
        realized.append(word.word)
        return realize(word, depth)

    def counted_batch(words, depths):
        rows = batch(words, depths)
        closed.extend(row.word for row in rows if isinstance(row, orbits.RealizedOrbit))
        handed_back.extend(row for row in rows if isinstance(row, orbits.OrbitWord))
        return rows

    wrap_everywhere(monkeypatch, realize, counted)
    wrap_everywhere(monkeypatch, batch, counted_batch)
    words = quadratic.sample_words(-1.0, 70, 11, 12)
    assert len(words) == 70
    assert len(closed) >= 50
    assert not set(closed) & set(realized)
    assert set(handed_back) <= set(realized)
    assert len(realized) == len(set(realized))  # each of the others once


def test_a_round_of_batch_size_is_realized_in_one_batch(monkeypatch):
    """Criterion 7's call draws until its one round holds 60 new prefixes
    (of the 63 of length <= 6), and realizes them in one batch; drawing
    60 times, repeats included, left rounds too small to batch."""
    calls = []
    batch = orbits.realize_batch

    def counted_batch(words, depths):
        calls.append(len(words))
        return batch(words, depths)

    wrap_everywhere(monkeypatch, batch, counted_batch)
    assert len(quadratic.sample_words(0.1, 60, 7, 6)) == 60
    assert calls == [60]


def test_value_of_a_batch_row_realizes_only_the_fixed_orbit(monkeypatch):
    """A row the batch closed comes at the series start depth, so its
    value against the fixed orbit takes no step of its own: realize runs
    for the fixed orbit alone."""
    closed = []
    batch = orbits.realize_batch

    def counted_batch(words, depths):
        rows = batch(words, depths)
        closed.extend(row.word for row in rows if isinstance(row, orbits.RealizedOrbit))
        return rows

    wrap_everywhere(monkeypatch, batch, counted_batch)
    words = [w for w in quadratic.sample_words(-1.0, 40, 5, 8) if w.word in closed]
    assert len(words) >= 30
    realized = []
    realize = orbits.realize

    def counted(word, depth):
        realized.append(word.prefix)
        return realize(word, depth)

    wrap_everywhere(monkeypatch, realize, counted)
    for w in words:
        realized.clear()
        cocycle.cocycle_vs_fixed(w, 1e-12)
        assert realized == [""]


def test_bound_check_takes_the_sign_law_values(monkeypatch):
    """Criterion 6, given criterion 4's result, computes none of its 430
    values (200 words and the 15 behind B, at each parameter) again."""
    values = []
    basic = cocycle.basic_cocycle

    def counted(x, y, tol):
        values.append(y.prefix)
        return basic(x, y, tol)

    wrap_everywhere(monkeypatch, basic, counted)
    sign_law = suite.criterion_4(7)
    assert len(values) == 400
    values.clear()
    bound = suite.criterion_6(7, sign_law)
    assert bound.ok
    assert values == []
    assert bound.details == suite.criterion_6(7).details


def test_battery_hands_criterion_4s_result_to_criterion_6(monkeypatch):
    """By position in CRITERIA, so it holds when the entries are wrapped,
    as the benchmark's tracer wraps them.  The stand-ins run in the
    battery's workers, so each records the earlier results it was handed
    in its own details."""

    def stand_in(index):
        def criterion(seed, *earlier):
            return suite.CriterionResult(index, "stand-in", True, {"earlier": [r.index for r in earlier]}, 0.0, {})

        return criterion

    monkeypatch.setattr(suite, "CRITERIA", [stand_in(i) for i in range(1, 13)])
    monkeypatch.setattr(suite, "criterion_13", lambda seed, results, probes: stand_in(13)(seed, *results))
    results = suite.run_battery(7)
    assert [r.index for r in results] == list(range(1, 14))
    assert [r.details["earlier"] for r in results] == [
        [4] if i == 6 else [] for i in range(1, 13)
    ] + [list(range(1, 13))]


def test_semigroup_criterion_values_each_word_once(monkeypatch):
    """Criterion 7: for each of its 20 pairs, beta(y), beta(c), the five
    junction words and the nested word, 160 values with none twice (the
    nested check takes beta(y) and beta(c) from the two-component one)."""
    pairs = []
    basic = cocycle.basic_cocycle

    def counted(x, y, tol):
        pairs.append((x.prefix, y.prefix))
        return basic(x, y, tol)

    wrap_everywhere(monkeypatch, basic, counted)
    assert suite.criterion_7(7).ok
    assert len(pairs) == 160
    assert len(set(pairs)) == len(pairs)


def test_algebra_criterion_values_each_pair_once(monkeypatch):
    """Criterion 8: its 100 random draws repeat index pairs, and each
    distinct ordered pair of words (or of shifted words) is valued once."""
    pairs = []
    basic = cocycle.basic_cocycle

    def counted(x, y, tol):
        pairs.append((x.prefix, y.prefix))
        return basic(x, y, tol)

    wrap_everywhere(monkeypatch, basic, counted)
    assert suite.criterion_8(7).ok
    assert len(set(pairs)) == len(pairs)


def test_closing_checks_read_as_many_distances_at_any_depth(monkeypatch):
    """Continuing a realization by one step and cutting it back by one
    read as many distances in the closing checks (orbits._settle) at
    depth 4000 as at depth 2000."""
    w = family_word(0.1, "-")
    orbs = [orbits.realize(w, depth) for depth in (2000, 4000)]
    reads = []

    class CountedReads(tuple):
        def __getitem__(self, i):
            got = tuple.__getitem__(self, i)
            reads.append(len(got) if isinstance(i, slice) else 1)
            return got

    settle = orbits._settle

    def counted(word, depth, pts, choices, dists, *facts):
        return settle(word, depth, pts, choices, CountedReads(dists), *facts)

    monkeypatch.setattr(orbits, "_settle", counted)
    counts = []
    for orb in orbs:
        reads.clear()
        longer, shorter = orb.at(orb.depth + 1), orb.at(orb.depth - 1)
        counts.append(sum(reads))
        assert longer == orbits.realize(w, orb.depth + 1)
        assert shorter == orbits.realize(w, orb.depth - 1)
    assert counts[0] == counts[1]


def test_contraction_scan_stops_at_the_signal_end(monkeypatch):
    """Over values against the fixed orbit and between sampled words,
    tail_contraction tests no distance at or past the end of the
    above-floor distances against the floor: the one distance it reads
    there is the numerator of the last step ratio.  The fixed orbit's
    distances all lie below the floor, and it reads none of them."""
    calls = []
    contraction = cocycle.tail_contraction

    class CountedReads(tuple):
        def __getitem__(self, i):
            calls[-1][1].append(i)
            return tuple.__getitem__(self, i)

    def counted(dists, entry, *rest):
        end = max((j + 1 for j, d in enumerate(dists) if d > orbits.RHO_SIGNAL_FLOOR), default=0)
        calls.append((end, []))
        return contraction(CountedReads(dists), entry, *rest)

    monkeypatch.setattr(cocycle, "tail_contraction", counted)
    for eps in (-1.0, complex(-1.0, 0.02)):
        words = quadratic.sample_words(eps, 40, 5, 8)
        cocycle.values_vs_fixed(words, 1e-12)
        for x, y in zip(words, words[1:]):
            cocycle.basic_cocycle(x, y, 1e-12)
    assert len(calls) == 2 * 2 * (40 + 39)  # both orbits of each value, at two parameters
    for end, reads in calls:
        assert max(reads, default=0) <= end and reads.count(end) <= 1
    unread = [reads for end, reads in calls if end == 0]  # the fixed orbit's, among others
    assert len(unread) >= 80 and not any(unread)


def test_values_vs_fixed_takes_one_log_of_the_constant_fixed_orbit(monkeypatch):
    """The fixed orbit is constant past its first point (a itself at
    real parameters, a point 1 ulp from a at -0.525+0.16i), so each
    value against it takes its x-term once: the sum over N words takes
    sum(k) + N logarithms, where it took 2 sum(k)."""
    logs = []

    def log(x):
        logs.append(x)
        return math.log(x)

    names = {n: getattr(math, n) for n in dir(math) if not n.startswith("_")}
    monkeypatch.setattr(cocycle, "math", types.SimpleNamespace(**{**names, "log": log}))
    for eps in (-1.0, 0.1, complex(-1.0, 0.02), complex(-0.525, 0.16)):
        words = quadratic.sample_words(eps, 40, 5, 8)
        assert len(set(orbits.realize(orbits.fixed_word(words[0]), 200).points[1:])) == 1
        logs.clear()
        values = cocycle.values_vs_fixed(words, 1e-12)
        assert len(logs) == sum(v.depth_used for v in values) + len(words)


@pytest.mark.parametrize("eps", [-3.0, -1.1, complex(-0.525, 0.16)])
def test_family_aberth_starts_beside_the_roots(eps, monkeypatch):
    """At period 8, from the preimages of one point outside the filled
    Julia set, Aberth runs at most 20 iterations at each of param-scan's
    parameters (135, 96 and 71 from a circle around it), solved directly,
    as -3 takes the branch words in periodic_points."""
    calls = []
    aberth = periodic._aberth

    def counted(z, newton):
        def counted_newton(x):
            calls.append(len(x))
            return newton(x)

        return aberth(z, counted_newton)

    monkeypatch.setattr(periodic, "_aberth", counted)
    centres, multiplicities = periodic._aberth_roots(eps, 8)
    assert len(centres) == 256 and (multiplicities == 1).all()
    assert set(calls) == {2**8}
    assert len(calls) - 4 <= 20  # 4 of the calls are the Newton polish


def test_periodic_points_walk_no_cycle_point_by_point(monkeypatch):
    """The minimal-period filter and the Newton polish run on arrays: a
    period-8 solve evaluates f on its 256 roots 4 times (the proper
    divisors are at most 4), then on the 240 kept ones 8 times per walk,
    in one walk before the polish and one after each of at most 5 Newton
    steps (the scalar walks made thousands of calls)."""
    rows = []
    evaluate_rows = periodic._evaluate_rows

    def counted(eps, zr, zi):
        rows.append(len(zr))
        return evaluate_rows(eps, zr, zi)

    monkeypatch.setattr(periodic, "_evaluate_rows", counted)
    assert len(periodic.periodic_points(-1.1, 8)) == 240
    assert rows[:12] == [256] * 4 + [240] * 8 and len(rows) <= 4 + 6 * 8


def test_find_sigma_stops_bisecting_when_the_midpoint_stops_moving(monkeypatch):
    """At -3 a regula falsi closes the bracket about the edge of the
    admissible sigmas to adjacent floats in 9 certificates, after those
    at |a|/4 and the floor; the bisection then decides every midpoint
    from the bracket, without one, and keeps the certificate made at lo:
    11 certificates in all, where a certificate at every midpoint made
    55 and the full 60 steps and a last certificate at lo made 63."""
    calls = []
    certificates = quadratic._sigma_certificates

    def counted(eps, a, sigma):
        calls.append(sigma)
        return certificates(eps, a, sigma)

    quadratic.find_sigma.cache_clear()
    monkeypatch.setattr(quadratic, "_sigma_certificates", counted)
    quadratic.find_sigma(-3.0)
    assert len(calls) <= 15
