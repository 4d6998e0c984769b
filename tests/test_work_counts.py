"""Work counts of the battery: a sampled word's step loop runs once, the
fixed orbit once per batch, and a value once per run; of a
realization: its closing checks read no more distances at a greater
depth; and of the family's periodic-point solve: Aberth iterations and
scalar map evaluations.

The counts come from wrapping orbits.realize, orbits.realize_batch,
cocycle.basic_cocycle and maps.evaluate in every horolab module that
binds them, as the benchmark's tracer does, and from wrapping the Newton
ratio that periodic._aberth evaluates once per iteration.
"""

import collections
import sys

import pytest

from horolab import cocycle, maps, orbits, periodic, quadratic, suite
from horolab.maps import quadratic_map
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
    the rows it hands back, and the candidates of the small chunks drawn
    after the first, are realized one by one."""
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


@pytest.mark.parametrize("eps", [-3.0, -1.1, complex(-0.525, 0.16)])
def test_family_aberth_starts_beside_the_roots(eps, monkeypatch):
    """At period 8, from the preimages of one point outside the filled
    Julia set, Aberth runs at most 20 iterations at each of param-scan's
    parameters (135, 96 and 71 from a circle around it)."""
    calls = []
    aberth = periodic._aberth

    def counted(z, newton):
        def counted_newton(x):
            calls.append(len(x))
            return newton(x)

        return aberth(z, counted_newton)

    monkeypatch.setattr(periodic, "_aberth", counted)
    assert len(periodic.periodic_points(quadratic_map(eps), 8)) == 240
    assert set(calls) == {2**8}
    assert len(calls) - 4 <= 20  # 4 of the calls are the Newton polish


def test_periodic_points_walk_no_cycle_point_by_point(monkeypatch):
    """The minimal-period filter and the Newton polish run on arrays: a
    period-8 solve calls maps.evaluate not once (the scalar walks made
    thousands of calls)."""
    calls = []
    evaluate = maps.evaluate

    def counted(eps, z):
        calls.append(z)
        return evaluate(eps, z)

    wrap_everywhere(monkeypatch, evaluate, counted)
    assert len(periodic.periodic_points(quadratic_map(-1.1), 8)) == 240
    assert calls == []
