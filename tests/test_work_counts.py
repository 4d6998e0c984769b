"""Work counts of the battery: a sampled word's step loop runs once, the
fixed orbit once per batch, and a value once per run.

The counts come from wrapping orbits.realize and cocycle.basic_cocycle
in every horolab module that binds them, as the benchmark's tracer does.
"""

import collections
import sys

from horolab import cocycle, orbits, suite


def wrap_everywhere(monkeypatch, original, wrapper):
    for name, module in list(sys.modules.items()):
        if name == "horolab" or name.startswith("horolab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)


def test_sign_law_realizes_each_word_once(monkeypatch):
    """Criterion 4: 200 sampled words at eps 0.1 and at -1, with their
    values and series terms."""
    steps = collections.defaultdict(list)  # word -> (first step, depth) per call
    realize = orbits.realize

    def counted(word, depth, *args, **kwargs):
        resume = args[0] if args else kwargs.get("resume")
        steps[word].append((0 if resume is None else resume.depth, depth))
        return realize(word, depth, *args, **kwargs)

    wrap_everywhere(monkeypatch, realize, counted)
    assert suite.criterion_4(7).ok
    fixed = [w for w in steps if w.prefix == ""]
    assert len(fixed) == 2
    assert all(len(steps[w]) == 1 for w in fixed)
    assert len(steps) == 2 + 400  # no candidate was rejected at seed 7
    for word, calls in steps.items():
        # each call continues where the last one stopped
        assert [start for start, _ in calls] == [0] + [depth for _, depth in calls[:-1]], word.prefix


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
    as the benchmark's tracer wraps them."""
    calls = []

    def stand_in(index):
        def criterion(seed, *earlier):
            calls.append((index, earlier))
            return index

        return criterion

    monkeypatch.setattr(suite, "CRITERIA", [stand_in(i) for i in range(1, 13)])
    monkeypatch.setattr(suite, "criterion_13", lambda seed, results: 13)
    assert suite.run_battery(7) == list(range(1, 14))
    assert calls == [(i, (4,) if i == 6 else ()) for i in range(1, 13)]


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
