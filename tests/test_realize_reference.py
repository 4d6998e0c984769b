"""realize against a plain step-by-step loop: the stationary-tail fill,
the carried distances and the facts recorded for the closing checks
change no bit of a realization, of its cuts and continuations, or of
the error they raise.  realize_batch against realize: a row it closes
is realize's realization bit for bit, and sample_words, which draws its
candidates in chunks and realizes them in lockstep, against a loop that
draws one candidate and checks it."""

import cmath
import dataclasses
import math
import re
import sys
import types

import numpy as np
import pytest

from horolab import orbits, quadratic
from horolab.errors import (
    ConfigError,
    ConstructionError,
    DegenerateBranchError,
    DivergentWordError,
    HorolabError,
)
from horolab.orbits import (
    CRITICAL_PROXIMITY,
    DIVERGENCE_GRACE,
    TAIL_CONFIRM,
    OrbitWord,
    RealizedOrbit,
    _nearer,
    _same_signs,
    realize,
    realize_batch,
)
from horolab.quadratic import MEMBERSHIP_DEPTH, family_word, sample_words

# at eps = 0.4+0.15i the word "-+" has one rise, a tail step: its
# distances to a fall to 0.6291 at index 6, rise to 0.6422 at index 7,
# then fall to a
RISE_EPS = complex(0.4, 0.15)


def reference(word, depth):
    """Points (as float bits), choices and entry index of the word's
    orbit, one square root per step and no shortcut; or the type and
    message of the error that a plain scan of its distances finds: no
    entry within the divergence grace, or a rise from the entry on."""
    eps = word.epsilon
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
    d = [abs(p - a) for p in pts]
    entry = len(pts)
    while entry > 0 and d[entry - 1] < word.sigma:
        entry -= 1
    if len(pts) - entry < TAIL_CONFIRM + 1:
        entry = None
        if depth - len(word.prefix) >= DIVERGENCE_GRACE:
            return DivergentWordError, f"tail did not settle into the sigma-disk within depth {depth}"
    else:
        for j in range(max(entry, 1), depth):
            if d[j + 1] > d[j] * (1.0 + 1e-9) and d[j + 1] > 1e-14:
                return (
                    DivergentWordError,
                    f"in-disk tail fails to contract at depth {j + 1}: {d[j]:.3e} -> {d[j + 1]:.3e}",
                )
    return bits(pts), choices, entry


def bits(points):
    """The points as hex floats: unlike ==, this tells -0.0 from 0.0."""
    return [(p.real.hex(), p.imag.hex()) for p in points]


def checked(orb):
    """orb's points (as float bits), choices and entry index, after
    checking that it carries the distance of every point to a and the
    facts that a plain scan of its distances and points finds."""
    a = orb.base.location
    d = orb.dists
    assert d == tuple(abs(p - a) for p in orb.points)
    assert orb.outside == tuple(j for j, x in enumerate(d) if x >= orb.sigma)
    assert orb.rises == tuple(
        j for j in range(1, len(d) - 1) if d[j + 1] > d[j] * (1.0 + 1e-9) and d[j + 1] > 1e-14
    )
    assert orb.near_critical == tuple(j for j, p in enumerate(orb.points) if abs(p) <= CRITICAL_PROXIMITY)
    return bits(orb.points), orb.choices, orb.entry_index


def outcome(make):
    """checked(make()), or the type and message of the error it raises."""
    try:
        orb = make()
    except HorolabError as err:
        return type(err), str(err)
    return checked(orb)


def assert_as_from_scratch(make, word, depth):
    """make() gives what realizing the word from scratch gives, and what
    the plain loop gives, the error included."""
    expected = reference(word, depth)
    assert outcome(lambda: realize(word, depth)) == expected
    assert outcome(make) == expected
    return expected


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


def test_realizing_a_deeper_realization_cuts_it(sqrt_calls):
    w = family_word(0.1, "-")
    deep = realize(w, 2000)
    sqrt_calls.clear()
    assert checked(realize(deep, 1000)) == checked(deep.at(1000)) == reference(w, 1000)
    assert len(sqrt_calls) == 0


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


def test_continuation_leaving_the_disk_moves_the_entry_past_old_points():
    # with sigma at the distance of point 7, point 6 is inside and the
    # continuation's first new point, 7, is outside
    w = family_word(RISE_EPS, "-+")
    w = dataclasses.replace(w, sigma=realize(w, 7).dists[7])
    old = realize(w, 6)
    assert old.outside[-1] == 5
    for depth in (7, 8, 15, 16, 60):
        assert_as_from_scratch(lambda: realize(old, depth), w, depth)
        assert realize(old, depth).outside[-1] == 7


@pytest.mark.parametrize("sigma", [None, 0.7])
def test_rise_on_the_pair_that_joins_a_continuation(sigma):
    # the rise joins the last old point (6) to the first new one (7);
    # at sigma 0.7 the entry is 6, so once confirmed the rise raises
    w = family_word(RISE_EPS, "-+", sigma)
    old = realize(w, 6)
    assert old.rises == ()
    results = [assert_as_from_scratch(lambda: realize(old, d), w, d) for d in (7, 13, 14, 60)]
    if sigma is not None:
        assert results[2] == (
            DivergentWordError,
            "in-disk tail fails to contract at depth 7: 6.291e-01 -> 6.422e-01",
        )


@pytest.mark.parametrize("sigma, deep", [(None, 60), (0.7, 13)])
def test_cut_at_each_outside_index(sigma, deep):
    w = family_word(RISE_EPS, "-+", sigma)
    orb = realize(w, deep)
    assert orb.outside
    for depth in orb.outside:
        if depth >= len(w.prefix):
            assert_as_from_scratch(lambda: orb.at(depth), w, depth)


@pytest.mark.parametrize("sigma, deep", [(None, 60), (0.7, 13)])
def test_cut_that_drops_the_only_rise(sigma, deep):
    w = family_word(RISE_EPS, "-+", sigma)
    orb = realize(w, deep)
    assert orb.rises == (6,)
    for depth in (6, 7):
        assert_as_from_scratch(lambda: orb.at(depth), w, depth)
    assert orb.at(6).rises == ()
    assert orb.at(7).rises == (6,)


def test_near_critical_point_among_the_new_points():
    # at eps = -2 + 1e-18i the word "-" passes 8.2e-10 from the critical
    # point 0 at depth 2, a tail step, without colliding its branches
    w = family_word(complex(-2.0, 1e-18), "-", sigma=0.5)
    old = realize(w, 1)
    assert old.near_critical == ()
    for depth in (2, 3, 60):
        assert_as_from_scratch(lambda: realize(old, depth), w, depth)
        assert realize(old, depth).near_critical == (2,)
    assert_as_from_scratch(lambda: realize(w, 60).at(1), w, 1)


def test_stationary_tail_outside_the_disk_records_its_filled_range():
    # at eps = -1+0.02i the word "-++" stops moving 1.7e-18 from a; with
    # sigma at that distance the filled tail lies outside the disk, and
    # the word diverges at the grace depth
    w = family_word(complex(-1.0, 0.02), "-++")
    w = dataclasses.replace(w, sigma=realize(w, 80).dists[-1])
    old = realize(w, 40)
    assert old.points[-1] == old.points[-2]
    for depth in (41, 62, 63):
        assert_as_from_scratch(lambda: realize(old, depth), w, depth)
    assert outcome(lambda: realize(old, 63))[0] is DivergentWordError


# ---------------------------------------------------------------------------
# the lockstep batch


def exact(orb):
    """Everything a realization carries, floats as bits."""
    return (
        bits(orb.points),
        orb.choices,
        orb.entry_index,
        [d.hex() for d in orb.dists],
        orb.outside,
        orb.rises,
        orb.near_critical,
    )


def batch_rows(words, depths):
    """realize_batch's rows, checked: a closed row is realize's
    realization bit for bit, and the plain loop's; any other row is its
    word, handed back.  Returns the prefixes handed back."""
    rows = realize_batch(words, depths)
    assert len(rows) == len(words)
    back = []
    for word, depth, row in zip(words, depths, rows):
        if isinstance(row, RealizedOrbit):
            assert exact(row) == exact(realize(word, depth))
            assert checked(row) == reference(word, depth)
        else:
            assert row is word
            back.append(word.prefix)
    return back


def at_minus_a(prefix):
    """The prefix ends at -a: past it, sqrt(-a - eps) is imaginary at a
    real parameter above -a, an exact tie of the two preimages, which
    realize_batch hands back to realize."""
    return re.fullmatch(r"\+*-", prefix) is not None


def seeded_words(eps, count, seed, max_len):
    """Words of count seeded prefixes (duplicates dropped) of length at
    most max_len, '+'-led ones included."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_len + 1, size=count).tolist()
    prefixes = {"".join("+-"[b] for b in rng.integers(0, 2, size=n).tolist()) for n in lengths}
    return [family_word(eps, p) for p in sorted(prefixes)]


REAL_EPS = [0.1, -1.0, -3.0, 0.0]
COMPLEX_EPS = [complex(-1.0, 0.02), complex(-0.525, 0.16)]


@pytest.mark.parametrize("eps", REAL_EPS + COMPLEX_EPS)
def test_batch_rows_are_realize_bit_for_bit(eps):
    words = seeded_words(eps, 60, 11, 10)
    for extra in (0, 1, 12, MEMBERSHIP_DEPTH):
        back = batch_rows(words, [len(w.prefix) + extra for w in words])
        ties = extra > 0 and eps in (0.1, -1.0, 0.0)
        assert back == [w.prefix for w in words if ties and at_minus_a(w.prefix)]


@pytest.mark.parametrize("eps", [0.1, -1.0, 0.0])
def test_batch_real_parameter_tails_keep_moving(eps):
    # the tails' imaginary parts decay toward a on the real axis and
    # never stop moving within the depth
    words = [w for w in seeded_words(eps, 30, 7, 8) if not at_minus_a(w.prefix)]
    depths = [len(w.prefix) + 240 for w in words]
    assert batch_rows(words, depths) == []
    moving = [orb for orb in map(realize, words, depths) if orb.points[-1] != orb.points[-2]]
    assert len(moving) >= len(words) // 2
    assert all(0.0 < abs(orb.points[-1].imag) < 1e-50 for orb in moving)


@pytest.mark.parametrize("eps", COMPLEX_EPS)
def test_batch_complex_tails_become_stationary(eps):
    words = seeded_words(eps, 30, 7, 8)
    depths = [len(w.prefix) + 240 for w in words]
    assert batch_rows(words, depths) == []
    assert all(orb.points[-1] == orb.points[-2] for orb in realize_batch(words, depths))


def test_batch_row_through_subnormal_imaginary_parts():
    # at eps = -1 the tail's imaginary part falls below DBL_MIN near
    # depth 606 and then to zero; there np.sqrt of a complex array and
    # cmath.sqrt part ways, and the batch takes cmath's formula
    words = [family_word(-1.0, p) for p in ("--", "-+-", "---+")]
    assert batch_rows(words, [800] * 3) == []
    closed = realize_batch(words, [800] * 3)
    for orb in closed:
        assert any(0.0 < abs(p.imag) < sys.float_info.min for p in orb.points)
    xs = [p - orb.epsilon for orb in closed for p in orb.points]
    assert any(bits([complex(np.sqrt(x))]) != bits([cmath.sqrt(x)]) for x in xs)


def test_batch_hands_back_collisions_and_critical_hits():
    # eps = 0 orbits stay on the unit circle, so the collision (eps = -2,
    # "-" lands on 0) and the critical hit (eps = -2 + 1e-18i, "-" passes
    # 8.2e-10 from 0) are rows of other parameters in the same batch
    words = seeded_words(0.0, 20, 3, 6)
    collision = family_word(-2.0, "-", sigma=0.5)
    critical = family_word(complex(-2.0, 1e-18), "-", sigma=0.5)
    batch = words + [collision, critical]
    depths = [len(w.prefix) + 60 for w in batch]
    back = batch_rows(batch, depths)
    assert back == [w.prefix for w in words if at_minus_a(w.prefix)] + ["-", "-"]
    rows = realize_batch(batch, depths)
    assert rows[-2:] == [collision, critical]
    with pytest.raises(DegenerateBranchError, match="inverse branches collide at depth 2"):
        realize(collision, depths[-2])
    assert realize(critical, depths[-1]).near_critical == (2,)


@pytest.mark.parametrize("epsilon", [complex(math.nan, 0.0), complex(0.1, math.inf), complex(-math.inf, 0.0)])
def test_word_with_non_finite_epsilon_is_refused(epsilon):
    """Such a word would realize to NaN points that pass realize's
    residual and collision checks (NaN compares false), so neither realize
    nor realize_batch is handed one: the word is not built."""
    with pytest.raises(ConstructionError, match="^epsilon must be finite$"):
        dataclasses.replace(family_word(0.1, "-+"), epsilon=epsilon)


def test_batch_hands_back_the_rows_realize_rejects_for_their_residual(monkeypatch):
    # at this tolerance the residual check fails on some steps of some
    # words, which realize rejects and the batch must not close
    monkeypatch.setattr(orbits, "RESIDUAL_TOL", 3e-16)
    words = seeded_words(-1.0, 40, 5, 8)
    depths = [len(w.prefix) + 40 for w in words]
    back = set(batch_rows(words, depths))
    rejected = set()
    for word, depth in zip(words, depths):
        try:
            realize(word, depth)
        except ConstructionError:
            rejected.add(word.prefix)
    assert rejected and rejected <= back and len(back) < len(words)


def draw_one_check_one(epsilon, n, seed, max_len):
    """sample_words as one loop: draw a candidate, check its membership,
    admit it."""
    rng = np.random.default_rng(seed)
    out, seen, attempts = [], set(), 0
    while len(out) < n and attempts < 80 * n:
        attempts += 1
        length = int(rng.integers(1, max_len + 1))
        bits_ = rng.integers(0, 2, size=length)
        prefix = "-" + "".join("+-"[int(b)] for b in bits_[1:])
        if prefix in seen:
            continue
        seen.add(prefix)
        mem = quadratic.is_in_Pi_a(family_word(epsilon, prefix), len(prefix) + MEMBERSHIP_DEPTH)
        if mem.member:
            out.append(mem.orbit)
    if len(out) < n:
        raise ConfigError(f"only {len(out)} of {n} admissible words found within the attempt budget")
    return out


def sampled(draw, *args):
    try:
        return [exact(orb) for orb in draw(*args)]
    except ConfigError as err:
        return str(err)


@pytest.mark.parametrize(
    "eps, n, seed, max_len",
    [
        (0.1, 70, 11, 12),
        (-1.0, 70, 5, 20),
        (complex(-1.0, 0.02), 40, 7, 8),
        (complex(0.1, 0.02), 70, 3, 12),
        (-3.0, 10, 3, 6),
    ],
)
def test_sample_words_admits_as_the_plain_loop(eps, n, seed, max_len):
    assert sampled(sample_words, eps, n, seed, max_len) == sampled(draw_one_check_one, eps, n, seed, max_len)


def test_sample_words_runs_out_of_attempts_as_the_plain_loop(monkeypatch):
    # no short word fails membership at the usual parameters, so the
    # budget is made to bind by admitting only the words of '-' symbols:
    # 3 of the 7 normalized prefixes of length <= 3
    membership = quadratic.is_in_Pi_a

    def only_minus(word, depth):
        mem = membership(word, depth)
        return mem if "+" not in word.prefix else dataclasses.replace(mem, member=False)

    monkeypatch.setattr(quadratic, "is_in_Pi_a", only_minus)
    for n in (7, 40):
        expected = sampled(draw_one_check_one, 0.1, n, 5, 3 if n == 7 else 6)
        assert expected.startswith("only ")
        assert sampled(sample_words, 0.1, n, 5, 3 if n == 7 else 6) == expected
