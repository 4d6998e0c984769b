import cmath
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab.errors import (
    ConfigError,
    DegenerateBranchError,
    DivergentWordError,
    DomainError,
    HorolabError,
    PreconditionError,
)
from horolab import orbits
from horolab.orbits import (
    OrbitWord,
    concatenate,
    fixed_word,
    is_in_Pi_a,
    realize,
    shift,
)
from horolab.quadratic import family_word, fixed_point_a, sample_words


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
        assert abs(orb.points[j + 1] ** 2 + w.epsilon - orb.points[j]) < 1e-11


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
    tc = orbits.tail_contraction(orb.dists, orb.entry_index, orb.signal_end)
    assert tc is not None
    assert abs(tc - 1 / lam) < 5e-3


def test_fixed_orbit_stays_at_a():
    orb = realize(family_word(-1.0, ""), 20)
    a = fixed_point_a(-1.0)
    assert all(abs(p - a) < 1e-12 for p in orb.points)
    assert orb.entry_index == 0
    assert orb.choices == "+" * 20


# realize outputs frozen bit for bit; any change to the branch choice,
# the tie rule or the arithmetic of a step shows here
FROZEN_ORBIT_EPS_M1 = (
    (1.618033988749895+0j), (-1.618033988749895-0j), -0.7861513777574233j,
    (-1.0658376165049883+0.3687950986076611j), (-0.392930073529853-0.4692884605327133j),
    (0.8289693978454893-0.28305535870950416j), (1.356412976977315-0.10433966775379724j),
    (1.5354372100695253-0.03397718482707368j), (1.592341369280441-0.010668938671871455j),
    (1.6100783665401384-0.00331317372296533j), (1.6155740211938396-0.0010253859246006683j),
    (1.6172736693861018-0.0003170106408119205j), (1.6177990230511885-9.797590315453233e-05j),
    (1.6179613790099936-3.0277577828984498e-05j), (1.6180115509777846-9.356415845946025e-06j),
    (1.6180270550847238-2.8913038927696115e-06j), (1.6180318461283518-8.934632219038092e-07j),
    (1.6180333266433136-2.760954323967297e-07j), (1.6180337841476984-8.531819146846904e-08j),
    (1.6180339255243381-2.6364772123310373e-08j), (1.6180339692121233-8.147162737302819e-09j),
    (1.6180339827123915-2.5176117511590584e-09j), (1.6180339868842037-7.779848172432838e-10j),
    (1.6180339881733645-2.404105299795243e-10j), (1.6180339885717372-7.429093939854078e-11j),
    (1.618033988694841-2.295716280300956e-11j), (1.6180339887328823-7.094153448836948e-12j),
    (1.6180339887446378-2.1922139764013836e-12j), (1.6180339887482704-6.774313740149876e-13j),
    (1.6180339887493929-2.0933780709346726e-13j), (1.6180339887497397-6.468893995707201e-14j),
    (1.618033988749847-1.9989981794836424e-14j), (1.61803398874988-6.1772440918503255e-15j),
    (1.6180339887498902-1.9088734027839946e-15j), (1.6180339887498936-5.898743215705889e-16j),
    (1.6180339887498945-1.8228118991070465e-16j), (1.6180339887498947-5.632798543729495e-17j),
    (1.618033988749895-1.7406304759028692e-17j), (1.618033988749895-5.37884397980939e-18j),
    (1.618033988749895-1.6621541998524779e-18j), (1.618033988749895-5.136338950261084e-19j),
)

# eps = 0.1, word "-": the second point is an exact tie (+/- i*r), which
# must go to the upper half plane, so the tail's first choice is "-"
FROZEN_ORBIT_EPS_01 = (
    (0.8872983346207417+0j), (-0.8872983346207417-0j), (-0+0.9936288716722868j),
    (0.6703164378490739+0.7411640350493752j), (0.8676142326216917+0.42712763759636657j),
    (0.9072104264093255+0.23540714764870344j), (0.9077572466171888+0.1296641522422223j),
    (0.9016250283970287+0.07190580793478425j), (0.8962333884230689+0.04011555966538091j),
    (0.8926020055513956+0.022471134624327864j), (0.8903714078274757+0.012618966886615266j),
    (0.8890566758161271+0.007096829274146913j), (0.8882976037536182+0.003994623673506677j),
)


def test_realize_frozen():
    orb = realize(family_word(-1.0, "-+--"), 40)
    assert orb.points == FROZEN_ORBIT_EPS_M1
    assert orb.choices == "-+--" + "+" * 36
    assert orb.entry_index == 6


def test_realize_frozen_near_tie():
    orb = realize(family_word(0.1, "-"), 12)
    assert orb.points == FROZEN_ORBIT_EPS_01
    assert orb.choices == "--" + "+" * 10
    assert orb.entry_index is None


def outcome(make):
    """points, choices and entry index of a realization, or the type and
    message of the error it raised."""
    try:
        orb = make()
    except HorolabError as exc:
        return type(exc), str(exc)
    return orb.points, orb.choices, orb.entry_index


def assert_continues_like_scratch(word, d1, d2):
    """Continuing realize(word, d1) to d2 gives what realizing to d2 from
    scratch gives, the error included when there is one."""
    short = realize(word, d1)
    scratch = outcome(lambda: realize(word, d2))
    assert outcome(lambda: realize(short, d2)) == scratch
    assert outcome(lambda: short.at(d2)) == scratch
    return scratch


def assert_cuts_like_scratch(word, d2, d1):
    """Cutting realize(word, d2) back to d1 gives realize(word, d1)."""
    deep = realize(word, d2)
    assert outcome(lambda: deep.at(d1)) == outcome(lambda: realize(word, d1))


@pytest.mark.parametrize("eps", [0.1, -1.0, complex(-1.0, 0.02), complex(-0.525, 0.16)])
def test_resumed_realization_matches_scratch(eps):
    for w in sample_words(eps, 8, seed=5, max_len=8):
        n = len(w.prefix)
        for d1, d2 in ((n, n + 12), (n + 3, n + 80), (n + 80, n + 120), (n + 120, n + 240)):
            assert_continues_like_scratch(w.word, d1, d2)
            assert_cuts_like_scratch(w.word, d2, d1)


@pytest.mark.parametrize(
    "eps, prefix, sigma, d1, d2, error",
    [
        # criterion 2's critical hits
        (-2.0, "-", 0.5, 1, 3, DegenerateBranchError("inverse branches collide at depth 2")),
        (-2.0, "+-", 0.5, 2, 3, DegenerateBranchError("inverse branches collide at depth 3")),
        # a disk wide enough to hold -a: the monotone-tail check fails
        (-1.0, "+-", 5.0, 5, 20, DivergentWordError("in-disk tail fails to contract at depth 2")),
        # no point comes within 1e-30 of a
        (0.1, "-", 1e-30, 30, 100, DivergentWordError("tail did not settle")),
    ],
)
def test_resumed_realization_raises_like_scratch(eps, prefix, sigma, d1, d2, error):
    kind, message = assert_continues_like_scratch(family_word(eps, prefix, sigma=sigma), d1, d2)
    assert kind is type(error)
    assert message.startswith(str(error))


def test_cut_realization_raises_like_scratch():
    # eps = -1: the orbit of "-" lands on a exactly at depth 62, so a
    # 1e-30 disk confirms entry at depth 100 but not at depth 65
    w = family_word(-1.0, "-", sigma=1e-30)
    assert realize(w, 100).entry_index == 62
    with pytest.raises(DivergentWordError, match="within depth 65"):
        realize(w, 65)
    assert_cuts_like_scratch(w, 100, 65)


def test_realizing_a_realization_realizes_its_word():
    # sample_words hands on realizations; realizing one again must give a
    # realization of the word itself, usable wherever a word is
    from horolab.cocycle import cocycle_vs_fixed

    y, c = sample_words(0.1, 2, seed=7)
    r = realize(y, len(y.prefix) + 100)
    assert type(r.word) is OrbitWord
    assert r.word == y.word
    assert r.points == realize(y.word, len(y.prefix) + 100).points
    assert fixed_word(r) == fixed_word(y)
    assert shift(r, 1) == shift(y.word, 1)
    assert cocycle_vs_fixed(r, 1e-12) == cocycle_vs_fixed(y.word, 1e-12)
    assert concatenate(r, c, 10).word == concatenate(y.word, c.word, 10).word


def test_depth_shorter_than_prefix_rejected():
    with pytest.raises(PreconditionError):
        realize(family_word(0.1, "-+-"), 2)


def test_bad_symbols_rejected():
    with pytest.raises(ConfigError):
        family_word(0.1, "-x")


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


def test_membership_critical_hit_near_the_critical_point():
    # eps = -2 + 1e-18i: the "-" orbit passes 8.2e-10 from the critical
    # point at depth 2, where its branches do not yet collide
    w = family_word(complex(-2.0, 1e-18), "-", sigma=0.5)
    mem = is_in_Pi_a(w, 60)
    assert (mem.member, mem.reason) == (False, "critical-hit")
    assert mem.orbit.near_critical == (2,)


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
    assert fixed_word(w).epsilon == w.epsilon


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

    attracting = make_periodic_point(w.epsilon, 0.0, 1)
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
        assert abs(orb.points[j + 1] ** 2 + w.epsilon - orb.points[j]) < 1e-11 * scale
    assert len(orb.choices) == orb.depth
    assert orb.choices[: len(prefix)] == prefix
