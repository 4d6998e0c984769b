"""The quantitative acceptance battery.

Thirteen numbered checks, each a pure function of a seed returning a
CriterionResult whose `details` dict is deterministic (no wall times,
no machine state) so a suite run serializes to byte-identical output
on reruns.  The checks pin the headline quantitative behavior of the
package: fixed-point identities, the branch-exceptional boundary, the
degenerate parameter, the sign law, Julia containment, the certified
sigma/delta floor, semigroup convergence, cocycle algebra, field
harmonicity, height-set density, the collinearity dichotomy, the
complex-perturbation regime, and determinism itself.

`run_battery` runs criteria 1-12 as eleven tasks in a pool of forked
worker processes, one per usable CPU (at most eleven): each criterion is
a task of its own except criterion 6, which runs after criterion 4 in
one task and checks its bound on criterion 4's words and values.
Criterion 13 then runs in the calling process on the collected results.
The results come back in registry order, with the same details as a
run in one process, so the suite's output is byte-identical; each
result's `elapsed` is measured in the worker that ran it.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from .cocycle import (
    SERIES_DEPTH,
    CocycleValue,
    basic_cocycle,
    cocycle_field,
    field_mean_value,
    progression_density_check,
    series_terms,
    values_vs_fixed,
)
from .errors import SuiteFailureError
from .julia import inverse_iteration_sample
from .orbits import is_in_Pi_a, shift
from .periodic import (
    base_point,
    build_linearizer,
    collinearity_in_linearizer,
    fixed_point_a,
    functional_equation_residual,
)
from .quadratic import (
    DEFAULT_MAX_PREFIX,
    ExcursionStats,
    bound_checks,
    branch_exceptional,
    default_sigma_delta,
    derivative_extremality_check,
    disk_containment_check,
    excursion_stats,
    family_word,
    limit_decomposition_check,
    lower_bound,
    nested_decomposition_check,
    sample_words,
    sampled_heights,
    value_sums,
)
from .reports import to_json_text

TERM_ZERO_FLOOR = 1e-14


@dataclass(frozen=True)
class CriterionResult:
    index: int
    name: str
    ok: bool
    details: dict
    elapsed: float
    artifacts: dict  # raw tables/points for plot emission and values later criteria reuse; not serialized


def _result(index, name, ok, details, t0, artifacts=None) -> CriterionResult:
    return CriterionResult(index, name, bool(ok), details, time.perf_counter() - t0, artifacts or {})


def criterion_1(seed: int) -> CriterionResult:
    """Fixed-point identity and repelling classification."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(seed)
    res = 0.0
    for _ in range(1000):
        eps = complex(rng.uniform(-3.0, 0.2), rng.uniform(-1.0, 1.0))
        a = fixed_point_a(eps)
        res = max(res, abs(a * a + eps - a))
    mult_err = 0.0
    tags = []
    for e in (-3.0, -1.0, -0.5, 0.1, 0.2):
        a = fixed_point_a(e)
        p = base_point(e)
        tags.append(p.classification)
        mult_err = max(mult_err, abs(p.multiplier - 2.0 * a))
    ok = res < 1e-12 and all(t == "repelling" for t in tags) and mult_err < 1e-9
    return _result(
        1,
        "fixed-point identity and classification",
        ok,
        {
            "n_parameters": 1000,
            "max_fixed_point_residual": res,
            "classifications": tags,
            "max_multiplier_error": mult_err,
        },
        t0,
    )


def criterion_2(seed: int) -> CriterionResult:
    """Branch-exceptional boundary and critical-hit rejection."""
    t0 = time.perf_counter()
    grid = [-3.8 + 0.004 * k for k in range(1000)]
    hits = [e for e in grid if branch_exceptional(e)]
    grid_ok = len(hits) == 1 and abs(hits[0] + 2.0) < 1e-9
    candidates = ["-", "-+", "--", "+-"]
    reasons = []
    for p in candidates:
        m = is_in_Pi_a(family_word(-2.0, p, sigma=0.5), 3)
        reasons.append(m.reason if not m.member else "accepted")
    cand_ok = all(r == "critical-hit" for r in reasons)
    return _result(
        2,
        "branch-exceptional boundary",
        grid_ok and cand_ok,
        {
            "grid_size": 1000,
            "exceptional_parameters": [complex(h) for h in hits],
            "candidate_prefixes": candidates,
            "rejection_reasons": reasons,
            "rejection_depth": 3,
        },
        t0,
    )


def criterion_3(seed: int) -> CriterionResult:
    """Degenerate parameter: vanishing cocycle, ln-2 ladder."""
    t0 = time.perf_counter()
    betas, rep = sampled_heights(0.0, 200, seed, DEFAULT_MAX_PREFIX, 1e-12, 40)
    max_beta = max(abs(b.value) for b in betas)
    gap_err = abs(rep.max_gap - math.log(2.0))
    ok = max_beta < 1e-10 and gap_err < 1e-9
    return _result(
        3,
        "degenerate parameter ladder",
        ok,
        {
            "n_words": 200,
            "max_abs_beta": max_beta,
            "height_count": rep.count,
            "max_gap": rep.max_gap,
            "gap_error_vs_ln2": gap_err,
        },
        t0,
        {"heights": [v for v, _ in rep.values], "window": rep.window},
    )


def _sign_law_sample(
    eps: float, seed: int
) -> tuple[list[CocycleValue], list[ExcursionStats], set[bool]]:
    """The 200 seeded words of criteria 4 and 6 at eps, each realized
    once: their values, their excursions from their own disk (radius
    find_sigma(eps), which lower_bound checks against sd.sigma), and the
    signs (term > 0) of their series terms above TERM_ZERO_FLOOR."""
    orbs = [w.at(len(w.prefix) + SERIES_DEPTH) for w in sample_words(eps, 200, seed)]
    betas = values_vs_fixed(orbs, 1e-12)
    signs = {
        t > 0
        for orb, beta in zip(orbs, betas)
        for t in series_terms(orb, beta.depth_used)
        if not abs(t) <= TERM_ZERO_FLOOR
    }
    return betas, [excursion_stats(orb, orb.sigma) for orb in orbs], signs


def criterion_4(seed: int) -> CriterionResult:
    """Sign law with term-level agreement."""
    t0 = time.perf_counter()
    details = {}
    samples = {}
    ok = True
    for eps, want_pos in ((0.1, True), (-1.0, False)):
        betas, excursions, term_signs = _sign_law_sample(eps, seed)
        samples[eps] = betas, excursions
        signs_ok = all((b.value > 0) == want_pos and b.value != 0 for b in betas)
        terms_ok = term_signs <= {want_pos}
        ok = ok and signs_ok and terms_ok
        key = "pos" if want_pos else "neg"
        details[f"{key}_epsilon"] = eps
        details[f"{key}_n_words"] = len(betas)
        details[f"{key}_sign_ok"] = signs_ok
        details[f"{key}_terms_ok"] = terms_ok
        details[f"{key}_extreme_beta"] = (
            min(b.value for b in betas) if want_pos else max(b.value for b in betas)
        )
    details["term_zero_floor"] = TERM_ZERO_FLOOR
    return _result(4, "cocycle sign law", ok, details, t0, {"samples": samples})


def criterion_5(seed: int) -> CriterionResult:
    """Julia containment against the critical circle."""
    t0 = time.perf_counter()
    details = {}
    ok = True
    points_neg = None
    for eps in (-1.0, 0.1):
        sample = inverse_iteration_sample(eps, 10000, 40, seed)
        rep = disk_containment_check(eps, sample, 1e-6)
        ext = derivative_extremality_check(eps, sample, 1e-6)
        ok = ok and not rep.violations and not rep.proximity_failures and not ext.violations
        key = "neg" if eps < 0 else "pos"
        details[f"{key}_epsilon"] = eps
        details[f"{key}_n_points"] = rep.n
        details[f"{key}_violations"] = len(rep.violations)
        details[f"{key}_near_boundary"] = len(rep.near_boundary)
        details[f"{key}_proximity_failures"] = len(rep.proximity_failures)
        details[f"{key}_max_excess"] = rep.max_excess
        details[f"{key}_derivative_violations"] = len(ext.violations)
        if eps < 0:
            points_neg = (list(sample.points), rep.radius)
    return _result(
        5,
        "Julia containment",
        ok,
        details,
        t0,
        {"points": points_neg[0], "radius": points_neg[1]},
    )


def criterion_6(seed: int, sign_law: CriterionResult | None = None) -> CriterionResult:
    """Certified sigma/delta and the excursion lower bound.

    The words, values and excursions are criterion 4's (sign_law) when
    given: the same seeded sample, with excursions counted against the
    words' own disk of radius find_sigma(eps), which lower_bound checks
    is sd.sigma.  B is built from the first 15 of them, the words
    sample_words(eps, 15, seed) draws.
    """
    t0 = time.perf_counter()
    details = {}
    ok = True
    for eps in (0.1, -1.0):
        sd = default_sigma_delta(eps, seed)
        if sign_law is None:
            betas, excursions, _ = _sign_law_sample(eps, seed)
        else:
            betas, excursions = sign_law.artifacts["samples"][eps]
        checks = [lower_bound(b, st, sd) for b, st in zip(betas, excursions)]
        bound_ok = all(c.ok for c in checks)
        brep = value_sums(betas[:15], 2)
        min_B = min(abs(v) for v, _ in brep.values)
        ok = ok and sd.delta > 0 and bound_ok and min_B > sd.delta
        key = "pos" if eps > 0 else "neg"
        details[f"{key}_epsilon"] = eps
        details[f"{key}_sigma"] = sd.sigma
        details[f"{key}_delta"] = sd.delta
        details[f"{key}_bound_ok"] = bound_ok
        details[f"{key}_min_margin"] = min(c.margin for c in checks)
        details[f"{key}_min_abs_B"] = min_B
        details[f"{key}_B_count"] = brep.count
    return _result(6, "sigma/delta excursion bound", ok, details, t0)


def _paired_words(eps: float, seed: int, n_pairs: int, junction_floor: int):
    """Word pairs (y, c) with y entering the certified disk early enough
    to concatenate at the smallest junction."""
    words = sample_words(eps, 3 * n_pairs, seed, max_len=6)
    ys = []
    cs = []
    for w in words:
        orb = w.at(len(w.prefix) + 30)
        if len(ys) < n_pairs and orb.entry_index is not None and orb.entry_index <= junction_floor:
            ys.append(w)
        else:
            cs.append(w)
    if len(ys) < n_pairs or len(cs) < n_pairs:
        raise AssertionError("word sample too small for the requested pair count")
    return list(zip(ys, cs[:n_pairs]))


def criterion_7(seed: int) -> CriterionResult:
    """Semigroup convergence: monotone defect decay and the nested sum."""
    t0 = time.perf_counter()
    junctions = [10, 20, 30, 40, 50]
    pairs = _paired_words(0.1, seed, 20, junction_floor=10)
    all_monotone = True
    all_final = True
    nested_ok = True
    tables = []
    worst_final = 0.0
    worst_nested = 0.0
    for y, c in pairs:
        ld = limit_decomposition_check(y, c, junctions, 1e-12)
        mono = all(b < a for a, b in zip(ld.defects, ld.defects[1:]))
        all_monotone = all_monotone and mono
        all_final = all_final and ld.defects[-1] < 1e-8
        worst_final = max(worst_final, ld.defects[-1])
        nd = nested_decomposition_check(ld, 35)
        nested_ok = nested_ok and nd.defects[0] < 1e-6
        worst_nested = max(worst_nested, nd.defects[0])
        tables.append((y.prefix, c.prefix, ld))
    ok = all_monotone and all_final and nested_ok
    return _result(
        7,
        "semigroup convergence",
        ok,
        {
            "n_pairs": len(pairs),
            "junctions": junctions,
            "all_monotone": all_monotone,
            "worst_final_defect": worst_final,
            "nested_junction": 35,
            "worst_nested_defect": worst_nested,
        },
        t0,
        {"tables": tables},
    )


def criterion_8(seed: int) -> CriterionResult:
    """Cocycle algebra: antisymmetry, identity, shift invariance."""
    t0 = time.perf_counter()
    tol = 1e-12
    words = sample_words(0.1, 30, seed, max_len=8)
    # each series starts SERIES_DEPTH past the longer prefix, one symbol
    # more for shifted words: realize every word and shifted word once to
    # the deepest start, for basic_cocycle to cut back
    deepest = max(len(w.prefix) for w in words) + 1 + SERIES_DEPTH
    orbs = [w.at(deepest) for w in words]
    shifted = [shift(w, 1).at(deepest) for w in words]
    values = {}  # (shifted?, i, j) -> value: the random draws repeat pairs

    def beta(i, j, shift_both=False):
        key = (shift_both, i, j)
        if key not in values:
            xs = shifted if shift_both else orbs
            values[key] = basic_cocycle(xs[i], xs[j], tol).value
        return values[key]

    rng = np.random.default_rng(seed + 1)
    worst_anti = worst_ident = worst_shift = 0.0
    for _ in range(100):
        i, j, k = (int(v) for v in rng.integers(0, len(words), size=3))
        bxy = beta(i, j)
        worst_anti = max(worst_anti, abs(bxy + beta(j, i)))
        worst_ident = max(worst_ident, abs(bxy + beta(j, k) - beta(i, k)))
        worst_shift = max(worst_shift, abs(beta(i, j, shift_both=True) - bxy))
    ok = worst_anti <= 3 * tol and worst_ident <= 3 * tol and worst_shift <= 3 * tol
    return _result(
        8,
        "cocycle algebra",
        ok,
        {
            "n_checks": 100,
            "tolerance": tol,
            "worst_antisymmetry": worst_anti,
            "worst_identity": worst_ident,
            "worst_shift_invariance": worst_shift,
        },
        t0,
    )


def criterion_9(seed: int) -> CriterionResult:
    """Field harmonicity (mean value) and nonconstance (variance)."""
    t0 = time.perf_counter()
    eps = 0.1
    w = family_word(eps, "-")
    c = w.at(len(w.prefix) + SERIES_DEPTH)  # realized once for all 67 field values
    _, residual = field_mean_value(c, 1e-12)
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < 50:
        u, v = rng.uniform(-1, 1), rng.uniform(-1, 1)
        if u * u + v * v < 0.25:
            pts.append(c.base.location + c.sigma * complex(u, v))
    vals = [cocycle_field(c, p, 1e-12) for p in pts]
    mean = sum(vals) / len(vals)
    variance = sum((v - mean) ** 2 for v in vals) / len(vals)
    ok = residual < 1e-6 and variance > 1e-10
    return _result(
        9,
        "field harmonicity and nonconstance",
        ok,
        {
            "epsilon": eps,
            "ring_points": 16,
            "mean_value_residual": residual,
            "sample_points": 50,
            "variance": variance,
        },
        t0,
    )


def criterion_10(seed: int) -> CriterionResult:
    """Height-set density and the two-value progression."""
    t0 = time.perf_counter()
    eps = -1.0
    values, rep = sampled_heights(eps, 500, seed, 12, 1e-12, 40)
    betas = sorted(set(round(b.value, 14) for b in values))
    b1, b2 = min(zip(betas, betas[1:]), key=lambda p: p[1] - p[0])
    lam = abs(2.0 * fixed_point_a(eps))
    prog = progression_density_check([b1, b2], math.log(lam), (0.0, 1.0), 0.05)
    ok = rep.max_gap < 0.1 and prog.ok
    return _result(
        10,
        "height-set density",
        ok,
        {
            "epsilon": eps,
            "n_words": 500,
            "height_count": rep.count,
            "max_gap": rep.max_gap,
            "closest_betas": [b1, b2],
            "progression_ok": prog.ok,
            "progression_max_gap": prog.max_gap,
        },
        t0,
        {"heights": [v for v, _ in rep.values], "window": rep.window},
    )


def criterion_11(seed: int) -> CriterionResult:
    """Collinearity dichotomy and linearizer residual."""
    t0 = time.perf_counter()
    details = {}
    residual = 0.0
    verdicts = {}
    for eps in (-3.0, -1.0):
        lin = build_linearizer(eps, base_point(eps))
        rep = collinearity_in_linearizer(eps, lin, depth=8)
        verdicts[eps] = rep
        residual = max(residual, functional_equation_residual(lin, 8))
        key = "line" if eps == -3.0 else "full"
        details[f"{key}_epsilon"] = eps
        details[f"{key}_verdict"] = rep.verdict
        details[f"{key}_max_deviation"] = rep.max_deviation
        details[f"{key}_spread"] = rep.spread
        details[f"{key}_n_points"] = rep.n_points
    details["linearizer_residual"] = residual
    r3, r1 = verdicts[-3.0], verdicts[-1.0]
    ok = (
        r3.verdict == "line"
        and r3.max_deviation < 1e-8 * r3.spread
        and r1.verdict == "full"
        and r1.max_deviation > 0.01
        and residual < 1e-9
    )
    return _result(11, "collinearity dichotomy", ok, details, t0)


def criterion_12(seed: int) -> CriterionResult:
    """Complex perturbation: sign follows Re epsilon, half-delta floor."""
    t0 = time.perf_counter()
    details = {}
    ok = True
    for eps_c in (0.1 + 0.02j, -1.0 + 0.02j):
        sd, checks = bound_checks(eps_c, 200, seed, 8, 1e-12)
        signs_ok = all((bc.beta.value > 0) == (eps_c.real > 0) for bc in checks)
        bounds_ok = all(bc.ok for bc in checks)
        min_margin = min(bc.margin for bc in checks)
        ok = ok and signs_ok and bounds_ok
        key = "pos" if eps_c.real > 0 else "neg"
        details[f"{key}_epsilon"] = eps_c
        details[f"{key}_delta_used"] = 0.5 * sd.delta
        details[f"{key}_n_words"] = len(checks)
        details[f"{key}_signs_ok"] = signs_ok
        details[f"{key}_bounds_ok"] = bounds_ok
        details[f"{key}_min_margin"] = min_margin
    return _result(12, "complex perturbation regime", ok, details, t0)


def _reproduction_probes(seed: int) -> dict:
    """Criterion 13's reruns, which read no earlier result: criterion 1
    and a 500-point Julia sample, each run twice under the same seed."""
    a = criterion_1(seed).details
    b = criterion_1(seed).details
    sample1 = inverse_iteration_sample(-1.0, 500, 40, seed)
    sample2 = inverse_iteration_sample(-1.0, 500, 40, seed)
    return {
        "criterion_1_reproduced": to_json_text(a) == to_json_text(b),
        "sampling_reproduced": sample1.points == sample2.points,
    }


def criterion_13(
    seed: int, earlier: list[CriterionResult] | None = None, probes: dict | None = None
) -> CriterionResult:
    """Determinism probe: the earlier criteria's details survive a
    serialize -> parse -> serialize round trip (floats exactly, complex
    as [re, im]), and a randomized criterion reproduces its details
    under the same seed.  probes holds the reruns' verdicts when they
    have already run (run_battery runs them in its pool); otherwise they
    run here.  The byte-identity of two whole suite runs is checked by
    the acceptance test through the command line."""
    t0 = time.perf_counter()
    payload = [{"index": r.index, "ok": r.ok, "details": r.details} for r in earlier or []]
    parsed = json.loads(to_json_text(payload))
    text = to_json_text(parsed)
    plain = json.loads(json.dumps(payload, default=lambda z: [z.real, z.imag]))
    stable = parsed == plain and to_json_text(json.loads(text)) == text
    if probes is None:
        probes = _reproduction_probes(seed)
    ok = stable and probes["criterion_1_reproduced"] and probes["sampling_reproduced"]
    return _result(13, "determinism", ok, {"serialization_stable": stable, **probes}, t0)


CRITERIA = [
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
    criterion_12,
]

RUNTIME_CAPS = {
    1: 1.0,
    2: 5.0,
    3: 10.0,
    4: 30.0,
    5: 30.0,
    6: 60.0,
    7: 60.0,
    8: 30.0,
    9: 30.0,
    10: 120.0,
    11: 30.0,
    12: 60.0,
}


# criterion 6 checks its bound on criterion 4's words and values, so the
# two run in one task, in that order
TASKS = [(1,), (2,), (3,), (4, 6), (5,), (7,), (8,), (9,), (10,), (11,), (12,)]


def _run_task(task: tuple[int, ...], seed: int) -> list[CriterionResult]:
    """The task's criteria, run in order; each is looked up by its
    position in CRITERIA, so it runs as wrapped when the entries are."""
    results = []
    for index in task:
        fn = CRITERIA[index - 1]
        results.append(fn(seed, results[0]) if index == 6 else fn(seed))
    return results


def run_battery(seed: int) -> list[CriterionResult]:
    """All thirteen checks, in registry order.

    The TASKS, and last criterion 13's reruns, run in a pool of forked
    processes, one per usable CPU (at most one per task), picked up in
    that order as workers come free; criterion 13's round trip of the
    collected results runs here.  A criterion's exception is raised
    here as it would be in one process, once the tasks already running
    have ended and the rest are cancelled.  A worker that dies ends the
    battery in SuiteFailureError, naming the criteria left unfinished.
    No worker outlives the call.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    workers = min(len(os.sched_getaffinity(0)), len(TASKS))
    # fork, not spawn: a spawned worker would import the package afresh,
    # about as long as the whole battery takes; this process runs no
    # thread of its own (numpy's BLAS pool handles fork itself)
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(_run_task, task, seed) for task in TASKS]
        futures.append(pool.submit(_reproduction_probes, seed))
        try:
            done = [future.result() for future in futures]
        except BrokenProcessPool:
            lost = [
                index
                for task, future in zip(TASKS + [(13,)], futures)
                if isinstance(future.exception(), BrokenProcessPool)
                for index in task
            ]
            raise SuiteFailureError(f"a battery worker ended abruptly; criteria left unfinished: {lost}") from None
    finally:
        pool.shutdown(cancel_futures=True)
    by_index = {i: r for task, rows in zip(TASKS, done) for i, r in zip(task, rows)}
    results = [by_index[i] for i in range(1, len(CRITERIA) + 1)]
    results.append(criterion_13(seed, results, done[-1]))
    return results
