"""The three benchmark workloads: inputs from a seed, the timed body, and
the correctness check that turns every result into a passed or failed op.

suite       the command-line acceptance battery (13 criteria); touches every
            module, and its criteria share parameters and words.
word-sweep  distinct certified cocycle values; orbits and cocycle do the work
            and no value repeats.
param-scan  per-parameter constructions (sigma/delta, periodic points,
            Koenigs linearizer); periodic, quadratic and julia do the work.

The timed body calls the package through module attributes at call time, so
a tracer that patches those attributes sees every call.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from horolab import cli, cocycle, maps, periodic, quadratic
from horolab.errors import HorolabError

TOL = 1e-12


def attempt(fn, *args):
    """(result, None) or (None, exception) for one operation."""
    try:
        return fn(*args), None
    except Exception as exc:  # judged by the check: HorolabError fails the op, anything else the run
        return None, exc


def _error_failure(label, err, failures) -> bool:
    """Record a raised operation; False when the error is not a HorolabError."""
    failures.append(f"{label}: {type(err).__name__}: {err}")
    return isinstance(err, HorolabError)


def _finite(z) -> bool:
    z = complex(z)
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass
class Verdict:
    attempted: int
    failures: list[str]
    consistent: bool  # False when something outside the ops went wrong
    digest: str  # identical for every repetition at one seed

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": len(self.failures),
            "failures": self.failures[:20],
            "consistent": self.consistent,
            "digest": self.digest,
        }


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# suite: `horolab suite --epsilon -1 --seed S`, one op per criterion

SUITE_CRITERIA = 13
SUITE_ARTIFACTS = (
    "report.json",
    "julia_points.csv",
    "julia_scatter.svg",
    "heights_degenerate.csv",
    "gap_histogram_degenerate.svg",
    "heights_dense.csv",
    "gap_histogram_dense.svg",
    "semigroup_defects.csv",
    "defect_decay.svg",
)


def suite_inputs(seed: int) -> dict:
    return {"argv": ["suite", "--epsilon", "-1", "--seed", str(seed)]}


def suite_run(inputs: dict, out_dir: Path) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(inputs["argv"] + ["--out", str(out_dir)])
    return {"code": code, "stdout": stdout.getvalue(), "out_dir": out_dir}


def suite_check(inputs: dict, raw: dict) -> Verdict:
    out_dir = raw["out_dir"]
    report_path = out_dir / "report.json"
    if not report_path.is_file():
        return Verdict(SUITE_CRITERIA, [f"no report.json (exit {raw['code']})"], False, "")
    text = report_path.read_text(encoding="utf-8")
    report = json.loads(text)
    criteria = report.get("criteria", [])
    failures = [f"criterion {c['index']}: ok=false" for c in criteria if not c["ok"]]
    consistent = [c["index"] for c in criteria] == list(range(1, SUITE_CRITERIA + 1))
    consistent = consistent and report["all_ok"] == (not failures) and (raw["code"] == 0) == (not failures)
    if raw["code"] == 0:
        consistent = consistent and json.loads(raw["stdout"]) == report
        consistent = consistent and all((out_dir / name).is_file() for name in SUITE_ARTIFACTS)
    return Verdict(SUITE_CRITERIA, failures, consistent, _digest(text))


# ---------------------------------------------------------------------------
# word-sweep: certified values of distinct words, against a brute force

SWEEP_EPSILONS = (-1.0, 0.1, complex(-1.0, 0.02), complex(0.1, 0.02))
SWEEP_MAX_LENS = (12, 20)
SWEEP_WORDS = 70  # words drawn per (epsilon, max_len)
SWEEP_PAIRS = 60  # two-orbit values per epsilon
REF_DEPTH = 2000
REF_SLACK = 1e-12  # agreement slack beyond the reported tail bound, as in the tests


def sweep_inputs(seed: int) -> dict:
    rng = np.random.default_rng(seed)
    draws = [int(s) for s in rng.integers(0, 2**31 - 1, size=len(SWEEP_EPSILONS) * len(SWEEP_MAX_LENS) + 1)]
    return {"sample_seeds": draws[:-1], "pair_seed": draws[-1]}


def sweep_run(inputs: dict, out_dir: Path) -> list:
    """Ops as (kind, epsilon, x_prefix, y_prefix, value, error)."""
    ops = []
    seeds = iter(inputs["sample_seeds"])
    pair_rng = np.random.default_rng(inputs["pair_seed"])
    for eps in SWEEP_EPSILONS:
        words, seen = [], set()
        for max_len in SWEEP_MAX_LENS:
            sample, err = attempt(quadratic.sample_words, eps, SWEEP_WORDS, next(seeds), max_len)
            if err is not None:
                ops.append(("sample_words", eps, None, None, None, err))
                continue
            for w in sample:
                if w.prefix not in seen:
                    seen.add(w.prefix)
                    words.append(w)
        for w in words:
            value, err = attempt(cocycle.cocycle_vs_fixed, w, TOL)
            ops.append(("fixed", eps, "", w.prefix, value, err))
        pairs: list[tuple[int, int]] = []
        want = min(SWEEP_PAIRS, len(words) * (len(words) - 1) // 2)
        while len(pairs) < want:
            i, j = sorted(int(k) for k in pair_rng.integers(0, len(words), size=2))
            if i != j and (i, j) not in pairs:
                pairs.append((i, j))
        for i, j in pairs:
            value, err = attempt(cocycle.basic_cocycle, words[i], words[j], TOL)
            ops.append(("pair", eps, words[i].prefix, words[j].prefix, value, err))
    return ops


def brute_betas(eps: complex, prefixes: list[str], depth: int = REF_DEPTH) -> dict:
    """Series against the fixed orbit, summed raw to the given depth.

    Shares no code with the package: the closed-form square-root
    recursion, the prefix applied symbol by symbol, then the preimage
    nearest to a (ties toward larger imaginary, then real part), as in
    the brute-force evaluator of the cocycle tests, for all words at once.
    """
    eps = complex(eps)
    a = (1 + cmath.sqrt(1 - 4 * eps)) / 2
    width = max((len(p) for p in prefixes), default=0)
    forced = np.zeros((len(prefixes), width), dtype=np.int8)
    for i, p in enumerate(prefixes):
        forced[i, : len(p)] = [1 if ch == "+" else -1 for ch in p]
    z = np.full(len(prefixes), a, dtype=complex)
    total = np.zeros(len(prefixes))
    base = np.log(np.abs(2 * a))
    for j in range(depth):
        s = np.sqrt(z - eps)
        dp, dm = np.abs(s - a), np.abs(-s - a)
        tie_plus = (s.imag > -s.imag) | ((s.imag == -s.imag) & (s.real >= -s.real))
        nearest = np.where((dp < dm) | ((dp == dm) & tie_plus), s, -s)
        if j < width:
            z = np.where(forced[:, j] == 1, s, np.where(forced[:, j] == -1, -s, nearest))
        else:
            z = nearest
        total += np.log(np.abs(2 * z)) - base
    return dict(zip(prefixes, total.tolist()))


def sweep_check(inputs: dict, ops: list) -> Verdict:
    refs = {}
    for eps in SWEEP_EPSILONS:
        prefixes = sorted({p for kind, e, x, y, _, _ in ops if e == eps and kind != "sample_words" for p in (x, y)})
        refs[eps] = brute_betas(eps, prefixes)
    failures: list[str] = []
    consistent = True
    summary = []
    for kind, eps, x, y, value, err in ops:
        label = f"{kind} eps={eps} x={x!r} y={y!r}"
        if err is not None:
            consistent = _error_failure(label, err, failures) and consistent
            summary.append((label, type(err).__name__))
            continue
        summary.append((label, value.value, value.tail_bound, value.depth_used))
        if not (math.isfinite(value.value) and math.isfinite(value.tail_bound)):
            failures.append(f"{label}: non-finite value {value}")
        elif value.tail_bound > TOL:
            failures.append(f"{label}: tail bound {value.tail_bound:.3e} > tol")
        else:
            ref = refs[eps][y] - refs[eps][x]
            if abs(value.value - ref) > value.tail_bound + REF_SLACK:
                failures.append(f"{label}: {value.value!r} vs brute force {ref!r}")
    return Verdict(len(ops), failures, consistent, _digest(summary))


# ---------------------------------------------------------------------------
# param-scan: per-parameter constructions over distinct parameters

SCAN_PERIODS = range(1, 9)
LINEARIZER_RESIDUAL = 1e-9  # as in acceptance criterion 11


# epsilon = -3 (Julia set a Cantor set on the real line, so the
# collinearity verdict is "line"), one real parameter and one complex one,
# the centres of the real range [-1.9, -0.3] and the complex box
# [-1.2, 0.15] x [0.02, 0.3] where the disks certify.  The list is fixed:
# the cost of these constructions varies by 10-30% between parameters,
# which seeded parameters would add to the spread between runs.
SCAN_PARAMS = (complex(-3.0), complex(-1.1), complex(-0.525, 0.16))


def scan_inputs(seed: int) -> dict:
    """The fixed parameters, with seeded sigma/delta sampling seeds."""
    rng = np.random.default_rng(seed)
    sd_seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=len(SCAN_PARAMS))]
    return {"params": list(SCAN_PARAMS), "sd_seeds": sd_seeds}


def _linearize(f, eps):
    point = periodic.make_periodic_point(f, quadratic.fixed_point_a(eps), 1)
    lin = periodic.build_linearizer(f, point)
    return lin, periodic.collinearity_in_linearizer(f, lin, depth=8)


def scan_run(inputs: dict, out_dir: Path) -> list:
    """Ops as (kind, epsilon, period, result, error)."""
    ops = []
    for eps, sd_seed in zip(inputs["params"], inputs["sd_seeds"]):
        sd, err = attempt(quadratic.default_sigma_delta, eps, sd_seed)
        ops.append(("sigma_delta", eps, None, sd, err))
        f = quadratic.quadratic_map(eps)
        for p in SCAN_PERIODS:
            pts, err = attempt(periodic.periodic_points, f, p)
            ops.append(("periodic_points", eps, p, pts, err))
        res, err = attempt(_linearize, f, eps)
        ops.append(("linearizer", eps, None, res, err))
    return ops


def exact_period_count(p: int) -> int:
    """Points of exact period p for a degree-2 polynomial: sum over d | p
    of mu(p/d) 2^d."""

    def mobius(n: int) -> int:
        out, k = 1, 2
        while k * k <= n:
            if n % k == 0:
                n //= k
                if n % k == 0:
                    return 0
                out = -out
            k += 1
        return -out if n > 1 else out

    return sum(mobius(p // d) * 2**d for d in range(1, p + 1) if p % d == 0)


def expected_verdict(eps: complex) -> str:
    return "line" if eps.imag == 0 and eps.real < -2 else "full"


def _linearizer_residual(f, lin) -> float:
    z0 = complex(lin.point.location)
    worst = 0.0
    for k in range(8):
        z = z0 + lin.radius * 0.5 * complex(math.cos(k), math.sin(k))
        worst = max(worst, abs(lin(maps.evaluate(f, z)) - lin.multiplier * lin(z)))
    return worst


def scan_check(inputs: dict, ops: list) -> Verdict:
    failures: list[str] = []
    consistent = True
    summary = []
    for kind, eps, period, res, err in ops:
        label = f"{kind} eps={eps}" + (f" p={period}" if period else "")
        if err is not None:
            consistent = _error_failure(label, err, failures) and consistent
            summary.append((label, type(err).__name__))
            continue
        if kind == "sigma_delta":
            summary.append((label, res.sigma, res.delta))
            if not (math.isfinite(res.sigma) and math.isfinite(res.delta) and res.sigma > 0 and res.delta > 0):
                failures.append(f"{label}: sigma={res.sigma!r} delta={res.delta!r}")
        elif kind == "periodic_points":
            summary.append((label, [(p.location, p.classification) for p in res]))
            want = exact_period_count(period)
            if any(not (_finite(p.location) and _finite(p.multiplier)) for p in res):
                failures.append(f"{label}: non-finite points")
            elif len(res) != want:
                failures.append(f"{label}: {len(res)} points, want {want}")
        else:
            lin, rep = res
            summary.append((label, lin.radius, rep.verdict, rep.n_points, rep.max_deviation))
            residual = _linearizer_residual(quadratic.quadratic_map(eps), lin)
            if rep.verdict != expected_verdict(eps):
                failures.append(f"{label}: verdict {rep.verdict}, want {expected_verdict(eps)}")
            elif not residual < LINEARIZER_RESIDUAL:
                failures.append(f"{label}: functional-equation residual {residual:.3e}")
    return Verdict(len(ops), failures, consistent, _digest(summary))


WORKLOADS = {
    "suite": (suite_inputs, suite_run, suite_check),
    "word-sweep": (sweep_inputs, sweep_run, sweep_check),
    "param-scan": (scan_inputs, scan_run, scan_check),
}
