"""Command-line front-end.

Every subcommand prints its report JSON to stdout and writes the same
payload (plus CSV tables and SVG plots where they make sense) into the
output directory.  COMMANDS declares each subcommand once: its handler,
the flags it reads and its config-only keys with type and default; all
take --out and --config.  A flat key=value config file is merged under
explicit flags (flags win).  An unread flag or key, a bad value or a
missing input exits 2, a computation failure exits 1; both print a
machine-readable diagnostic object.
"""

from __future__ import annotations

import argparse
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

from .cocycle import cocycle_field, cocycle_vs_fixed, field_mean_value
from .errors import ConfigError, HorolabError, PreconditionError, SuiteFailureError
from .julia import inverse_iteration_sample
from .periodic import (
    base_point,
    build_linearizer,
    collinearity_in_linearizer,
    fixed_point_a,
    functional_equation_residual,
    list_1_1_member,
    periodic_points,
)
from .quadratic import (
    bound_checks,
    build_B_epsilon,
    default_sigma_delta,
    derivative_extremality_check,
    disk_containment_check,
    excursion_stats,
    family_word,
    limit_decomposition_check,
    nested_decomposition_check,
    normalize_word,
    sampled_heights,
)
from .reports import (
    svg_defect_decay,
    svg_gap_histogram,
    svg_julia_scatter,
    to_json_text,
    write_csv,
    write_json,
)
from .suite import run_battery

MAX_DEPTH = 100_000
MAX_POINTS = 1_000_000


@dataclass
class RunConfig:
    """One run's inputs; the fields a command does not read stay at their defaults."""

    command: str
    epsilon: complex | None = None
    word: str | None = None
    depth: int | None = None
    tol: float = 1e-12
    seed: int | None = None
    out: Path = Path("horolab-out")
    keys: dict = field(default_factory=dict)  # the command's config-only keys


def _convert(key: str, raw, kind: Callable):
    """raw (a flag or config-file string) converted by kind."""
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"{key} must be of type {kind.__name__}, got {raw!r}") from None


def parse_epsilon(text: str) -> complex:
    try:
        parts = [float(t) for t in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) not in (1, 2):
        raise ConfigError(f"cannot parse epsilon {text!r}; expected RE or RE,IM")
    if not all(map(math.isfinite, parts)):
        raise ConfigError(f"epsilon must be finite, got {text!r}")
    return complex(parts[0], parts[1] if len(parts) == 2 else 0.0)


def int_list(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def parse_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
    out = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"malformed config line {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_config(args: argparse.Namespace) -> RunConfig:
    name = args.command
    spec = COMMANDS[name]
    file_conf = parse_config_file(args.config) if args.config else {}
    given = {**file_conf, **{k: v for k, v in vars(args).items() if v is not None}}
    flags = {k: _convert(k, given[k], FLAGS[k][0]) for k in spec.flags if k in given}
    keys = {k: _convert(k, given[k], kind) if k in given else dflt for k, (kind, dflt) in spec.keys.items()}
    unread = sorted(set(file_conf) - set(spec.flags) - set(spec.keys) - {"out"})
    if unread:
        raise ConfigError(f"'{name}' reads no config key {', '.join(map(repr, unread))}")
    missing = [f"--{k}" for k in ("word", "seed") if k in spec.flags and k not in flags]
    if "epsilon" not in flags and name != "suite":
        missing.insert(0, "--epsilon")
    if missing:
        raise ConfigError(f"'{name}' requires {', '.join(missing)}")
    cfg = RunConfig(name, out=Path(given.get("out", "horolab-out")), keys=keys, **flags)
    if not (math.isfinite(cfg.tol) and cfg.tol > 0):
        raise ConfigError(f"tolerance must be positive and finite, got {cfg.tol!r}")
    if cfg.seed is not None and cfg.seed < 0:
        raise ConfigError(f"seed must be >= 0, got {cfg.seed}")
    if cfg.depth is not None and not (1 <= cfg.depth <= MAX_DEPTH):
        raise ConfigError(f"depth must lie in [1, {MAX_DEPTH}]")
    return cfg


@contextmanager
def _junction_key(key: str):
    """Report a junction depth that concatenation rejects (unsorted, or
    above the word's entry index) as a bad value of config key `key`."""
    try:
        yield
    except PreconditionError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def cx(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _payload(cfg: RunConfig, **body) -> dict:
    head: dict = {"schema": 1, "command": cfg.command}
    if cfg.epsilon is not None and cfg.command != "suite":  # no criterion reads it
        head["epsilon"] = cx(cfg.epsilon)
    if cfg.seed is not None:
        head["seed"] = cfg.seed
    head.update(body)
    return head


# ---------------------------------------------------------------------------
# subcommands


def cmd_fixed_points(cfg: RunConfig) -> dict:
    pts = periodic_points(cfg.epsilon, 1)
    rows = [
        (p.location.real, p.location.imag, p.classification, p.multiplier.real, p.multiplier.imag)
        for p in pts
    ]
    write_csv(
        cfg.out / "fixed_points.csv",
        ["re", "im", "classification", "multiplier_re", "multiplier_im"],
        rows,
    )
    return _payload(
        cfg,
        fixed_points=[
            {
                "location": cx(p.location),
                "classification": p.classification,
                "multiplier": cx(p.multiplier),
            }
            for p in pts
        ],
    )


def cmd_classify(cfg: RunConfig) -> dict:
    period = cfg.keys["period"]
    pts = periodic_points(cfg.epsilon, period)
    counts: dict[str, int] = {}
    for p in pts:
        counts[p.classification] = counts.get(p.classification, 0) + 1
    write_csv(
        cfg.out / "periodic_points.csv",
        ["re", "im", "period", "classification", "abs_multiplier"],
        [(p.location.real, p.location.imag, p.period, p.classification, abs(p.multiplier)) for p in pts],
    )
    return _payload(
        cfg,
        period=period,
        count=len(pts),
        classification_counts={k: counts[k] for k in sorted(counts)},
    )


def cmd_linearize(cfg: RunConfig) -> dict:
    point = base_point(cfg.epsilon)
    lin = build_linearizer(cfg.epsilon, point)
    return _payload(
        cfg,
        base=cx(point.location),
        multiplier=cx(lin.multiplier),
        radius=lin.radius,
        functional_equation_residual=functional_equation_residual(lin, 16),
    )


def cmd_collinearity(cfg: RunConfig) -> dict:
    lin = build_linearizer(cfg.epsilon, base_point(cfg.epsilon))
    rep = collinearity_in_linearizer(cfg.epsilon, lin, depth=cfg.depth or 8)
    return _payload(
        cfg,
        depth=cfg.depth or 8,
        verdict=rep.verdict,
        max_deviation=rep.max_deviation,
        spread=rep.spread,
        n_points=rep.n_points,
        exceptional_family=rep.exceptional_family_flag,
    )


def _n_points(cfg: RunConfig) -> int:
    n_points = cfg.keys["n_points"]
    if not (1 <= n_points <= MAX_POINTS):
        raise ConfigError(f"n_points must lie in [1, {MAX_POINTS}]")
    return n_points


def cmd_julia(cfg: RunConfig) -> dict:
    eps = cfg.epsilon
    n_points = _n_points(cfg)
    depth = cfg.depth or 40
    sample = inverse_iteration_sample(eps, n_points, depth, cfg.seed)
    write_csv(
        cfg.out / "julia_points.csv",
        ["re", "im"],
        [(z.real, z.imag) for z in sample.points],
    )
    a = abs(fixed_point_a(eps))
    svg_julia_scatter(
        cfg.out / "julia_scatter.svg",
        list(sample.points),
        a,
        f"inverse-iteration sample, {len(sample.points)} points",
    )
    body: dict = {
        "method": sample.method,
        "n_points": len(sample.points),
        "depth": depth,
        "params": {k: sample.params[k] for k in sorted(sample.params)},
    }
    if eps.imag == 0.0 and eps.real < 0.25 and not list_1_1_member(eps):
        rep = disk_containment_check(eps.real, sample, 1e-6)
        ext = derivative_extremality_check(eps.real, sample, 1e-6)
        body["containment"] = {
            "radius": rep.radius,
            "violations": len(rep.violations),
            "near_boundary": len(rep.near_boundary),
            "proximity_failures": len(rep.proximity_failures),
            "max_excess": rep.max_excess,
        }
        body["derivative_extremality"] = {
            "bound": ext.bound,
            "violations": len(ext.violations),
            "max_abs_derivative": ext.max_abs_deriv,
        }
    return _payload(cfg, **body)


def cmd_cocycle(cfg: RunConfig) -> dict:
    w = family_word(cfg.epsilon, cfg.word)
    b = cocycle_vs_fixed(w, cfg.tol)
    return _payload(
        cfg,
        word=w.prefix,
        value=b.value,
        tail_bound=b.tail_bound,
        depth_used=b.depth_used,
    )


def cmd_field(cfg: RunConfig) -> dict:
    c = family_word(cfg.epsilon, cfg.word)
    a, sigma = c.base.location, c.sigma
    n = cfg.keys["grid"]
    if n < 1:
        raise ConfigError(f"grid must be >= 1, got {n}")
    span = sigma / (2.0 * math.sqrt(2.0))  # square inscribed in D_{sigma/2}
    rows = []
    for i in range(n):
        for j in range(n):
            z = a + complex(
                -span + 2 * span * i / max(n - 1, 1),
                -span + 2 * span * j / max(n - 1, 1),
            )
            rows.append((z.real, z.imag, cocycle_field(c, z, cfg.tol)))
    write_csv(cfg.out / "field_values.csv", ["re", "im", "value"], rows)
    center, residual = field_mean_value(c, cfg.tol)
    return _payload(
        cfg,
        word=c.prefix,
        grid=n,
        sigma=sigma,
        center_value=center,
        mean_value_residual=residual,
    )


def cmd_heights(cfg: RunConfig) -> dict:
    eps = cfg.epsilon
    n_words, m_span = cfg.keys["n_words"], cfg.keys["m_span"]
    _, rep = sampled_heights(eps, n_words, cfg.seed, cfg.keys["max_len"], cfg.tol, m_span)
    write_csv(
        cfg.out / "height_values.csv",
        ["value", "bound"],
        [(v, b) for v, b in rep.values],
    )
    svg_gap_histogram(
        cfg.out / "gap_histogram.svg",
        [v for v, _ in rep.values],
        rep.window,
        f"height set, {rep.count} values",
    )
    return _payload(
        cfg,
        n_words=n_words,
        m_span=m_span,
        window=list(rep.window),
        count=rep.count,
        max_gap=rep.max_gap,
    )


def cmd_semigroup(cfg: RunConfig) -> dict:
    y = family_word(cfg.epsilon, cfg.keys["word_y"])
    c = family_word(cfg.epsilon, cfg.keys["word_c"])
    junctions = list(cfg.keys["junctions"])
    with _junction_key("junctions"):
        ld = limit_decomposition_check(y, c, junctions, cfg.tol)
    write_csv(
        cfg.out / "semigroup_defects.csv",
        ["junction", "defect", "beta_concat"],
        [(j, d, b.value) for j, d, b in zip(junctions, ld.defects, ld.sequence_betas)],
    )
    svg_defect_decay(
        cfg.out / "defect_decay.svg",
        junctions,
        list(ld.defects),
        f"semigroup defect decay, words {y.prefix!r} + {c.prefix!r}",
    )
    return _payload(
        cfg,
        word_y=y.prefix,
        word_c=c.prefix,
        junctions=junctions,
        defects=list(ld.defects),
        beta_y=ld.component_betas[0].value,
        beta_c=ld.beta_c.value,
        fitted_rate=ld.rate,
    )


def cmd_b_epsilon(cfg: RunConfig) -> dict:
    budget, l_max = cfg.keys["word_budget"], cfg.keys["l_max"]
    rep = build_B_epsilon(cfg.epsilon, budget, l_max, cfg.tol, cfg.seed)
    write_csv(cfg.out / "b_values.csv", ["value", "bound"], [(v, b) for v, b in rep.values])
    svg_gap_histogram(
        cfg.out / "b_histogram.svg",
        [v for v, _ in rep.values],
        rep.window,
        f"value semigroup sums, l <= {l_max}",
    )
    min_abs = min(abs(v) for v, _ in rep.values)
    return _payload(
        cfg,
        word_budget=budget,
        l_max=l_max,
        count=rep.count,
        window=list(rep.window),
        max_gap=rep.max_gap,
        min_abs_value=min_abs,
    )


def cmd_sigma_delta(cfg: RunConfig) -> dict:
    sd = default_sigma_delta(cfg.epsilon, cfg.seed, n_points=_n_points(cfg))
    return _payload(
        cfg,
        sigma=sd.sigma,
        delta=sd.delta,
        certificates={k: sd.certificates[k] for k in sorted(sd.certificates)},
    )


def cmd_excursions(cfg: RunConfig) -> dict:
    sd = default_sigma_delta(cfg.epsilon, cfg.seed)
    w = normalize_word(family_word(cfg.epsilon, cfg.word))
    st = excursion_stats(w, sd.sigma)
    return _payload(
        cfg,
        word=w.prefix,
        sigma=sd.sigma,
        leaving_indices=list(st.J_indices),
        return_indices=list(st.K_indices),
        excursion_count=st.s,
        total_excursion_length=st.d,
    )


def cmd_bound_528(cfg: RunConfig) -> dict:
    n_words = cfg.keys["n_words"]
    sd, checks = bound_checks(cfg.epsilon, n_words, cfg.seed, cfg.keys["max_len"], cfg.tol)
    write_csv(
        cfg.out / "bound_checks.csv",
        ["prefix", "beta", "tail_bound", "excursion_length", "margin", "ok"],
        [
            (bc.stats.word.prefix, bc.beta.value, bc.beta.tail_bound, bc.stats.d, bc.margin, bc.ok)
            for bc in checks
        ],
    )
    return _payload(
        cfg,
        n_words=n_words,
        sigma=sd.sigma,
        delta=sd.delta,
        delta_used=checks[0].delta_used,  # one parameter, so the same for every word
        all_ok=all(bc.ok for bc in checks),
        min_margin=min(bc.margin for bc in checks),
    )


def cmd_limit_decomp(cfg: RunConfig) -> dict:
    y = family_word(cfg.epsilon, cfg.keys["word_y"])
    c = family_word(cfg.epsilon, cfg.keys["word_c"])
    with _junction_key("junctions"):
        ld = limit_decomposition_check(y, c, cfg.keys["junctions"], cfg.tol)
    body = {
        "sequence": ld.sequence_id,
        "l": ld.l,
        "limit_value": ld.limit_value,
        "defects": list(ld.defects),
        "junction_distances": list(ld.nu_tail_distances),
        "window_sup": list(ld.window_sup),
        "defects_decreasing": ld.defects_decreasing,
        "nu_distances_decreasing": ld.nu_distances_decreasing,
        "windows_converging": ld.windows_converging,
        "converged": ld.converged,
    }
    nested_at = cfg.keys["nested_junction"]
    if nested_at is not None:
        with _junction_key("nested_junction"):
            nd = nested_decomposition_check(ld, nested_at)
        body["nested"] = {
            "junction": nested_at,
            "limit_value": nd.limit_value,
            "defect": nd.defects[0],
            "converged": nd.converged,
        }
    return _payload(cfg, **body)


def cmd_suite(cfg: RunConfig) -> dict:
    results = run_battery(cfg.seed)
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        print(f"[{r.index:02d}] {status} {r.name} ({r.elapsed:.2f}s)", file=sys.stderr)
    for r in results:
        if r.index == 5 and "points" in r.artifacts:
            write_csv(
                cfg.out / "julia_points.csv",
                ["re", "im"],
                [(z.real, z.imag) for z in r.artifacts["points"]],
            )
            svg_julia_scatter(
                cfg.out / "julia_scatter.svg",
                r.artifacts["points"],
                r.artifacts["radius"],
                "Julia containment sample",
            )
        if r.index in (3, 10) and "heights" in r.artifacts:
            tag = "degenerate" if r.index == 3 else "dense"
            write_csv(
                cfg.out / f"heights_{tag}.csv",
                ["value"],
                [(v,) for v in r.artifacts["heights"]],
            )
            svg_gap_histogram(
                cfg.out / f"gap_histogram_{tag}.svg",
                r.artifacts["heights"],
                r.artifacts["window"],
                f"height set ({tag})",
            )
        if r.index == 7 and "tables" in r.artifacts:
            junctions = r.details["junctions"]
            rows = []
            for py, pc, ld in r.artifacts["tables"]:
                for j, d in zip(junctions, ld.defects):
                    rows.append((py, pc, j, d))
            write_csv(
                cfg.out / "semigroup_defects.csv",
                ["word_y", "word_c", "junction", "defect"],
                rows,
            )
            _, _, ld0 = r.artifacts["tables"][0]
            svg_defect_decay(
                cfg.out / "defect_decay.svg",
                junctions,
                list(ld0.defects),
                "semigroup defect decay (first pair)",
            )
    payload = _payload(
        cfg,
        suite="acceptance",
        criteria=[
            {"index": r.index, "name": r.name, "ok": r.ok, "details": r.details}
            for r in results
        ],
        all_ok=all(r.ok for r in results),
    )
    if not payload["all_ok"]:
        failing = [r.index for r in results if not r.ok]
        write_json(cfg.out / "report.json", payload)
        raise SuiteFailureError(f"suite criteria failed: {failing}")
    return payload


FLAGS = {  # flag -> (type, help)
    "epsilon": (parse_epsilon, "parameter, RE or RE,IM"),
    "word": (str, "branch-symbol prefix string"),
    "depth": (int, "preimage-tree or inverse-iteration depth"),
    "tol": (float, "tail-bound tolerance (default 1e-12)"),
    "seed": (int, "random seed"),
}


class Command(NamedTuple):
    run: Callable[[RunConfig], dict]
    flags: tuple[str, ...]  # keys of FLAGS
    keys: dict = {}  # config-only key -> (type, default)


WORD_PAIR = {"word_y": (str, "-"), "word_c": (str, "--")}

COMMANDS = {
    "fixed-points": Command(cmd_fixed_points, ("epsilon",)),
    "classify": Command(cmd_classify, ("epsilon",), {"period": (int, 1)}),
    "linearize": Command(cmd_linearize, ("epsilon",)),
    "collinearity": Command(cmd_collinearity, ("epsilon", "depth")),
    "julia": Command(cmd_julia, ("epsilon", "depth", "seed"), {"n_points": (int, 2000)}),
    "cocycle": Command(cmd_cocycle, ("epsilon", "word", "tol")),
    "field": Command(cmd_field, ("epsilon", "word", "tol"), {"grid": (int, 5)}),
    "heights": Command(
        cmd_heights,
        ("epsilon", "tol", "seed"),
        {"n_words": (int, 200), "max_len": (int, 10), "m_span": (int, 40)},
    ),
    "semigroup": Command(
        cmd_semigroup, ("epsilon", "tol"), {**WORD_PAIR, "junctions": (int_list, (10, 20, 30, 40, 50))}
    ),
    "b-epsilon": Command(
        cmd_b_epsilon, ("epsilon", "tol", "seed"), {"word_budget": (int, 12), "l_max": (int, 2)}
    ),
    "sigma-delta": Command(cmd_sigma_delta, ("epsilon", "seed"), {"n_points": (int, 10000)}),
    "excursions": Command(cmd_excursions, ("epsilon", "word", "seed")),
    "bound-528": Command(
        cmd_bound_528, ("epsilon", "tol", "seed"), {"n_words": (int, 50), "max_len": (int, 8)}
    ),
    "limit-decomp": Command(
        cmd_limit_decomp,
        ("epsilon", "tol"),
        {**WORD_PAIR, "junctions": (int_list, (10, 20, 30, 40)), "nested_junction": (int, None)},
    ),
    # --epsilon is accepted (and optional) but neither used nor recorded:
    # each criterion fixes its own parameters.  The README, the acceptance
    # test and the benchmark run `suite --epsilon -1 --seed 7`
    "suite": Command(cmd_suite, ("epsilon", "seed")),
}


class _ConfigErrorParser(argparse.ArgumentParser):
    """Argument errors raise ConfigError (JSON, exit 2); subparsers inherit."""

    def error(self, message):
        raise ConfigError(message)


def make_parser() -> argparse.ArgumentParser:
    parser = _ConfigErrorParser(
        prog="horolab",
        description="numerical laboratory for backward-orbit cocycles of quadratic maps",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in COMMANDS.items():
        p = sub.add_parser(name)
        for flag in spec.flags:
            p.add_argument(f"--{flag}", help=FLAGS[flag][1])
        p.add_argument("--out", help="output directory (default horolab-out)")
        p.add_argument("--config", help="flat key=value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = build_config(make_parser().parse_args(argv))
        payload = COMMANDS[cfg.command].run(cfg)
        report_name = "report.json" if cfg.command == "suite" else f"{cfg.command.replace('-', '_')}.json"
        write_json(cfg.out / report_name, payload)
        sys.stdout.write(to_json_text(payload))
        return 0
    except ConfigError as exc:
        sys.stdout.write(to_json_text(exc.payload()))
        return 2
    except HorolabError as exc:
        sys.stdout.write(to_json_text(exc.payload()))
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
