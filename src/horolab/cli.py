"""Command-line front-end.

Every subcommand prints its report JSON to stdout and writes the same
payload (plus CSV tables and SVG plots where they make sense) into the
output directory.  Configuration can come from a flat key=value file
merged under explicit flags; flags win.  Config validation failures
exit 2, computation failures exit 1, and both print a machine-readable
diagnostic object.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .cocycle import (
    cocycle_field,
    cocycle_vs_fixed,
    field_mean_value,
    height_set,
    semigroup_convergence,
)
from .errors import ConfigError, ConstructionError, HorolabError, SuiteFailureError
from .julia import inverse_iteration_sample
from .maps import RationalMap, evaluate
from .periodic import (
    PeriodicPoint,
    build_linearizer,
    collinearity_in_linearizer,
    make_periodic_point,
    periodic_points,
)
from .quadratic import (
    build_B_epsilon,
    cocycle_lower_bound_check,
    default_sigma_delta,
    derivative_extremality_check,
    disk_containment_check,
    excursion_stats,
    family_word,
    fixed_point_a,
    limit_decomposition_check,
    nested_decomposition_check,
    normalize_word,
    quadratic_map,
    sample_words,
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
RANDOMIZED = {"julia", "heights", "b-epsilon", "sigma-delta", "excursions", "bound-528", "suite"}
DEPTH_READERS = {"collinearity", "julia"}


@dataclass
class RunConfig:
    command: str
    epsilon: complex | None = None
    map_path: str | None = None
    word: str | None = None
    depth: int | None = None
    tol: float = 1e-12
    seed: int | None = None
    out: Path = Path("horolab-out")
    extras: dict = field(default_factory=dict)

    def validate(self) -> None:
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tolerance must be positive and finite, got {self.tol!r}")
        if self.depth is not None and self.command not in DEPTH_READERS:
            raise ConfigError(f"'{self.command}' takes no depth; only collinearity and julia read it")
        if self.depth is not None and not (1 <= self.depth <= MAX_DEPTH):
            raise ConfigError(f"depth must lie in [1, {MAX_DEPTH}]")
        if self.command in RANDOMIZED and self.seed is None:
            raise ConfigError(f"'{self.command}' is randomized; --seed is mandatory")
        n_points = self.int_extra("n_points", 2000)
        if not (1 <= n_points <= MAX_POINTS):
            raise ConfigError(f"n_points must lie in [1, {MAX_POINTS}]")

    def int_extra(self, key: str, default: int) -> int:
        return _number(key, self.extras.get(key, default), int)

    def str_extra(self, key: str, default: str) -> str:
        return str(self.extras.get(key, default))

    def need_epsilon(self) -> complex:
        if self.epsilon is None:
            raise ConfigError(f"'{self.command}' requires --epsilon")
        return self.epsilon

    def need_word(self) -> str:
        if self.word is None:
            raise ConfigError(f"'{self.command}' requires --word")
        return self.word

    def need_seed(self) -> int:
        if self.seed is None:
            raise ConfigError(f"'{self.command}' requires --seed")
        return self.seed

    def the_map(self) -> RationalMap:
        if self.map_path is not None:
            try:
                data = json.loads(Path(self.map_path).read_text())
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read map file {self.map_path!r}: {exc}") from None
            try:
                return RationalMap.from_json(data)
            except ConstructionError as exc:
                raise ConfigError(f"map file {self.map_path!r} holds no admissible map: {exc}") from None
        return quadratic_map(self.need_epsilon())


def _number(key: str, raw, kind: type):
    """raw (a flag or config-file value) converted to int or float."""
    try:
        return kind(raw)
    except ValueError:
        raise ConfigError(f"config key {key} must be of type {kind.__name__}, got {raw!r}") from None


def parse_epsilon(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise ConfigError(f"cannot parse epsilon {text!r}; expected RE or RE,IM")


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


KNOWN_FLAG_KEYS = {"epsilon", "map", "word", "depth", "tol", "seed", "out"}


def build_config(args: argparse.Namespace) -> RunConfig:
    file_conf = parse_config_file(args.config) if args.config else {}
    extras = {k: v for k, v in file_conf.items() if k not in KNOWN_FLAG_KEYS}
    cfg = RunConfig(command=args.command, extras=extras)
    if args.epsilon is not None:
        cfg.epsilon = parse_epsilon(args.epsilon)
    elif "epsilon" in file_conf:
        cfg.epsilon = parse_epsilon(file_conf["epsilon"])
    cfg.map_path = args.map if args.map is not None else file_conf.get("map")
    cfg.word = args.word if args.word is not None else file_conf.get("word")
    raw_depth = args.depth if args.depth is not None else file_conf.get("depth")
    if raw_depth is not None:
        cfg.depth = _number("depth", raw_depth, int)
    raw_tol = args.tol if args.tol is not None else file_conf.get("tol")
    if raw_tol is not None:
        cfg.tol = _number("tol", raw_tol, float)
    raw_seed = args.seed if args.seed is not None else file_conf.get("seed")
    if raw_seed is not None:
        cfg.seed = _number("seed", raw_seed, int)
    cfg.out = Path(args.out if args.out is not None else file_conf.get("out", "horolab-out"))
    cfg.validate()
    return cfg


def cx(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _payload(cfg: RunConfig, **body) -> dict:
    head: dict = {"schema": 1, "command": cfg.command}
    if cfg.epsilon is not None:
        head["epsilon"] = cx(cfg.epsilon)
    if cfg.map_path is not None:
        head["map"] = cfg.map_path
    if cfg.seed is not None:
        head["seed"] = cfg.seed
    head.update(body)
    return head


# ---------------------------------------------------------------------------
# subcommands


def cmd_fixed_points(cfg: RunConfig) -> dict:
    f = cfg.the_map()
    pts = periodic_points(f, 1)
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
    f = cfg.the_map()
    period = cfg.int_extra("period", 1)
    pts = periodic_points(f, period)
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


def _repelling_base(cfg: RunConfig, f: RationalMap) -> PeriodicPoint:
    """a(epsilon) for the quadratic family, else the first repelling
    fixed point of the --map map."""
    if cfg.map_path is None:
        return make_periodic_point(f, fixed_point_a(cfg.need_epsilon()), 1)
    reps = [p for p in periodic_points(f, 1) if p.classification == "repelling"]
    if not reps:
        raise ConfigError("map has no repelling fixed point")
    return reps[0]


def cmd_linearize(cfg: RunConfig) -> dict:
    f = cfg.the_map()
    point = _repelling_base(cfg, f)
    lin = build_linearizer(f, point)
    residual = 0.0
    for k in range(16):
        z = complex(point.location) + lin.radius * 0.5 * complex(math.cos(k), math.sin(k))
        residual = max(residual, abs(lin(evaluate(f, z)) - lin.multiplier * lin(z)))
    return _payload(
        cfg,
        base=cx(point.location),
        multiplier=cx(lin.multiplier),
        radius=lin.radius,
        functional_equation_residual=residual,
    )


def cmd_collinearity(cfg: RunConfig) -> dict:
    f = cfg.the_map()
    lin = build_linearizer(f, _repelling_base(cfg, f))
    rep = collinearity_in_linearizer(f, lin, depth=cfg.depth or 8)
    return _payload(
        cfg,
        depth=cfg.depth or 8,
        verdict=rep.verdict,
        max_deviation=rep.max_deviation,
        spread=rep.spread,
        n_points=rep.n_points,
        exceptional_family=rep.exceptional_family_flag,
    )


def cmd_julia(cfg: RunConfig) -> dict:
    eps = cfg.need_epsilon()
    n_points = cfg.int_extra("n_points", 2000)
    depth = cfg.depth or 40
    sample = inverse_iteration_sample(quadratic_map(eps), n_points, depth, cfg.need_seed())
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
    if eps.imag == 0.0 and eps.real < 0.25 and abs(eps) > 1e-12 and abs(eps + 2) > 1e-12:
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
    w = family_word(cfg.need_epsilon(), cfg.need_word())
    b = cocycle_vs_fixed(w, cfg.tol)
    return _payload(
        cfg,
        word=w.prefix,
        value=b.value,
        tail_bound=b.tail_bound,
        depth_used=b.depth_used,
    )


def cmd_field(cfg: RunConfig) -> dict:
    c = family_word(cfg.need_epsilon(), cfg.need_word())
    a, sigma = c.base.location, c.sigma
    n = cfg.int_extra("grid", 5)
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
    eps = cfg.need_epsilon()
    n_words = cfg.int_extra("n_words", 200)
    max_len = cfg.int_extra("max_len", 10)
    m_span = cfg.int_extra("m_span", 40)
    words = sample_words(eps, n_words, cfg.need_seed(), max_len)
    betas = [cocycle_vs_fixed(w, cfg.tol) for w in words]
    rep = height_set(betas, math.log(abs(words[0].base.multiplier)), (-m_span, m_span), window=(0.0, 1.0))
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
    eps = cfg.need_epsilon()
    y = family_word(eps, cfg.str_extra("word_y", "-"))
    c = family_word(eps, cfg.str_extra("word_c", "--"))
    junctions = [_number("junctions", t, int) for t in cfg.str_extra("junctions", "10,20,30,40,50").split(",")]
    tab = semigroup_convergence(y, c, junctions, cfg.tol)
    write_csv(
        cfg.out / "semigroup_defects.csv",
        ["junction", "defect", "beta_concat"],
        [(j, d, b.value) for j, d, b in zip(tab.junctions, tab.defects, tab.betas)],
    )
    svg_defect_decay(
        cfg.out / "defect_decay.svg",
        list(tab.junctions),
        list(tab.defects),
        f"semigroup defect decay, words {y.prefix!r} + {c.prefix!r}",
    )
    return _payload(
        cfg,
        word_y=y.prefix,
        word_c=c.prefix,
        junctions=list(tab.junctions),
        defects=list(tab.defects),
        beta_y=tab.beta_y.value,
        beta_c=tab.beta_c.value,
        fitted_rate=tab.rate,
    )


def cmd_b_epsilon(cfg: RunConfig) -> dict:
    eps = cfg.need_epsilon()
    budget = cfg.int_extra("word_budget", 12)
    l_max = cfg.int_extra("l_max", 2)
    rep = build_B_epsilon(eps, budget, l_max, cfg.tol, cfg.need_seed())
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
    eps = cfg.need_epsilon()
    sd = default_sigma_delta(eps, cfg.need_seed(), n_points=cfg.int_extra("n_points", 10000))
    return _payload(
        cfg,
        sigma=sd.sigma,
        delta=sd.delta,
        certificates={k: sd.certificates[k] for k in sorted(sd.certificates)},
    )


def cmd_excursions(cfg: RunConfig) -> dict:
    eps = cfg.need_epsilon()
    sd = default_sigma_delta(eps, cfg.need_seed())
    w = normalize_word(family_word(eps, cfg.need_word()))
    st = excursion_stats(w, sd)
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
    eps = cfg.need_epsilon()
    n_words = cfg.int_extra("n_words", 50)
    seed = cfg.need_seed()
    base = complex(eps.real, 0.0)
    sd = default_sigma_delta(base, seed)
    words = sample_words(eps, n_words, seed, cfg.int_extra("max_len", 8))
    rows = []
    all_ok = True
    min_margin = math.inf
    for w in words:
        bc = cocycle_lower_bound_check(w, sd, cfg.tol)
        rows.append((w.prefix, bc.beta.value, bc.beta.tail_bound, bc.stats.d, bc.margin, bc.ok))
        all_ok = all_ok and bc.ok
        min_margin = min(min_margin, bc.margin)
    write_csv(
        cfg.out / "bound_checks.csv",
        ["prefix", "beta", "tail_bound", "excursion_length", "margin", "ok"],
        rows,
    )
    return _payload(
        cfg,
        n_words=n_words,
        sigma=sd.sigma,
        delta=sd.delta,
        delta_used=sd.delta if complex(eps) == sd.epsilon else 0.5 * sd.delta,
        all_ok=all_ok,
        min_margin=min_margin,
    )


def cmd_limit_decomp(cfg: RunConfig) -> dict:
    eps = cfg.need_epsilon()
    y = family_word(eps, cfg.str_extra("word_y", "-"))
    c = family_word(eps, cfg.str_extra("word_c", "--"))
    junctions = [_number("junctions", t, int) for t in cfg.str_extra("junctions", "10,20,30,40").split(",")]
    ld = limit_decomposition_check(y, c, junctions, cfg.tol)
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
    nested_at = cfg.extras.get("nested_junction")
    if nested_at is not None:
        nested_at = _number("nested_junction", nested_at, int)
        nd = nested_decomposition_check(y, c, nested_at, cfg.tol)
        body["nested"] = {
            "junction": nested_at,
            "limit_value": nd.limit_value,
            "defect": nd.defects[0],
            "converged": nd.converged,
        }
    return _payload(cfg, **body)


def cmd_suite(cfg: RunConfig) -> dict:
    results = run_battery(cfg.need_seed())
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
            rows = []
            for py, pc, tab in r.artifacts["tables"]:
                for j, d in zip(tab.junctions, tab.defects):
                    rows.append((py, pc, j, d))
            write_csv(
                cfg.out / "semigroup_defects.csv",
                ["word_y", "word_c", "junction", "defect"],
                rows,
            )
            _, _, tab0 = r.artifacts["tables"][0]
            svg_defect_decay(
                cfg.out / "defect_decay.svg",
                list(tab0.junctions),
                list(tab0.defects),
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


COMMANDS = {
    "fixed-points": cmd_fixed_points,
    "classify": cmd_classify,
    "linearize": cmd_linearize,
    "collinearity": cmd_collinearity,
    "julia": cmd_julia,
    "cocycle": cmd_cocycle,
    "field": cmd_field,
    "heights": cmd_heights,
    "semigroup": cmd_semigroup,
    "b-epsilon": cmd_b_epsilon,
    "sigma-delta": cmd_sigma_delta,
    "excursions": cmd_excursions,
    "bound-528": cmd_bound_528,
    "limit-decomp": cmd_limit_decomp,
    "suite": cmd_suite,
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
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--epsilon", help="parameter, RE or RE,IM")
        p.add_argument("--map", help="rational map JSON file")
        p.add_argument("--word", help="branch-symbol prefix string")
        p.add_argument("--depth", type=int, help="collinearity and julia only")
        p.add_argument("--tol", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory (default horolab-out)")
        p.add_argument("--config", help="flat key=value config file")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        cfg = build_config(make_parser().parse_args(argv))
        payload = COMMANDS[cfg.command](cfg)
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
