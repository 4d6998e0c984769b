"""The horolab benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a horolab checkout; NAME is one of the workloads in
BENCHMARK.json (suite, word-sweep, param-scan) or ``all``.  Every
repetition runs in a fresh interpreter (``perfbench/worker.py``), so the
package's caches start cold as they do for each command-line invocation.
Repetitions at one seed run one at a time, with the same inputs, until
the next one would overrun ``--seconds``; timings are medians over them.

With ``--trace 0`` the end-to-end metrics are reported.  Times are in
reference seconds: each worker samples the host's speed with a fixed
calibration loop while it runs and scales its wall time to a host at a
fixed reference speed (``perfbench/speed.py``), so that load from other
tenants of a shared machine drops out; the wall-clock medians and the
median probe time are printed beside them.  ``setup_s`` runs from
spawning an interpreter until ``import horolab.cli`` has finished, in
dedicated probes and in every worker; ``wall_s`` is the time of the
workload's timed region; ``ops_per_s`` is the operations that passed
their check over ``wall_s``.  With ``--trace 1`` each repetition is an
untraced run followed by a traced one; the per-layer metrics come from
the traced run (their times in wall seconds) and ``trace.overhead_s`` is
the median traced-minus-untraced ``wall_s``.

Before the result the run prints one line per metric with its unit and
spread, then a ``record`` line with the machine, the package versions and
the per-module ``src/`` line counts.  The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  ``attempted`` and
``failed`` are the operations of one repetition and those the checks
rejected, so they depend on the seed only; ``correct`` is false when a
repetition broke in a way no single operation accounts for, or when
repetitions at one seed disagree.  Outputs (suite reports, spans) go to
``.perfbench-out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
WORKER_TIMEOUT = 120


class BenchError(Exception):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Bench:
    def __init__(self, root: Path):
        self.root = root
        self.spec = json.loads((root / "BENCHMARK.json").read_text())
        self.units = {m["name"]: m["unit"] for m in self.spec["end_to_end"] + self.spec["per_layer"]}
        self.out = root / ".perfbench-out"
        self.out.mkdir(exist_ok=True)
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))

    def _worker(self, *args: str) -> dict:
        """Run a worker to completion and return its result."""
        cmd = [sys.executable, str(HERE / "worker.py"), repr(time.monotonic()), *args]
        proc = subprocess.run(
            cmd, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=WORKER_TIMEOUT
        )
        if proc.returncode != 0:
            raise BenchError(f"worker {' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(rep["horolab"]).resolve().is_relative_to(self.root / "src"):
            raise BenchError(f"horolab imported from {rep['horolab']}, not from this checkout")
        return rep

    def setup_probe(self) -> dict:
        return self._worker("setup")

    def rep(self, workload: str, seed: int, trace: bool) -> dict:
        return self._worker(workload, str(seed), "1" if trace else "0", str(self.out))

    def reps(self, workload: str, seed: int, seconds: float, trace: bool) -> list[list[dict]]:
        """Groups of repetitions ([untraced] or [untraced, traced]) until
        the next group would overrun the time budget."""
        deadline = time.monotonic() + seconds
        groups: list[list[dict]] = []
        longest = 0.0
        while True:
            t = time.monotonic()
            groups.append([self.rep(workload, seed, False)] + ([self.rep(workload, seed, True)] if trace else []))
            longest = max(longest, time.monotonic() - t)
            if time.monotonic() + longest > deadline:
                return groups

    def size_record(self) -> dict:
        lines = {}
        for path in sorted((self.root / "src" / "horolab").glob("*.py")):
            with open(path, encoding="utf-8") as fh:
                lines[path.stem] = sum(1 for _ in fh)
        lines["total"] = sum(lines.values())
        return lines

    def run(self, workload: str, seed: int, seconds: float, trace: bool) -> dict:
        start = time.monotonic()
        setup = [] if trace else [self.setup_probe() for _ in range(SETUP_PROBES)]
        groups = self.reps(workload, seed, seconds - (time.monotonic() - start), trace)
        reps = [r for g in groups for r in g]
        digests = {r["digest"] for r in reps}
        counts = {(r["attempted"], r["failed"]) for r in reps}
        correct = all(r["consistent"] for r in reps) and len(digests) == 1 and len(counts) == 1
        attempted, failed = reps[0]["attempted"], reps[0]["failed"]
        plain = [g[0] for g in groups]
        lines = [f"workload {workload} seed {seed}: {len(groups)} repetitions in {time.monotonic() - start:.1f} s"]
        if trace:
            traced = [g[1] for g in groups]
            layers = dict(traced[0]["layers"])
            exact = {k for k in layers if self.units[k] != "s"}
            if any({k: t["layers"][k] for k in exact} != {k: layers[k] for k in exact} for t in traced):
                correct = False
                lines.append("  per-layer counts differ between traced repetitions at one seed")
            layers["trace.overhead_s"] = statistics.median(t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
            values = {m["name"]: [layers[m["name"]]] for m in self.spec["per_layer"]}
        else:
            values = {
                "setup_s": [r["setup_s"] for r in setup + plain],
                "wall_s": [r["wall_s"] for r in plain],
                "ops_per_s": [(attempted - failed) / r["wall_s"] for r in plain],
                "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
            }
        metrics = {}
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            metrics[name] = {"value": med, "unit": self.units[name]}
            spread = f"  (median of {len(vals)}; q1 {q1:.6g}, q3 {q3:.6g})" if len(vals) > 1 else ""
            lines.append(f"  {name:40s} {med:14.6g} {self.units[name]}{spread}")
        if not trace:
            for name, key, vals in (
                ("setup wall time", "setup_wall_s", setup + plain),
                ("timed region wall time", "wall_wall_s", plain),
                ("host probe time", "probe_s", setup + plain),
            ):
                q1, med, q3 = quartiles([r[key] for r in vals])
                lines.append(f"  {'(' + name + ')':40s} {med:14.6g} s  (median of {len(vals)}; q1 {q1:.6g}, q3 {q3:.6g})")
        lines.append(f"  {'failed_ops_ratio':40s} {failed / attempted:14.6g} ({failed} of {attempted} ops)")
        for f in reps[0]["failures"]:
            lines.append(f"    failed: {f}")
        if len(digests) > 1:
            lines.append(f"  outputs differ between repetitions at one seed: {sorted(digests)}")
        record = {
            "workload": workload,
            "seed": seed,
            "trace": int(trace),
            "repetitions": len(groups),
            "wall_s": [r["wall_s"] for r in plain],
            "wall_wall_s": [r["wall_wall_s"] for r in plain],
            "machine": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                **reps[0]["versions"],
            },
            "src_lines": self.size_record(),
        }
        if trace:
            record["spans"] = traced[0]["spans"]
        lines.append("record " + json.dumps(record))
        print("\n".join(lines), flush=True)
        return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "horolab" / "__init__.py").is_file() or not (root / "BENCHMARK.json").is_file():
        print("run.py: run from the root of a horolab checkout (src/horolab and BENCHMARK.json)", file=sys.stderr)
        return 2
    bench = Bench(root)
    names = [w["name"] for w in bench.spec["workloads"]]
    if args.workload not in names + ["all"]:
        print(f"run.py: unknown workload {args.workload!r}; choose from {names + ['all']}", file=sys.stderr)
        return 2
    seconds = args.seconds or bench.spec["run_seconds"]
    try:
        results = {w: bench.run(w, args.seed, seconds, bool(args.trace)) for w in (names if args.workload == "all" else [args.workload])}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = next(iter(results.values()))
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
