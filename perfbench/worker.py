"""One repetition of a workload in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py SPAWNED WORKLOAD SEED TRACE OUT_DIR
    PYTHONPATH=src python3 perfbench/worker.py SPAWNED setup

SPAWNED is the caller's ``time.monotonic()`` just before it started this
process.  Host speed is sampled from the first line on (``speed.py``).
Prints one JSON object: set-up time (SPAWNED until ``import horolab.cli``
has finished) and the wall time of the timed region, each in reference
seconds and in wall seconds, then peak RSS and the check's verdict.  With
``setup`` only the set-up times are printed.  With TRACE 1 the layers are
traced during the timed region and the per-layer metrics are included;
the spans go to OUT_DIR.
"""

import time

import speed

SAMPLER = speed.Sampler()
SAMPLER.start()

import horolab.cli  # noqa: E402  (the import whose cost is set-up time)

IMPORTED = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import mpmath  # noqa: E402
import numpy  # noqa: E402

import horolab  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def timings(spawned: float, t0: float, t1: float) -> dict:
    SAMPLER.stop()
    out = {
        "setup_s": SAMPLER.reference_s(spawned, IMPORTED),
        "setup_wall_s": IMPORTED - spawned,
        "probe_s": SAMPLER.median_probe_s(),
        "horolab": horolab.__file__,
    }
    if t1 > t0:
        out["wall_s"] = SAMPLER.reference_s(t0, t1)
        out["wall_wall_s"] = SAMPLER.wall_s(t0, t1)
    return out


def main(argv: list[str]) -> None:
    spawned, name = float(argv[0]), argv[1]
    if name == "setup":
        print(json.dumps(timings(spawned, 0.0, 0.0)))
        return
    seed, trace, out_root = int(argv[2]), argv[3] == "1", Path(argv[4])
    make_inputs, run, check = workloads.WORKLOADS[name]
    inputs = make_inputs(seed)
    out_dir = out_root / f"{name}-{seed}-rep"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tr = tracer.Tracer() if trace else None
    if tr is not None:
        tr.install()
    t0 = time.monotonic()
    try:
        raw = run(inputs, out_dir)
    finally:
        t1 = time.monotonic()
        if tr is not None:
            tr.uninstall()
    result = timings(spawned, t0, t1)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict = check(inputs, raw)
    shutil.rmtree(out_dir, ignore_errors=True)
    result.update(
        versions={"numpy": numpy.__version__, "mpmath": mpmath.__version__},
        peak_rss_mb=peak_rss_mb,
        **verdict.as_dict(),
    )
    if tr is not None:
        result["layers"] = tr.layer_metrics()
        result["spans"] = len(tr.spans)
        tr.write_spans(out_root / f"spans-{name}-{seed}.json")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
