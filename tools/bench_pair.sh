#!/usr/bin/env bash
# Benchmark git revision REF against the working tree, in alternating pairs.
#
#   tools/bench_pair.sh REF OUT [WORKLOAD [SEED]]
#       (e.g. tools/bench_pair.sh HEAD~ BENCH.json,
#        tools/bench_pair.sh HEAD~ BENCH-scan.json param-scan 12)
#
# First runs `python3 perfbench/run.py --workload WORKLOAD --seed SEED
# --seconds 1 --trace 1` once in the working tree, and stops with its
# output if that run exits non-zero or prints `"correct": false`: the
# tracer wraps the layers' public functions by module and name, so a
# function moved between modules shows there before any pair is timed.
# Then extracts REF into a temporary directory (git archive, so an interrupted
# run leaves nothing behind in .git) and runs
# `python3 perfbench/run.py --workload WORKLOAD --seed SEED` (default:
# all workloads at seed 11) 10 times in each tree, each tree with its own
# perfbench/ and src/.  The tree that goes first alternates from pair to pair, so a drift in host speed
# falls on both sides.  OUT gets one JSON object: every run's metric
# lines, record lines and result line, and per workload and end-to-end
# metric the values of both trees and the number of pairs in which the
# working tree did better, and the line counts of src/horolab/*.py and
# tests/*.py in both trees.
set -euo pipefail

usage="usage: tools/bench_pair.sh REF OUT [WORKLOAD [SEED]]"
ref=${1:?$usage}
out=${2:?$usage}
workload=${3:-all}
seed=${4:-11}
pairs=10
root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse "$ref")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

if ! (cd "$root" && python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 1 --trace 1) \
        > "$tmp/traced.log" 2>&1 || grep -q '"correct": false' "$tmp/traced.log"; then
    cat "$tmp/traced.log" >&2
    echo "the traced run of the working tree failed; no pairs run" >&2
    exit 1
fi

mkdir -p "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"

bench() {  # bench TREE LOG: one benchmark run from the root of TREE
    (cd "$1" && python3 perfbench/run.py --workload "$workload" --seed "$seed") > "$2"
}

for ((i = 0; i < pairs; i++)); do
    if ((i % 2 == 0)); then
        bench "$tmp/ref" "$tmp/ref-$i.log"
        bench "$root" "$tmp/work-$i.log"
    else
        bench "$root" "$tmp/work-$i.log"
        bench "$tmp/ref" "$tmp/ref-$i.log"
    fi
done

python3 - "$tmp" "$pairs" "$ref" "$sha" "$root" "$workload" "$seed" > "$out" <<'EOF'
import json
import pathlib
import statistics
import sys

tmp, pairs, ref, sha, root, workload, seed = sys.argv[1:8]
pairs = int(pairs)
spec = f"{root}/BENCHMARK.json"
better = {m["name"]: m["better"] for m in json.load(open(spec))["end_to_end"]}
runs = []
for i in range(pairs):
    for tree in ("ref", "work"):
        lines = open(f"{tmp}/{tree}-{i}.log", encoding="utf-8").read().splitlines()
        runs.append({
            "tree": tree,
            "pair": i,
            "first": (tree == "ref") == (i % 2 == 0),
            "metric_lines": [l for l in lines[:-1] if not l.startswith("record ")],
            "records": [json.loads(l[len("record "):]) for l in lines if l.startswith("record ")],
            "result": json.loads(lines[-1]),
        })
summary = {}
for key in runs[0]["result"]["metrics"]:
    # one workload's result names its metrics without the workload
    name, metric = key.split(".", 1) if workload == "all" else (workload, key)
    side = {t: [r["result"]["metrics"][key]["value"] for r in runs if r["tree"] == t] for t in ("ref", "work")}
    sign = 1 if better[metric] == "higher" else -1
    wins = sum(sign * (w - r) > 0 for r, w in zip(side["ref"], side["work"]))
    summary.setdefault(name, {})[metric] = {
        "ref": side["ref"],
        "work": side["work"],
        "ref_median": statistics.median(side["ref"]),
        "work_median": statistics.median(side["work"]),
        "work_better_pairs": wins,
    }
json.dump({
    "command": f"python3 perfbench/run.py --workload {workload} --seed {seed}",
    "ref": ref,
    "ref_commit": sha,
    "pairs": pairs,
    "lines": {
        tree: {glob: sum(p.read_bytes().count(b"\n") for p in pathlib.Path(path).glob(glob))
               for glob in ("src/horolab/*.py", "tests/*.py")}
        for tree, path in (("ref", f"{tmp}/ref"), ("work", root))
    },
    "summary": summary,
    "runs": runs,
}, sys.stdout, indent=1)
print()
EOF
echo "wrote $out ($pairs pairs against $ref)"
