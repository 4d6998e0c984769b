#!/usr/bin/env bash
# Cold start of the command line: the wall time from process spawn to
# exit of each README example, and of `classify --epsilon -3` at period
# 10, in git revision REF and in the working tree.
#
#   tools/cli_times.sh REF OUT        (e.g. tools/cli_times.sh HEAD~ CLI_TIMES.json)
#
# Extracts REF into a temporary directory (git archive, so an interrupted
# run leaves nothing behind in .git).  Each command runs 5 times per
# tree, each run a fresh `python3 -m horolab.cli` process with its own
# --out directory, the two trees alternating run by run so that a drift
# in host speed falls on both.  Every command is timed in two modes:
#   no-bytecode: PYTHONDONTWRITEBYTECODE=1, so every process compiles
#     horolab's modules;
#   cached: a bytecode cache in a scratch PYTHONPYCACHEPREFIX per tree,
#     filled by one untimed run of the command first.
# OUT gets one JSON object: per mode, command and tree the 5 wall times
# in seconds, their median and the exit statuses (a command that fails
# is timed to its failure), and the Python version and core count.
set -euo pipefail

usage="usage: tools/cli_times.sh REF OUT"
ref=${1:?$usage}
out=${2:?$usage}
root=$(git rev-parse --show-toplevel)
sha=$(git -C "$root" rev-parse "$ref")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"
printf '%s\n' 'period = 10' > "$tmp/period-10.cfg"

python3 - "$tmp" "$root" "$ref" "$sha" > "$out" <<'EOF'
import json
import os
import platform
import statistics
import subprocess
import sys
import time

tmp, root, ref, sha = sys.argv[1:5]
runs = 5
trees = {"ref": f"{tmp}/ref", "work": root}
commands = {  # the README examples, then the largest classify
    "fixed-points": ["fixed-points", "--epsilon", "0"],
    "cocycle": ["cocycle", "--epsilon", "0.1", "--word=-", "--tol", "1e-9"],
    "sigma-delta": ["sigma-delta", "--epsilon", "-1", "--seed", "7"],
    "heights": ["heights", "--epsilon", "-1", "--seed", "7", "--tol", "1e-9"],
    "semigroup": ["semigroup", "--epsilon", "0.1", "--tol", "1e-9"],
    "suite": ["suite", "--epsilon", "-1", "--seed", "7"],
    "classify-minus-3-period-10": ["classify", "--epsilon", "-3", "--config", f"{tmp}/period-10.cfg"],
}
base = {k: v for k, v in os.environ.items() if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
count = 0


def run(tree, mode, args):
    """One spawn-to-exit run: (wall seconds, exit status)."""
    global count
    count += 1
    env = {**base, "PYTHONPATH": f"{trees[tree]}/src"}
    if mode == "no-bytecode":
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    else:
        env["PYTHONPYCACHEPREFIX"] = f"{tmp}/pycache-{tree}"
    argv = [sys.executable, "-m", "horolab.cli", *args, "--out", f"{tmp}/out-{count}"]
    start = time.perf_counter()
    code = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env).returncode
    return time.perf_counter() - start, code


result = {"ref": ref, "sha": sha, "python": platform.python_version(), "cores": os.cpu_count(), "runs": runs}
for mode in ("no-bytecode", "cached"):
    result[mode] = {}
    for name, args in commands.items():
        if mode == "cached":
            for tree in trees:
                run(tree, mode, args)
        times = {tree: [] for tree in trees}
        codes = {tree: [] for tree in trees}
        for i in range(runs):
            for tree in (("ref", "work") if i % 2 == 0 else ("work", "ref")):
                wall, code = run(tree, mode, args)
                times[tree].append(round(wall, 4))
                codes[tree].append(code)
        result[mode][name] = {
            tree: {"wall_s": times[tree], "median_s": round(statistics.median(times[tree]), 4), "exit": codes[tree]}
            for tree in trees
        }
json.dump(result, sys.stdout, indent=1)
print()
EOF
