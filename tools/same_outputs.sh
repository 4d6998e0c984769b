#!/usr/bin/env bash
# Check that the working tree produces byte-identical outputs to git
# revision REF.
#
#   tools/same_outputs.sh REF        (e.g. tools/same_outputs.sh HEAD~)
#
# Extracts REF into a temporary directory (git archive, so an interrupted
# run leaves nothing behind in .git) and runs, against both source trees:
# the seed-7 acceptance suite, the README examples, every other
# subcommand once with the flags it reads, the linearizer at a complex
# parameter, collinearity at both verdicts, fixed-points at a complex
# parameter, classify at periods 10, 8, 6 and 4, fixed-points, linearize
# and julia at eps = -1 - 0i (a negative zero part, which the map's
# division by 1 + 0j turns into +0 before the periodic points and the
# linearizer see it, and which the Julia sampler takes as given),
# semigroup / limit-decomp with a fixed-orbit c and with a nested junction,
# semigroup with a c longer than the post-junction window, bound-528
# at a complex parameter (the half-delta floor), heights over a wide
# shift span, heights at a complex parameter and at -3 (sampled words
# realized in lockstep where the tails stop moving and where they stay
# on the real axis), sigma-delta at a complex parameter and at -3 and
# -1.1, the real parameters of the benchmark's scan (the delta floor's
# array pass), cocycle and field at a complex parameter, where orbit
# tails stop moving within the realized depth, julia at a complex
# parameter (the sampler's start point found from epsilon, with no
# containment check), classify at -3 period 3 (points with zero
# imaginary parts), and classify at the parabolic parameters -0.75
# period 2 and -1.75 period 3 (rows of the Newton polish that stop at
# the parabolic guard, or after 5 steps).  Each command's --out tree,
# stdout, exit status and (for the suite, with its timings removed)
# stderr are collected per tree and compared with `diff -r`.
# Exit status 0 means no difference.
set -euo pipefail

ref=${1:?usage: tools/same_outputs.sh REF}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"
# an empty word_c is the fixed orbit: the one-component (degenerate) decomposition
printf '%s\n' 'word_c =' > "$tmp/fixed-c.cfg"
printf '%s\n' 'nested_junction = 35' > "$tmp/nested.cfg"
# a c longer than the post-junction window
printf '%s\n' 'word_c = --+--+--+--+' > "$tmp/long-c.cfg"
printf '%s\n' 'word_c =' 'nested_junction = 35' > "$tmp/fixed-c-nested.cfg"
printf '%s\n' 'm_span = 400' > "$tmp/wide-span.cfg"
for p in 2 3 4 6 8 10; do printf '%s\n' "period = $p" > "$tmp/period-$p.cfg"; done

run() {  # run TREE OUT NAME ARGS...: one horolab command into OUT/NAME*
    local tree=$1 out=$2 name=$3
    shift 3
    local code=0
    PYTHONPATH="$tree/src" python3 -m horolab.cli "$@" --out "$out/$name" \
        > "$out/$name.stdout" 2> "$out/$name.stderr" || code=$?
    echo "$code" > "$out/$name.exit"
    sed -i 's/ ([0-9.]*s)$//' "$out/$name.stderr"
}

run_all() {  # run_all TREE OUT
    local tree=$1 out=$2
    mkdir -p "$out"
    run "$tree" "$out" suite suite --epsilon -1 --seed 7
    run "$tree" "$out" fixed-points fixed-points --epsilon 0
    run "$tree" "$out" cocycle cocycle --epsilon 0.1 --word=- --tol 1e-9
    run "$tree" "$out" sigma-delta sigma-delta --epsilon -1 --seed 7
    run "$tree" "$out" heights heights --epsilon -1 --seed 7 --tol 1e-9
    run "$tree" "$out" semigroup semigroup --epsilon 0.1 --tol 1e-9
    run "$tree" "$out" field field --epsilon 0.1 --word=-
    run "$tree" "$out" classify classify --epsilon -1
    run "$tree" "$out" fixed-points-complex fixed-points --epsilon=-0.525,0.16
    run "$tree" "$out" classify-period-10 classify --epsilon -1.1 --config "$tmp/period-10.cfg"
    run "$tree" "$out" classify-period-8 classify --epsilon -3 --config "$tmp/period-8.cfg"
    run "$tree" "$out" classify-period-6 classify --epsilon -1.1 --config "$tmp/period-6.cfg"
    run "$tree" "$out" classify-complex-period-4 classify --epsilon=-0.525,0.16 --config "$tmp/period-4.cfg"
    run "$tree" "$out" linearize linearize --epsilon -1
    run "$tree" "$out" linearize-complex linearize --epsilon=-0.525,0.16
    run "$tree" "$out" collinearity collinearity --epsilon -3
    run "$tree" "$out" collinearity-full collinearity --epsilon -1
    run "$tree" "$out" julia julia --epsilon -1 --seed 7
    run "$tree" "$out" julia-complex julia --epsilon=-0.525,0.16 --seed 7
    run "$tree" "$out" b-epsilon b-epsilon --epsilon 0.1 --seed 7 --tol 1e-9
    run "$tree" "$out" excursions excursions --epsilon 0.1 --word=- --seed 7
    run "$tree" "$out" bound-528 bound-528 --epsilon -1 --seed 7 --tol 1e-9
    run "$tree" "$out" limit-decomp limit-decomp --epsilon 0.1 --tol 1e-9
    run "$tree" "$out" semigroup-fixed-c semigroup --epsilon 0.1 --tol 1e-9 --config "$tmp/fixed-c.cfg"
    run "$tree" "$out" semigroup-long-c semigroup --epsilon 0.1 --tol 1e-9 --config "$tmp/long-c.cfg"
    run "$tree" "$out" limit-decomp-fixed-c limit-decomp --epsilon 0.1 --tol 1e-9 --config "$tmp/fixed-c.cfg"
    run "$tree" "$out" limit-decomp-nested limit-decomp --epsilon 0.1 --tol 1e-9 --config "$tmp/nested.cfg"
    run "$tree" "$out" limit-decomp-fixed-c-nested limit-decomp --epsilon 0.1 --tol 1e-9 \
        --config "$tmp/fixed-c-nested.cfg"
    run "$tree" "$out" bound-528-complex bound-528 --epsilon=-1,0.02 --seed 7 --tol 1e-9
    run "$tree" "$out" heights-wide-span heights --epsilon -1 --seed 7 --tol 1e-9 --config "$tmp/wide-span.cfg"
    run "$tree" "$out" heights-complex heights --epsilon=-1,0.02 --seed 7 --tol 1e-9
    run "$tree" "$out" heights-minus-3 heights --epsilon -3 --seed 7 --tol 1e-9
    run "$tree" "$out" sigma-delta-complex sigma-delta --epsilon=0.1,0.02 --seed 7
    run "$tree" "$out" cocycle-complex cocycle --epsilon=-1,0.02 --word=-+- --tol 1e-12
    run "$tree" "$out" field-complex field --epsilon=-1,0.02 --word=-
    run "$tree" "$out" fixed-points-negative-zero fixed-points --epsilon=-1,-0
    run "$tree" "$out" linearize-negative-zero linearize --epsilon=-1,-0
    run "$tree" "$out" julia-negative-zero julia --epsilon=-1,-0 --seed 7
    run "$tree" "$out" sigma-delta-minus-3 sigma-delta --epsilon -3 --seed 7
    run "$tree" "$out" sigma-delta-minus-1.1 sigma-delta --epsilon -1.1 --seed 7
    run "$tree" "$out" classify-period-3 classify --epsilon -3 --config "$tmp/period-3.cfg"
    run "$tree" "$out" classify-parabolic-period-2 classify --epsilon -0.75 --config "$tmp/period-2.cfg"
    run "$tree" "$out" classify-parabolic-period-3 classify --epsilon -1.75 --config "$tmp/period-3.cfg"
}

run_all "$tmp/ref" "$tmp/out-ref"
run_all "$root" "$tmp/out-new"
if diff -r "$tmp/out-ref" "$tmp/out-new"; then
    echo "same outputs as $ref"
else
    echo "outputs differ from $ref" >&2
    exit 1
fi
