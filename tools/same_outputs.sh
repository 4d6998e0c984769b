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
# parameter, classify at periods 10, 8, 6 and 4, fixed-points, linearize,
# julia and classify at period 4 at eps = -1 - 0i (a negative zero part,
# which every layer takes as parsed, through the row passes of the
# periodic points at periods 1 and 4),
# semigroup / limit-decomp with a fixed-orbit c and with a nested junction,
# semigroup with a c longer than the post-junction window, bound-528
# at a complex parameter (the half-delta floor), heights over a wide
# shift span, heights at a complex parameter and at -3 (sampled words
# realized in lockstep where the tails stop moving and where they stay
# on the real axis), heights with 60 words of length <= 6 (60 of the 63
# normalized prefixes, so many draw rounds, most draws repeats),
# sigma-delta at a complex parameter and at -3 and -1.1, the real
# parameters of the benchmark's scan (the delta floor's array pass),
# sigma-delta at -1.9 and at -1.9 + 0.2i (sigma bisected at
# a real and at a complex parameter, where the bisection stops once its
# midpoint stops moving), cocycle and field at a complex parameter, where orbit
# tails stop moving within the realized depth, julia at a complex
# parameter (the sampler's start point found from epsilon, with no
# containment check), classify at -3 period 3 (points with zero
# imaginary parts), and classify at the parabolic parameters -0.75
# period 2 and -1.75 period 3 (rows of the Newton polish that stop at
# the parabolic guard, or after 5 steps), and the linearizer disk's
# decisions: linearize at 0.1 (the critical value halves the first
# disk), at 0.2499999 (many halvings, and the widest gap between the
# polished and the exact fixed point) and at 1e-300i, and collinearity
# at 0.2 with depth 12, and three julia cases from the distinguished fixed
# point:
#   julia at -3: a real Julia set, whose points have imaginary parts 0;
#   julia at -0.75 + 0.1i: a start point whose real part an Aberth solve misses by 1 ulp;
#   julia at 0.25: no distinguished fixed point, the error path.
# Two more where sigma is bisected, the regula falsi bracket deciding the
# midpoints far from the edge:
#   sigma-delta at -3 + 0.3i: a complex parameter;
#   cocycle at -1.9 with word -+: a command other than sigma-delta.
# Seven on the periodic-point solver's paths:
#   classify at -0.525 + 0.16i period 8: the slowest Aberth solve of the
#     benchmark's scan (14 iterations);
#   classify at -1.25 period 4: a double root, so the clustering loop;
#   classify at -2 period 8: the merge that ends in a ConstructionError;
#   classify at 1e25 period 3: the Newton walk's escape test failing, so
#     the masked walk;
#   classify at 1e40 period 2: |epsilon| beyond the escape modulus;
#   fixed-points at -3.5 and at 0.25: period 1 in closed form (a real
#     parameter's fixed points, and the double fixed point at 1/4).
# Three on either side of the branch words' regime (real epsilon below
# -2.368..., where the inverse branches contract):
#   classify at -3 period 10 and at -2.5 period 8: the branch words;
#   classify at -2.3 period 8: just outside the regime, the Aberth solve.
# Each command's --out tree,
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
printf '%s\n' 'n_words = 60' 'max_len = 6' > "$tmp/many-rounds.cfg"
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
    run "$tree" "$out" heights-many-rounds heights --epsilon -1 --seed 7 --tol 1e-9 --config "$tmp/many-rounds.cfg"
    run "$tree" "$out" sigma-delta-complex sigma-delta --epsilon=0.1,0.02 --seed 7
    run "$tree" "$out" cocycle-complex cocycle --epsilon=-1,0.02 --word=-+- --tol 1e-12
    run "$tree" "$out" field-complex field --epsilon=-1,0.02 --word=-
    run "$tree" "$out" fixed-points-negative-zero fixed-points --epsilon=-1,-0
    run "$tree" "$out" linearize-negative-zero linearize --epsilon=-1,-0
    run "$tree" "$out" julia-negative-zero julia --epsilon=-1,-0 --seed 7
    run "$tree" "$out" classify-negative-zero-period-4 classify --epsilon=-1,-0 --config "$tmp/period-4.cfg"
    run "$tree" "$out" sigma-delta-minus-3 sigma-delta --epsilon -3 --seed 7
    run "$tree" "$out" sigma-delta-minus-1.1 sigma-delta --epsilon -1.1 --seed 7
    run "$tree" "$out" sigma-delta-minus-1.9 sigma-delta --epsilon -1.9 --seed 7
    run "$tree" "$out" sigma-delta-complex-bisected sigma-delta --epsilon=-1.9,0.2 --seed 7
    run "$tree" "$out" classify-period-3 classify --epsilon -3 --config "$tmp/period-3.cfg"
    run "$tree" "$out" classify-parabolic-period-2 classify --epsilon -0.75 --config "$tmp/period-2.cfg"
    run "$tree" "$out" classify-parabolic-period-3 classify --epsilon -1.75 --config "$tmp/period-3.cfg"
    run "$tree" "$out" linearize-critical-value linearize --epsilon 0.1
    run "$tree" "$out" linearize-near-parabolic linearize --epsilon 0.2499999
    run "$tree" "$out" linearize-tiny-imaginary linearize --epsilon=0,1e-300
    run "$tree" "$out" collinearity-depth-12 collinearity --epsilon 0.2 --depth 12
    run "$tree" "$out" julia-real julia --epsilon -3 --seed 7
    run "$tree" "$out" julia-moved-start julia --epsilon=-0.75,0.1 --seed 7
    run "$tree" "$out" julia-no-fixed-point julia --epsilon 0.25 --seed 7
    run "$tree" "$out" sigma-delta-complex-minus-3 sigma-delta --epsilon=-3,0.3 --seed 7
    run "$tree" "$out" cocycle-bisected-sigma cocycle --epsilon -1.9 --word=-+
    run "$tree" "$out" classify-complex-period-8 classify --epsilon=-0.525,0.16 --config "$tmp/period-8.cfg"
    run "$tree" "$out" classify-double-root-period-4 classify --epsilon -1.25 --config "$tmp/period-4.cfg"
    run "$tree" "$out" classify-merged-period-8 classify --epsilon -2 --config "$tmp/period-8.cfg"
    run "$tree" "$out" classify-escaping-period-3 classify --epsilon 1e25 --config "$tmp/period-3.cfg"
    run "$tree" "$out" classify-huge-epsilon-period-2 classify --epsilon 1e40 --config "$tmp/period-2.cfg"
    run "$tree" "$out" fixed-points-real fixed-points --epsilon -3.5
    run "$tree" "$out" fixed-points-parabolic fixed-points --epsilon 0.25
    run "$tree" "$out" classify-branch-words-period-10 classify --epsilon -3 --config "$tmp/period-10.cfg"
    run "$tree" "$out" classify-branch-words-period-8 classify --epsilon -2.5 --config "$tmp/period-8.cfg"
    run "$tree" "$out" classify-outside-the-branch-words classify --epsilon -2.3 --config "$tmp/period-8.cfg"
}

run_all "$tmp/ref" "$tmp/out-ref"
run_all "$root" "$tmp/out-new"
if diff -r "$tmp/out-ref" "$tmp/out-new"; then
    echo "same outputs as $ref"
else
    echo "outputs differ from $ref" >&2
    exit 1
fi
