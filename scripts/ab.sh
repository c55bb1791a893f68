#!/usr/bin/env bash
# Compares the campaign benchmark at a parent revision with the working
# tree, in alternating pairs.
#
#   scripts/ab.sh <rev> <workload> [pairs] [benchmark flags...]
#   scripts/ab.sh <rev> all [pairs] [benchmark flags...]
#
# e.g. scripts/ab.sh HEAD~1 lowload_n8192 10 --seconds 15 --seed 11
#
# `all` runs the pairs for every workload of BENCHMARK.json in turn and
# prints one table per workload, so a change's no-regression check is
# one command (e.g. scripts/ab.sh HEAD~1 all 4 --seconds 15 --seed 11).
#
# The parent is exported with `git archive` (local, no network) into
# target/ab/<rev-hash>/tree, which is removed on exit. Each side's
# unmodified `iadm-benchmark` binary is built into a target directory of
# its own (target/ab/<rev-hash>/build and target/ab/head), so rebuilds
# are incremental. Pair i runs the parent first when i is odd and the
# change first when i is even; each side runs from its own tree root.
# Flags after [pairs] go to both sides' `--workload <workload>` runs.
#
# Prints every run's result line, then per end-to-end metric of
# BENCHMARK.json: each side's median and quartiles, the median of the
# per-pair change/parent ratios, how many pairs favoured the change
# (ties favour neither side), the two-sided sign-test p-value of that
# count over the untied pairs, and a verdict: `resolved` when p <= 0.05,
# `unresolved` otherwise. On this kind of shared host the same binary's
# runs/s can move by a quarter between invocations, so a median ratio
# without the verdict settles nothing. Exits nonzero if any run of any
# workload reported `"correct":false`.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 2 ] || {
    echo "usage: scripts/ab.sh <rev> <workload|all> [pairs] [benchmark flags...]" >&2
    exit 2
}
rev=$(git rev-parse --verify "$1^{commit}")
workloads=$2
if [ "$workloads" = all ]; then
    # The workload entries are the ones that say why they are there.
    workloads=$(grep '"why"' BENCHMARK.json | sed -E 's/.*"name": *"([^"]+)".*/\1/')
fi
pairs=${3:-10}
shift $(($# < 3 ? $# : 3))
root=$PWD
ab="$root/target/ab"
tree="$ab/$rev/tree"

rm -rf "$tree"
mkdir -p "$tree"
trap 'rm -rf "$tree"' EXIT
git archive "$rev" | tar -x -C "$tree"

build() { # <source tree> <target dir>
    (cd "$1" && CARGO_TARGET_DIR="$2" cargo build --release --offline --quiet \
        --manifest-path benchmark/Cargo.toml >&2)
}
build "$tree" "$ab/$rev/build"
build "$root" "$ab/head"

# <side> <tree> <binary> [flags...]: one invocation of $workload;
# appends its result line to $ab/<side>.jsonl.
run() {
    local side=$1 dir=$2 bin=$3 line
    shift 3
    line=$(cd "$dir" && "$bin" --workload "$workload" "$@" 2>/dev/null | tail -n 1)
    echo "$side $line"
    echo "$line" >>"$ab/$side.jsonl"
}
parent_bin="$ab/$rev/build/release/iadm-benchmark"
change_bin="$ab/head/release/iadm-benchmark"

# The end-to-end metrics and their directions, as BENCHMARK.json lists
# them (only those entries carry a regression bound).
metrics=$(grep '"bound"' BENCHMARK.json |
    sed -E 's/.*"name": *"([^"]+)".*"better": *"([^"]+)".*/\1 \2/')
value() { # <metric> <jsonl file>: one value per line
    sed -E "s/.*\"$1\":\\{\"value\":([^,}]+).*/\\1/" "$2"
}

# Prints $workload's table from its pairs in $ab/<side>.jsonl.
table() {
    echo "$workload: parent $rev vs working tree, $pairs pairs"
    printf '%-16s %-40s %-40s %9s %-9s %-7s %s\n' metric "parent median [q1, q3]" \
        "change median [q1, q3]" ratio favoured p verdict
    echo "$metrics" | while read -r name better; do
        paste <(value "$name" "$ab/parent.jsonl") <(value "$name" "$ab/change.jsonl") |
            awk -v name="$name" -v better="$better" '
            function sorted(a, n,   i, j, t) {
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
            }
            function q(a, n, p,   x, k) { x = 1 + p * (n - 1); k = int(x); return k >= n ? a[n] : a[k] + (x - k) * (a[k + 1] - a[k]) }
            # Two-sided sign test: P(|X - m/2| >= |k - m/2|) for X ~ Bin(m, 1/2).
            function sign_p(k, m,   lo, i, c, tail) {
                if (m == 0) return 1
                lo = k < m - k ? k : m - k
                c = 1; tail = 0
                for (i = 0; i <= lo; i++) { tail += c; c = c * (m - i) / (i + 1) }
                tail = 2 * tail / 2 ^ m
                return tail > 1 ? 1 : tail
            }
            {
                n++; p[n] = $1; c[n] = $2; r[n] = $1 == 0 ? 0 : $2 / $1
                if ((better == "higher" && $2 > $1) || (better == "lower" && $2 < $1)) won++
                else if ($2 != $1) lost++
            }
            END {
                sorted(p, n); sorted(c, n); sorted(r, n)
                pv = sign_p(won, won + lost)
                printf "%-16s %-40s %-40s %9.4f %-9s %-7.4f %s\n", name,
                    sprintf("%.6g [%.6g, %.6g]", q(p, n, .5), q(p, n, .25), q(p, n, .75)),
                    sprintf("%.6g [%.6g, %.6g]", q(c, n, .5), q(c, n, .25), q(c, n, .75)),
                    q(r, n, .5), sprintf("%d/%d", won, n), pv, pv <= 0.05 ? "resolved" : "unresolved"
            }'
    done
}

failed=0
for workload in $workloads; do
    rm -f "$ab/parent.jsonl" "$ab/change.jsonl"
    for i in $(seq 1 "$pairs"); do
        if [ $((i % 2)) -eq 1 ]; then
            run parent "$tree" "$parent_bin" "$@"
            run change "$root" "$change_bin" "$@"
        else
            run change "$root" "$change_bin" "$@"
            run parent "$tree" "$parent_bin" "$@"
        fi
    done
    table
    if grep -q '"correct":false' "$ab/parent.jsonl" "$ab/change.jsonl"; then
        echo "$workload: some runs failed validation" >&2
        failed=1
    fi
done
exit "$failed"
