#!/usr/bin/env bash
# Builds the campaign benchmark offline in release mode, then runs it from
# the repository root.
#
#   benchmark/run.sh [--seed S] [--repeat K] [--seconds T] [--trace] [--json P]
#       every workload K times (seeds S..S+K-1): median, quartiles and
#       spread of each metric (and, with --json, a summary file at P);
#       exits nonzero if any run failed validation
#   benchmark/run.sh --workload <name> [--seed S] [--seconds T] [--trace 0|1]
#       one invocation; the last line of its output is the JSON result
#
# The build goes to $CARGO_TARGET_DIR, by default target/benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
bin="$CARGO_TARGET_DIR/release/iadm-benchmark"
case " $* " in
*" --workload "*) exec "$bin" "$@" ;;
*) exec "$bin" spread "$@" ;;
esac
