#!/usr/bin/env sh
# Tier-1 verification: hermetic (offline) release build, campaign
# byte-identity, format gate, lint wall, and full test suite. No network,
# no registry — every dependency is an in-tree path crate.
set -eu

cd "$(dirname "$0")/.."

cargo build --release --offline
# The checked-in campaigns that regenerate at HEAD must still regenerate
# byte for byte: e13 covers TSDT and rand:1, e20 mtbf/outage timelines
# and aware/blind tag caches. e15-e18 and results/tables.txt predate
# fields or the in-tree RNG and join once their data epoch is declared.
regen="$(mktemp -d)"
trap 'rm -rf "$regen"' EXIT
for spec in e13 e19 e20; do
    ./target/release/iadm-cli sweep --spec "$spec" --threads 2 --out "$regen/$spec.json" >/dev/null
    cmp "$regen/$spec.json" "results/${spec}_campaign.json"
done
cargo fmt --all --check
cargo clippy -q --offline --all-targets -- -D warnings
cargo test -q --offline
# The campaign benchmark is a package of its own (outside the workspace)
# that compiles against the crates' public API; testing it here makes an
# API change that breaks it fail this gate rather than the benchmark run.
# Same build directory as benchmark/run.sh.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}" \
    cargo test -q --offline --manifest-path benchmark/Cargo.toml
