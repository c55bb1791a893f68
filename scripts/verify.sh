#!/usr/bin/env sh
# Tier-1 verification: hermetic (offline) release build, format gate,
# lint wall, and full test suite. No network, no registry — every
# dependency is an in-tree path crate.
set -eu

cd "$(dirname "$0")/.."

cargo build --release --offline
cargo fmt --all --check
cargo clippy -q --offline --all-targets -- -D warnings
cargo test -q --offline
# The campaign benchmark is a package of its own (outside the workspace)
# that compiles against the crates' public API; testing it here makes an
# API change that breaks it fail this gate rather than the benchmark run.
# Same build directory as benchmark/run.sh.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target/benchmark}" \
    cargo test -q --offline --manifest-path benchmark/Cargo.toml
