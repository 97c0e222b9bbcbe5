#!/usr/bin/env bash
# Builds the experiment binaries and the benchmark, then runs the
# benchmark from the repository root with the given arguments, e.g.
#
#   bash benchmark/run.sh --workload qcif_decode --seed 1 --seconds 10 --trace 0
#
# Both builds share one target directory ($CARGO_TARGET_DIR, default
# target/), so the benchmark finds the experiment binaries beside itself.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p eclipse-bench --bins
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
exec "$CARGO_TARGET_DIR/release/benchmark" "$@"
