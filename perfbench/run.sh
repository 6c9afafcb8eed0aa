#!/usr/bin/env bash
# Builds kgae-serve and the benchmark from source, then runs one
# workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload engine_srs --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# last line of standard output is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [[ ! -f Cargo.toml || ! -d crates/service ]]; then
    echo "perfbench: $root is not a kgae checkout (no Cargo.toml or crates/service)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p kgae-service --bin kgae-serve >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/kgae-perfbench" \
    --server "$CARGO_TARGET_DIR/release/kgae-serve" \
    --work-dir .perfbench-work "$@"
