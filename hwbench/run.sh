#!/usr/bin/env bash
# Builds the release `hotwire` binary and the benchmark harness from the
# checkout this script sits in, then runs one benchmark workload:
#
#   bash hwbench/run.sh --workload grid-picard --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last stdout line of hwbench is the JSON
# result. Both builds land in $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p hotwire --bin hotwire >&2
cargo build --release --offline --quiet --manifest-path hwbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/hwbench" \
    --hotwire "$CARGO_TARGET_DIR/release/hotwire" \
    --work "$CARGO_TARGET_DIR/hwbench-work" \
    "$@"
