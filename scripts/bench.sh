#!/usr/bin/env bash
# Performance snapshot and gate. Builds bench_snapshot and runs it with
# this script's arguments; the binary measures every row, applies every
# gate (declared once, in crates/bench/src/bin/bench_snapshot/main.rs),
# compares the rows it tracks with the committed BENCH_fmlr.json, and
# exits 1 when anything fails.
#
#   scripts/bench.sh              # gate, and compare with BENCH_fmlr.json
#   scripts/bench.sh --update     # gate, then rewrite BENCH_fmlr.json
#   scripts/bench.sh --reps 3     # every group 3 reps (a quick look)
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release -p superc-bench --bin bench_snapshot
exec ./target/release/bench_snapshot "$@"
