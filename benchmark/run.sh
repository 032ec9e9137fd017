#!/usr/bin/env bash
# The benchmark's one command.
#
#   benchmark/run.sh [--seed N] [--quick] [--record]
#       builds `repro` and the benchmark in release, runs every workload
#       untraced and traced, prints `workload metric value unit` lines
#       and writes benchmark/out/latest.json (+ trace.jsonl).
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is its JSON result.
#   benchmark/run.sh compare A.json B.json
#       verdict per (end-to-end metric, workload) against the bounds in
#       BENCHMARK.json; non-zero exit on any regression.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One target directory for both builds, so that the crates they share
# are compiled once and `repro` lands next to the benchmark's binary. A
# relative CARGO_TARGET_DIR is relative to the repository root.
TARGET="${CARGO_TARGET_DIR:-benchmark/target}"
case "$TARGET" in /*) ;; *) TARGET="$PWD/$TARGET" ;; esac
export CARGO_TARGET_DIR="$TARGET"

# The program the user runs, then the benchmark; build output goes to
# stderr so stdout stays the result.
cargo build --release --offline --locked -q --manifest-path Cargo.toml -p dctcp-scenario --bin repro >&2
cargo build --release --offline --locked -q --manifest-path benchmark/Cargo.toml >&2

exec "$TARGET/release/dctcp-benchmark" "$@"
