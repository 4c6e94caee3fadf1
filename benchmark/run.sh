#!/usr/bin/env bash
# The one command of the e2e_window benchmark: builds the benchmark
# package in release mode and runs it.
#
#   benchmark/run.sh                      # four workloads, then four traced runs
#   benchmark/run.sh --repeat 3           # ... three times, plus the repeatability check
#   benchmark/run.sh --workload ft16_step --seed 7 --seconds 30 --trace 0
#                                         # one run; last stdout line is the result object
#
# Flags: --workload W, --seed N, --seconds S, --trace 0|1, --repeat N.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Cargo resolves a relative CARGO_TARGET_DIR against its working
# directory; pin it so the binary is found wherever this script is
# called from.
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
  /*) ;;
  *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

# Build output goes to stderr: stdout carries only metrics.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/e2e_window" --out "$here/out" "$@"
