#!/usr/bin/env bash
# The benchmark's one entry point: build, then run.
#
#   bench/run.sh                       every workload (seed 11), then the traced run
#   bench/run.sh --workload W --seed N --seconds S --trace 0|1
#                                      one run; last stdout line is the result object
#   bench/run.sh <sbcc-bench args>     anything else sbcc-bench accepts (compare, ladder, ...)
#
# Results go under bench/out/ only (git-ignored), so a run never dirties the tree.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# Cargo's progress goes to stderr; stdout stays the benchmark's own.
cargo build --release --offline --manifest-path bench/Cargo.toml 1>&2
bin="${CARGO_TARGET_DIR:-bench/target}/release/sbcc-bench"

if [ "$#" -eq 0 ]; then
    "$bin" run --all --seed 11
    exec "$bin" trace --seed 11
fi
exec "$bin" "$@"
