#!/usr/bin/env bash
# Builds the benchmark and runs it.
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run of one workload; the last line of output is its result
#   bash benchmark/run.sh [--seed <n>]
#       every workload, untraced and traced; writes benchmark/out/results.json
#   bash benchmark/run.sh --repeat-check
#       the whole set twice; fails if the two disagree
#
# The build is offline and lands in $CARGO_TARGET_DIR if that is set, in
# benchmark/target otherwise. Nothing is run if the build fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
start=$SECONDS

# Cargo's progress goes to stderr only if the build fails, so that a run's
# output is the benchmark's output.
if ! build_log="$(cargo build --release --offline --manifest-path "$here/Cargo.toml" 2>&1)"; then
    echo "$build_log" >&2
    echo "benchmark: build failed" >&2
    exit 3
fi

# A relative CARGO_TARGET_DIR is relative to the directory cargo ran in.
target="${CARGO_TARGET_DIR:-$here/target}"
status=0
"$target/release/schemble-benchmark" --out-dir "$here/out" "$@" || status=$?
echo "benchmark: $((SECONDS - start)) s including the build" >&2
exit "$status"
