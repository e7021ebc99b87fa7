#!/bin/sh
# Run the bench/selfprof lane and gate it against the committed
# baseline. Usage: scripts/run_selfprof.sh [BUILD_DIR]
#
# Produces BUILD_DIR/BENCH_selfprof.json (validated before it is
# written) and fails when a baseline lane is missing from it or its
# calibration-normalized sim-cycles/s drops more than 20% below
# bench/BENCH_selfprof.json.
set -eu

build_dir="${1:-build}"
repo_dir="$(cd "$(dirname "$0")/.." && pwd)"
bin="$build_dir/bench/bench_selfprof"
out="$build_dir/BENCH_selfprof.json"

if [ ! -x "$bin" ]; then
    echo "run_selfprof: $bin not built" >&2
    exit 1
fi

"$bin" --out "$out"
"$bin" --check "$repo_dir/bench/BENCH_selfprof.json" "$out"
