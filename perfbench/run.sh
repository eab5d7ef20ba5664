#!/usr/bin/env bash
# Build the synthesize-job benchmark from source and run it.
#
#   bash perfbench/run.sh --workload sweep_cold --seed 1 --seconds 10 --trace 0
#
# Run from the repository root.  The build goes to .bench_build/perfbench
# (ignored by git); build output goes to stderr so the last line of stdout
# is the benchmark's JSON result.  Exits non-zero, printing no result, when
# the sources or the build are missing.
set -euo pipefail

build_root="${CARGO_TARGET_DIR:-.bench_build}"
build_dir="$build_root/perfbench"

cmake -S perfbench -B "$build_dir" >&2
cmake --build "$build_dir" --target losynth_perfbench -j 4 >&2

exec "$build_dir/losynth_perfbench" --scratch "$build_root/perfbench-run" "$@"
