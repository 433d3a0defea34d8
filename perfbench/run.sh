#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; every argument is passed through to the benchmark binary:
#
#	bash perfbench/run.sh --workload kv-inproc-mixed --seed 1 --seconds 10 --trace 0
#
# The build cache, temporary files, the binary and the benchmark's
# scratch data all stay under .bench_build in the current directory.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -scratch "$out" "$@"
