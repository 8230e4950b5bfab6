#!/usr/bin/env bash
# Builds the benchmark from source in this checkout and runs it:
#
#   bash wcetbench/run.sh --workload spm_sweep|cache_sweep|pareto_front \
#       --seed N --seconds S --trace 0|1
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build, relative to the repository root):
# the Go build cache, the binary and one JSON record per run.
set -euo pipefail
cd "$(dirname "$0")/.."
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOTOOLCHAIN=local
export GOCACHE="$build/wcetbench/gocache" GOMODCACHE="$build/wcetbench/gomod"
export GOPATH="$build/wcetbench/gopath" HOME="$build/wcetbench/home"
export XDG_CONFIG_HOME="$HOME/.config" XDG_CACHE_HOME="$HOME/.cache"
(cd wcetbench && go build -o "$build/wcetbench/wcetbench" .)
commit=unknown
if [ -e .git ]; then commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"; fi
exec "$build/wcetbench/wcetbench" --record-dir "$build/wcetbench/records" --commit "$commit" "$@"
