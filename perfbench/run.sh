#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload tcp-silos --seed 1 --seconds 30 --trace 0
#
# Everything the build writes stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOENV=off XDG_CONFIG_HOME="$build/config" \
  GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOTELEMETRY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
if git -C "$root" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  PERFBENCH_COMMIT="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
  if [ -n "$(git -C "$root" status --porcelain 2>/dev/null)" ]; then PERFBENCH_DIRTY=true; else PERFBENCH_DIRTY=false; fi
  export PERFBENCH_COMMIT PERFBENCH_DIRTY
fi
cd "$root"
exec "$build/perfbench" "$@"
