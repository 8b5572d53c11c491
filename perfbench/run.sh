#!/usr/bin/env bash
# Builds the benchmark program plus the simserver and simrouter binaries
# from the sources of the checkout it is run in, then runs the benchmark
# with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload interactive --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and run directory stays under .bench_build/ in
# the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/simserver" || ! -f "$root/perfbench/go.mod" ]]; then
  echo "perfbench: run from the repository root (need go.mod, cmd/simserver and perfbench/)" >&2
  exit 2
fi

# Keep the toolchain's caches, temporary files and per-user state (such as
# telemetry counters under the config directory) inside the checkout.
work="$root/.bench_build/perfbench"
mkdir -p "$work/bin" "$work/tmp" "$work/home"
export HOME="$work/home" XDG_CONFIG_HOME="$work/home/.config" XDG_CACHE_HOME="$work/home/.cache" \
  GOCACHE="$work/gocache" GOMODCACHE="$work/gomod" GOPATH="$work/gopath" \
  GOTMPDIR="$work/tmp" TMPDIR="$work/tmp" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off GOWORK=off

(cd "$root/perfbench" && go build -o "$work/bin/" . riscvsim/cmd/simserver riscvsim/cmd/simrouter)
exec "$work/bin/perfbench" --root "$root" --bin "$work/bin" --work "$work" "$@"
