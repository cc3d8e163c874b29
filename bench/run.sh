#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it there.
# Everything it writes (Go build cache, work directories and telemetry
# counters, binary, segment files) lands under .bench_build/ at the checkout
# root.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/rvbench" .)
cd "$root"
exec "$out/rvbench" "$@"
