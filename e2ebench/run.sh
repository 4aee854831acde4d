#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs
# it. Arguments pass through unchanged, e.g.
#
#   bash e2ebench/run.sh --workload host-mutate --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write lands under .bench_build/ at
# the root of the checkout (Go build cache included).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$here" && go build -o "$out/e2ebench" .) >&2
cd "$root"
exec "$out/e2ebench" --out "$out/e2ebench-out" "$@"
