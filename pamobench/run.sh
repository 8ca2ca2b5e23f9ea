#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Every build
# artifact, cache and temporary file stays under .bench_build/.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false

commit="$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short=12 HEAD 2>/dev/null || echo unknown)"
(cd pamobench && go build -ldflags "-X main.commit=$commit" -o "$out/bin/pamobench" .)
exec "$out/bin/pamobench" "$@"
