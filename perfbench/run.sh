#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it with the
# given arguments, from the checkout root. Everything the build writes
# (binary, Go build cache) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS=
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
(cd "$root/perfbench" && go build -buildvcs=false -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
