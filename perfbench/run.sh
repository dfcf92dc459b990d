#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given
# arguments from the repository root. Build outputs, the Go build cache
# and anything else the toolchain writes stay under .bench_build, and
# traced runs write under .bench_out, both inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/home" "$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOPATH="$build/home/go" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -trimpath -buildvcs=false -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
