#!/usr/bin/env bash
# Builds madperf once into the checkout's .bench_build directory and execs
# it, so the benchmark is one foreground process: nothing is left running
# when the command returns. Everything the build writes (Go build cache,
# module cache, toolchain config) is redirected inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off
unset XDG_CONFIG_HOME XDG_CACHE_HOME GOENV GOMODCACHE
(cd "$here" && go build -o "$build/madperf" .)
exec "$build/madperf" "$@"
