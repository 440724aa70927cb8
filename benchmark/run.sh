#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes stays
# inside the checkout: the binary and the Go build cache under
# .bench_build/, span files under .bench_out/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local
go build -C "$here" -o "$build/remotedb-benchmark" .
exec "$build/remotedb-benchmark" "$@"
