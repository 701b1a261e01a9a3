#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it with the given
# flags. The Go build cache and temp files are kept inside the checkout too,
# so a run reads and writes nothing outside it (beyond the Go toolchain).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(dirname "$here")/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
go build -C "$here" -buildvcs=false -o "$out/poi360-benchmark" .
exec "$out/poi360-benchmark" "$@"
