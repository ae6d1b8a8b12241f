#!/usr/bin/env bash
# Builds the benchmark into <checkout>/.bench_build and runs it, so the
# go build cache, the binary and every run artefact stay inside the
# checkout. The binary (not `go run`) is exec'd: wire_durable re-executes
# it once per role process, and it must be the direct child that
# receives the driver's signals.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -C "$here" -o "$build/pdcbench" .
export PDCBENCH_ROOT="$root"
exec "$build/pdcbench" "$@"
