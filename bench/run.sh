#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache, the
# toolchain's temporary files and its telemetry counters included, so
# nothing is written outside the checkout) and runs it from the
# repository root with the arguments given. See bench/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
(
	cd "$here"
	export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
	export GOTOOLCHAIN=local GOWORK=off
	go build -o "$build/srlb-perfbench" .
)
cd "$root"
exec "$build/srlb-perfbench" "$@"
