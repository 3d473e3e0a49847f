#!/usr/bin/env bash
# Builds blud, blufleet and the benchmark generator from this checkout,
# then runs one workload:
#
#   bash servebench/run.sh --workload solve|refresh|fleet --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ there.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/blud || ! -d cmd/blufleet || ! -f servebench/go.mod ]]; then
	echo "servebench: run from the root of a BLU checkout (go.mod, cmd/blud, cmd/blufleet)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gopath" "$build/config" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off CGO_ENABLED=0

go build -o "$build/bin/" ./cmd/blud ./cmd/blufleet
(cd servebench && go build -o "$build/bin/servebench" .)

exec "$build/bin/servebench" -bin "$build/bin" -work "$build/run" "$@"
