#!/usr/bin/env bash
# Builds shapebench from this checkout and runs it from the root of the
# repository with the arguments given, for example:
#
#   bash cmd/shapebench/run.sh -seed 1
#   bash cmd/shapebench/run.sh --workload explore --seed 3 --seconds 20 --trace 0
#   bash cmd/shapebench/run.sh -runs 5 -out base.json
#   bash cmd/shapebench/run.sh -compare base.json head.json
#
# Go's build cache, configuration and temporary files and the binary stay
# in .bench_build under the root, so that a run writes nothing outside the
# checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0
go -C cmd/shapebench build -o "$build/shapebench" .
exec "$build/shapebench" "$@"
