#!/usr/bin/env bash
# Builds cmd/ojoinserver and the perfbench command from the source in the
# current directory (the repository root), then runs perfbench with the
# given arguments:
#
#   bash perfbench/run.sh --workload smj-local --seed 1 --seconds 38 --trace 0
#
# Everything the build and the run write goes under $CARGO_TARGET_DIR, or
# .bench_build when it is unset: Go's build cache, the binaries, server
# logs and data directories, and the ledger of a traced run.
set -euo pipefail

root=$(pwd)
if [ ! -f go.mod ] || [ ! -d cmd/ojoinserver ] || [ ! -f perfbench/go.mod ]; then
	echo "run.sh: run it from the repository root; go.mod or cmd/ojoinserver is missing here" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/bin" "$out/tmp" "$out/config/go/telemetry"

# Keep the toolchain's cache, temporary files and config reads/writes
# inside the build directory, and never fetch a module or toolchain.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command reads its telemetry mode from this file, not from the
# environment; in its default mode it starts a detached child process that
# outlives the build.
echo off >"$out/config/go/telemetry/mode"
go build -o "$out/bin/ojoinserver" ./cmd/ojoinserver >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" --server-bin "$out/bin/ojoinserver" --workdir "$out/work" "$@"
