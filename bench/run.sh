#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it, e.g.
#
#   bash bench/run.sh --workload tenants-keepalive --seed 1 --seconds 25 --trace 0
#
# The binary and Go's build caches live under $CARGO_TARGET_DIR (default
# .bench_build in the current directory), so a run writes nothing outside
# the checkout. The build needs the repository root one level above bench/:
# a directory holding only bench/ fails here, before anything is measured.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$PWD/$out ;;
esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config GOPROXY=off GOTOOLCHAIN=local GOFLAGS=
go -C "$here" build -buildvcs=false -o "$out/stellar-bench" .
exec "$out/stellar-bench" "$@"
