#!/usr/bin/env bash
# Builds perfbench from the checkout's source and runs it. Run from the
# repository root, for example:
#
#   bash perfbench/run.sh --workload paper8 --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache, the go command's own configuration
# and telemetry, and temporary files all stay under .bench_build/ in the
# current directory.
set -euo pipefail
out="$PWD/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/config"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
commit=unknown
if [ -e .git ]; then
	commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
fi
go -C perfbench build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/perfbench" .
exec "$out/perfbench" "$@"
