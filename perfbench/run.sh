#!/usr/bin/env bash
# Builds the benchmark and the lmbench CLI from the sources of the
# checkout it is started in, then runs one benchmark invocation:
#
#	bash perfbench/run.sh --workload paper-mem --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Every build product, cache and
# scratch file lands under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/lmbench" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/lmbench here)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/tmp"
# Keep the Go toolchain's caches, telemetry and temp files inside the
# checkout, and stamp no VCS data so the CLI and the benchmark derive the
# same unit-cache code version whether or not the tree is a git checkout.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

go build -o "$out/lmbench" ./cmd/lmbench
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -lmbench "$out/lmbench" -work "$out/work" "$@"
