#!/usr/bin/env bash
# Builds cardirectd and the benchmark from the checkout this script sits in,
# then runs one workload:
#
#   bash perfbench/run.sh --workload read_mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the checkout's build
# directory (CARGO_TARGET_DIR when set, else .bench_build): the Go build
# cache, the binaries, the daemons' data directories and the result files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || ! grep -qx 'module cardirect' go.mod || [ ! -d cmd/cardirectd ]; then
	echo "perfbench: $root holds no cardirect source tree to build" >&2
	exit 2
fi

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOTELEMETRY=off

go build -o "$build/bin/cardirectd" ./cmd/cardirectd
(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" -bin "$build/bin/cardirectd" -out "$build/perfbench" "$@"
