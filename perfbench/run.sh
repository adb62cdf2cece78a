#!/usr/bin/env bash
# Builds mpcbfd and the benchmark driver from the sources of the checkout
# this script lives in, then runs one benchmark workload against real
# daemons. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout
# (Go build cache included). Compiling happens before the driver starts, so
# it never counts towards a measured set-up time.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/mpcbfd" ]]; then
	echo "perfbench: $root holds no mpcbfd sources to build" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOENV=off GOFLAGS= GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(cd "$root" && go build -o "$build/bin/mpcbfd" ./cmd/mpcbfd) >&2
(cd "$here" && go build -o "$build/bin/perfbench" .) >&2

commit=unknown
if [[ -e "$root/.git" ]]; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
exec "$build/bin/perfbench" \
	-daemon "$build/bin/mpcbfd" \
	-work "$build/work" \
	-config "$here/workloads.json" \
	-metrics "$root/BENCHMARK.json" \
	-src "$root" \
	-commit "$commit" \
	"$@"
