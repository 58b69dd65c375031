#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
# Run from the repository root:
#   bash tcbench/run.sh --workload exact-sweep --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (compiler cache, temporaries, the binary)
# stays under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
if ! grep -qx 'module tcsim' "$root/go.mod" 2>/dev/null; then
	echo "tcbench: run from the tcsim repository root (no tcsim go.mod in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local

go -C "$here" build -o "$out/tcbench" .
exec "$out/tcbench" "$@"
