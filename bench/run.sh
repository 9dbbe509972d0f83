#!/usr/bin/env bash
# Builds the benchmark and the m3dd daemon from this checkout's sources and
# runs the benchmark. Run it from the repository root:
#
#   bash bench/run.sh --workload fig6-detailed --seed 42 --seconds 30 --trace 0
#
# Build products, the Go build cache and every scratch file stay under
# .bench_build/ in the checkout. The build fails, and so does this script,
# when the checkout holds no sources to build.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"

(cd "$root/bench" && go build -o "$out/bin/bench" . && go build -o "$out/bin/m3dd" vertical3d/cmd/m3dd)
exec "$out/bin/bench" -root "$root" -m3dd "$out/bin/m3dd" "$@"
