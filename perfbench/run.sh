#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs one workload.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload synth-cold --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/perfbench: the Go
# build cache, the binary, per-run scratch directories and trace files.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local PERFBENCH_DIR="$out"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

if [ -d "$root/.git" ]; then
	PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD)
else
	# An exported tree has no history; name it by its Go sources instead.
	PERFBENCH_COMMIT="tree-$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi
export PERFBENCH_COMMIT

exec "$out/perfbench" "$@"
