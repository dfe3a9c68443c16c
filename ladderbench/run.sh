#!/usr/bin/env bash
# Builds ladderbench from source inside the checkout and runs it with the
# given arguments. Run it from the repository root:
#
#   bash ladderbench/run.sh --workload listing-many-docs --seed 1 --seconds 15 --trace 0
#
# Everything it writes — the Go build cache, the go command's own files,
# the binary, temp dirs and result files — stays under
# .bench_build/ladderbench in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/ladderbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOWORK=off GOTOOLCHAIN=local
(cd "$root/ladderbench" && go build -o "$out/ladderbench" .)
exec "$out/ladderbench" "$@"
