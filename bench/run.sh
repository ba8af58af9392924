#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the
# root of the repository:
#
#   bash bench/run.sh --workload serve-pairs --seed 1 --seconds 20 --trace 0
#
# The build, its Go cache and its temporary files live in .bench_build/
# at the root, so the benchmark writes nothing outside the checkout, and
# the build never reaches the network. The benchmark is a module of its
# own (bench/go.mod) that uses the repository's module through a replace
# directive; without the repository around it, the build fails and so
# does this script.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$out/wfqbench" .)
exec "$out/wfqbench" "$@"
