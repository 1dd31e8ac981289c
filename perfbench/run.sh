#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run from,
# then runs it with the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload full-panel --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write goes under .bench_build.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
# The Go runtime hands freed heap back to the kernel with MADV_FREE
# rather than MADV_DONTNEED, so a heap that shrinks and grows again
# reuses its pages instead of faulting them back in. On a virtual
# machine that reports free pages to its host, each such fault costs
# host work whose price moves with the host's load. With the default, a
# 100k-row upload spent about a sixth of its time in page faults on a
# 2-vCPU AMD EPYC virtual machine (README.md, Noise).
export GODEBUG="${GODEBUG:+$GODEBUG,}madvdontneed=0"
exec "$build/perfbench" "$@"
