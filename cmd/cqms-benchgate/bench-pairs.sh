#!/usr/bin/env bash
# bench-pairs.sh runs the gated benchmark list on two checkouts of this
# module on one machine, alternating them, and writes base.out and head.out
# for `cqms-benchgate -base base.out -head head.out`.
#
# Usage: bench-pairs.sh BASE_TREE HEAD_TREE OUT_DIR
#
# Each side's test binaries are built once (go test -c -trimpath, so two
# trees holding the same code build the same binaries). Every entry of the
# list then runs 10 times per side in pairs, so the k-th result of a
# benchmark on one side and the k-th on the other ran next to each other;
# cqms-benchgate's rule is set for these 10 pairs. Pairs 2j-1 and 2j run in
# opposite orders, so each side runs first in 5 pairs of every entry; which
# of the two runs base first is bit j of the entry's checksum (cksum). The
# order is the same on every run of the script and differs from entry to
# entry, so no side runs first in the same pairs through the whole list.
# (One bit of a checksum of the entry and the pair number together would not
# do: a CRC is linear, so that bit splits the entries into two classes with
# opposite orders.) A package one tree does not have runs on the other side
# alone.
#
# A benchmark that fails or panics on the head side stops the script with
# the test binary's exit status. One that fails on the base side (or a base
# package that does not build) does not: a warning is printed, that entry's
# base output goes to base.failed.out instead of base.out, and its results
# are head only, so a change that mends a benchmark broken at the
# merge-base can pass.
set -euo pipefail

[ $# -eq 3 ] || { sed -n '2,27p' "$0"; exit 2; }
base=$(cd "$1" && pwd)
head=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
pairs=10

# package, benchmark regexp, flags beyond -test.benchmem. Benchmarks that
# build a large fixture per iteration, or whose store grows with b.N, run a
# fixed iteration count. SearchAtSize, whose sub-benchmarks take from 1 µs to
# 5 ms an op, times each for 500 ms: a fixed count that suits one leaves the
# others a window of a few milliseconds, which a shared host's noise swamps.
list=(
	". ^(BenchmarkE3CompletionIncremental|BenchmarkConcurrentMetaQuery|BenchmarkConcurrentSnapshotScan|BenchmarkHTTPSearchKeyword|BenchmarkHTTPSubmitBatch|BenchmarkHTTPSubmitBatchInstrumented|BenchmarkTelemetryCounterHotPath|BenchmarkWALAppend|BenchmarkOpenLoopIngest)$"
	"./internal/profiler ^BenchmarkProfilerSubmit$"
	"./internal/engine ^BenchmarkEngineExecute$"
	"./internal/wal ^BenchmarkLogAppend$"
	"./internal/storage ^BenchmarkMutationCodec$"
	"./internal/storage ^BenchmarkCommit$ -test.benchtime=100000x"
	"./internal/storage ^BenchmarkPutRepeatedText$ -test.benchtime=1x"
	"./internal/storage ^BenchmarkShapeOf$"
	"./internal/storage ^BenchmarkDeleteAt$ -test.benchtime=20000x"
	"./internal/wal ^BenchmarkSnapshotWriteRestore$ -test.benchtime=3x"
	"./internal/pgwire ^(BenchmarkProxySplice|BenchmarkProxyCaptureOverhead)$"
	". ^(BenchmarkRecovery|BenchmarkReplicaCatchUp)$ -test.benchtime=2x"
	"./internal/stats ^BenchmarkStatsReadAt1MUsers$ -test.benchtime=1000x"
	"./internal/stats ^BenchmarkStatsRebuild$ -test.benchtime=5x"
	"./internal/stats ^BenchmarkStatsApply$ -test.benchtime=200000x"
	"./internal/metaquery ^BenchmarkSearchAtSize$ -test.benchtime=500ms"
	"./internal/session ^(BenchmarkLiveApply|BenchmarkLiveSummaries)$ -test.benchtime=50000x"
	"./internal/session ^BenchmarkSessionGraph$"
	"./internal/miner ^(BenchmarkFeedRefresh|BenchmarkFeedAdd)$"
	"./internal/server ^BenchmarkResponseCodec$"
)

binary() {
	local name=${2#./}
	[ "$name" != . ] || name=root
	echo "$out/bin/$1/${name//\//_}.test"
}
build() { (cd "${!1}" && go test -c -trimpath -o "$(binary "$1" "$2")" "$2"); }
# shellcheck disable=SC2086 # $4 (flags) is a word list
run() { (cd "${!1}/$2" && "$(binary "$1" "$2")" -test.run '^$' -test.bench "$3" -test.benchmem -test.timeout=30m $4); }
warn() { echo "bench-pairs: WARNING: $*" >&2; }

rm -rf "$out/bin"

for pkg in $(printf '%s\n' "${list[@]}" | cut -d' ' -f1 | sort -u); do
	for side in base head; do
		tree=${!side}
		if [ ! -d "$tree/$pkg" ]; then
			echo "bench-pairs: $pkg is not in the $side tree" >&2
		elif [ "$side" = head ]; then
			build head "$pkg"
		elif ! build base "$pkg"; then
			warn "$pkg does not build on the base side; its results are head only"
		fi
	done
done

: >"$out/base.out"
: >"$out/head.out"
: >"$out/base.failed.out"
for entry in "${list[@]}"; do
	read -r pkg bench flags <<<"$entry"
	onbase=yes
	[ -x "$(binary base "$pkg")" ] || onbase=no
	: >"$out/entry.base"
	sum=$(printf '%s' "$entry" | cksum | cut -d' ' -f1)
	for i in $(seq 1 "$pairs"); do
		order="base head"
		[ $((((sum >> ((i + 1) / 2)) ^ (i + 1)) & 1)) -eq 0 ] || order="head base"
		for side in $order; do
			if [ "$side" = head ]; then
				[ ! -x "$(binary head "$pkg")" ] || run head "$pkg" "$bench" "$flags" >>"$out/head.out"
			elif [ $onbase = yes ] && ! run base "$pkg" "$bench" "$flags" >>"$out/entry.base" 2>&1; then
				warn "$pkg $bench failed on the base side; its results are head only (see base.failed.out)"
				onbase=failed
			fi
		done
	done
	case $onbase in
	yes) cat "$out/entry.base" >>"$out/base.out" ;;
	failed) cat "$out/entry.base" >>"$out/base.failed.out" ;;
	esac
	echo "bench-pairs: $pkg $bench done at ${SECONDS}s" >&2
done
rm -f "$out/entry.base"
