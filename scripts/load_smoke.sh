#!/bin/sh
# Load-harness smoke: two small xdxload runs (2 tenants, concurrency 8,
# both drive modes; full exchanges, then delta exchanges) that must finish
# with nonzero throughput and zero failed exchanges. Guards the whole
# control plane end to end — scheduler admission, plan-cache serving, SOAP
# Exchange wiring — the way the package tests cannot: over real loopback
# HTTP under real concurrency. Part of the merge gate (scripts/check.sh).
set -eu

cd "$(dirname "$0")/.."

OUT="${TMPDIR:-/tmp}/xdxload_smoke_$$.json"
trap 'rm -f "$OUT"' EXIT

# The second run drives repeat exchanges as deltas under the plain
# (one-attempt) policy: no -fsync, so no retries are configured.
for mode in full delta; do
	flags=""
	[ "$mode" = delta ] && flags="-delta"
	go run ./cmd/xdxload \
		-tenants 2 -concurrency 8 -ops 32 -net-latency 2ms $flags \
		-quiet -check -out "$OUT"

	# -check exits nonzero on zero throughput or any failed exchange; the
	# grep catches a silently empty report.
	grep -q '"throughput_per_s"' "$OUT" || {
		echo "load_smoke: $mode report missing throughput" >&2
		exit 1
	}
	echo "load_smoke: $mode ok ($(grep -o '"speedup_x": [0-9.]*' "$OUT" || true))"
done
