#!/bin/sh
# bigsim_smoke.sh — streaming-pipeline smoke across the validator-shards matrix.
#
# Runs `uninet bigsim` at n=10⁵ twice: one validator shard (-shards 1) and
# one per core (-shards nproc). Both runs must
#
#   1. pass the peak-bytes assertion (the stream must never materialize), and
#   2. report the pinned stream fingerprint below. The fingerprint hashes
#      the encoded step stream, which the builder produces independently of
#      the validator's shard count, so any divergence is a bug, not noise.
#
# GOMEMLIMIT makes an accidental full materialization fail loudly instead of
# silently paging. Used by `make bigsim-smoke` and CI.
set -eu

GO=${GO:-go}
BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT

# Fingerprint of the n=10⁵ stream under the exact flags of run_bigsim.
WANT_FP=77a7ccec037bea7f

$GO build -o "$BIN/uninet" ./cmd/uninet

PROCS=$(nproc 2>/dev/null || echo 2)
[ "$PROCS" -ge 1 ] || PROCS=1

run_bigsim() {
	GOMEMLIMIT=512MiB "$BIN/uninet" bigsim -n 100000 -deg 3 -hostdim 5 -steps 2 \
		-chunk-kb 256 -budget-kb 4096 -assert-peak-bytes 8388608 -seed 1 \
		-shards "$1"
}

for SHARDS in 1 "$PROCS"; do
	echo "== bigsim -shards $SHARDS =="
	OUT=$(run_bigsim "$SHARDS")
	echo "$OUT"
	FP=$(echo "$OUT" | sed -n 's/^stream fingerprint: \([0-9a-f]*\).*/\1/p')
	if [ "$FP" != "$WANT_FP" ]; then
		echo "bigsim_smoke: -shards $SHARDS fingerprint '$FP', want $WANT_FP" >&2
		exit 1
	fi
done
echo "bigsim_smoke: fingerprint $WANT_FP at validator shards {1, $PROCS}: OK"
