#!/bin/sh
# bigsim_smoke.sh — streaming-pipeline smoke at n=10⁵.
#
# Runs `uninet bigsim` at n=10⁵ once. The run must
#
#   1. pass the peak-bytes assertion (the stream must never materialize), and
#   2. report the pinned stream fingerprint below. The fingerprint hashes
#      the encoded step stream, so any divergence is a schedule change, not
#      noise.
#
# GOMEMLIMIT makes an accidental full materialization fail loudly instead of
# silently paging. Used by `make bigsim-smoke` and CI.
set -eu

GO=${GO:-go}
BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT

# Fingerprint of the n=10⁵ stream under the exact flags below.
WANT_FP=77a7ccec037bea7f

$GO build -o "$BIN/uninet" ./cmd/uninet

echo "== bigsim -n 100000 =="
OUT=$(GOMEMLIMIT=512MiB "$BIN/uninet" bigsim -n 100000 -deg 3 -hostdim 5 -steps 2 \
	-chunk-kb 256 -budget-kb 4096 -assert-peak-bytes 8388608 -seed 1)
echo "$OUT"
FP=$(echo "$OUT" | sed -n 's/^stream fingerprint: \([0-9a-f]*\).*/\1/p')
if [ "$FP" != "$WANT_FP" ]; then
	echo "bigsim_smoke: fingerprint '$FP', want $WANT_FP" >&2
	exit 1
fi
echo "bigsim_smoke: fingerprint $WANT_FP: OK"
