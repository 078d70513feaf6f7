#!/bin/sh
# report_smoke.sh — pin the paper quantities of the evaluation suite exactly.
#
# Runs `uninet report -seed 1` once on one worker (-parallel 1) and once on
# two (-parallel 2). The table output carries no timings, and every number in
# it (slowdown, ratio, k, verdicts) is a pure function of the seed, so both
# outputs must hash to the pinned sha256 below. A mismatch is a change in a
# paper quantity, not noise: re-pin only together with the change that
# explains it. Used by `make report-smoke` and CI.
set -eu

GO=${GO:-go}
BIN=$(mktemp -d)
trap 'rm -rf "$BIN"' EXIT

WANT=7f7a08e1ceda6068a89b74a6a6365ba69806fdb75783c177436dc45c1ab23bfc

sha256() {
	if command -v sha256sum >/dev/null 2>&1; then
		sha256sum | cut -d' ' -f1
	else
		shasum -a 256 | cut -d' ' -f1
	fi
}

$GO build -o "$BIN/uninet" ./cmd/uninet

for P in 1 2; do
	"$BIN/uninet" report -seed 1 -parallel "$P" > "$BIN/report-$P.txt"
	GOT=$(sha256 < "$BIN/report-$P.txt")
	if [ "$GOT" != "$WANT" ]; then
		echo "report_smoke: -parallel $P sha256 $GOT, want $WANT" >&2
		exit 1
	fi
	echo "report_smoke: -parallel $P sha256 $GOT"
done
echo "report_smoke: report -seed 1 matches the pinned sha256 at -parallel {1, 2}: OK"
