#!/bin/sh
# Regenerate the golden-equivalence corpus under testdata/goldens/.
#
# The corpus pins final metrics, obs exports and snapshot fingerprints
# for every workload x config point (see golden_test.go). Regenerate it
# only after an INTENTIONAL simulation-semantics change — a hot-path or
# refactoring PR must pass against the existing corpus unchanged.
#
# It ends by listing every recorded field that moved against HEAD, one
# "file: config.field" line each, with "old → new (delta)" appended to
# each moved snapshot_bytes, then one line counting each distinct
# snapshot_bytes delta (e.g. "snapshot_bytes deltas: -8537 ×80"), so a
# uniform layout change proves itself in one line — the proof a
# deliberate re-record carries in its log.
#
# Usage: scripts/regen_goldens.sh [extra go test args]
set -eu
cd "$(dirname "$0")/.."
go test -run '^TestGoldenEquivalence$' -timeout 60m -golden-regen -count=1 "$@" .
echo "regenerated $(ls testdata/goldens/*.json | wc -l) golden files"
echo "fields moved against HEAD:"
git diff -U0 -- testdata/goldens | awk '
/^\+\+\+ / {
	# Map every line of the new file to the config object enclosing it.
	file = substr($2, 3); split("", cfg); n = 0; c = ""
	while ((getline l < file) > 0) {
		if (l ~ /^    "[^"]*": \{/) { c = l; gsub(/[" :{]/, "", c) }
		cfg[++n] = c
	}
	close(file); next
}
/^@@ / { split($3, at, ","); line = substr(at[1], 2) + 0; next }
/^--- / { next }
/^-.*"snapshot_bytes":/ { old = $NF; sub(/,$/, "", old); next }
/^\+/ {
	key = $0; sub(/^\+ */, "", key); sub(/:.*/, "", key); gsub(/"/, "", key)
	size = ""
	if (key == "snapshot_bytes") {
		v = $NF; sub(/,$/, "", v)
		d = v - old
		size = sprintf(" %d → %d (%+d)", old, v, d)
		if (!(d in count)) order[++nd] = d
		count[d]++
	}
	print "  " file ": " cfg[line] "." key size; moved++; line++
}
END {
	if (!moved) print "  none"
	if (!nd) exit
	line = "snapshot_bytes deltas:"
	for (i = 1; i <= nd; i++) line = line sprintf("%s %+d ×%d", i > 1 ? "," : "", order[i], count[order[i]])
	print line
}'
