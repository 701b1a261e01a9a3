#!/bin/sh
# escape_check.sh — keep heap escapes out of the per-event packages, and
# keep their hot-path functions inlinable.
#
# Builds the hot-path packages with -gcflags=-m=2 and checks two things.
#
# Escapes: keeps the compiler's "moved to heap: <var>" diagnostics keyed by
# "file: var" (no line number, so unrelated edits above a site don't churn
# the list), and fails if a key is missing from scripts/escape_allow.txt.
# A local that escapes is one allocation per call: taking the address of
# Bus.record's Event for an observer hook once cost every emitted event 48
# bytes of garbage, unnoticed until a profile. This check makes that a
# one-line failure in review. An allow-list entry the compiler no
# longer reports is only noted: escape analysis shifts a little between
# toolchains, and a stale line is harmless.
#
# Inlining: every function in scripts/inline_must.txt must be reported
# "can inline" and never "cannot inline" (a generic function in each of
# its instantiations). A function that falls over the inliner's budget
# turns a per-event operation into a call with no other sign: when
# fifo.(*Queue).Push did, every firmware-queue enqueue paid for a call.
# Unlike an allow-list entry, a listed name the build does not report at
# all fails, so a rename cannot retire an entry silently.
set -eu

GO=${GO:-go}
export LC_ALL=C # sort and comm must agree on the collation
cd "$(dirname "$0")/.."
allow=scripts/escape_allow.txt
must=scripts/inline_must.txt
pkgs="./internal/obs ./internal/lte ./internal/simclock ./internal/network
./internal/ratecontrol ./internal/rtp ./internal/netsim ./internal/realnet
./internal/fifo ./internal/compress ./internal/seeds ./internal/session
./internal/video ./internal/projection ./internal/headmotion"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# shellcheck disable=SC2086 # pkgs is a word list
if ! "$GO" build -gcflags=-m=2 $pkgs >"$tmp/build.txt" 2>&1; then
	cat "$tmp/build.txt"
	echo "escape-check: build failed"
	exit 1
fi

# "internal/obs/obs.go:118:2: moved to heap: e" -> "internal/obs/obs.go: e"
sed -n 's/^\([^:]*\):[0-9]*:[0-9]*: moved to heap: \(.*\)$/\1: \2/p' "$tmp/build.txt" |
	sort -u >"$tmp/found.txt"
sed -e 's/[[:space:]]*#.*$//' -e '/^[[:space:]]*$/d' "$allow" | sort -u >"$tmp/allowed.txt"

comm -13 "$tmp/found.txt" "$tmp/allowed.txt" | while IFS= read -r key; do
	echo "escape-check: note: '$key' is allowed but no longer escapes; drop it from $allow"
done

comm -23 "$tmp/found.txt" "$tmp/allowed.txt" >"$tmp/new.txt"
status=0
if [ -s "$tmp/new.txt" ]; then
	while IFS= read -r key; do
		file=${key%%: *}
		var=${key#*: }
		grep -F "$file:" "$tmp/build.txt" | grep "moved to heap: $var\$" |
			sed 's/^/escape-check: new heap escape: /'
	done <"$tmp/new.txt"
	echo "escape-check: keep the value off the heap (pass it by value, build it in"
	echo "  long-lived storage, call a concrete method instead of a func value), or add"
	echo "  '<file>: <var>  # reason' to $allow if it really must outlive the call"
	status=1
fi

# "internal/fifo/fifo.go:42:6: cannot inline fifo.(*Queue[go.shape.struct
# { … }]).Push: function too complex: cost 106 exceeds budget 80" ->
# "cannot fifo.(*Queue).Push: function too complex: cost 106 exceeds budget
# 80": the verdict, the name qualified by its package (the file's
# directory) with every bracketed type argument list dropped, and for a
# refusal the compiler's reason.
awk '
function bare(s,   out, depth, i, c) {
	for (i = 1; i <= length(s); i++) {
		c = substr(s, i, 1)
		if (c == "[") depth++
		else if (c == "]") depth--
		else if (depth == 0) out = out c
	}
	return out
}
/^[^:]*:[0-9]+:[0-9]+: (can|cannot) inline / {
	n = split(substr($0, 1, index($0, ":") - 1), dir, "/")
	pkg = dir[n - 1]
	rest = $0
	sub(/^[^:]*:[0-9]+:[0-9]+: /, "", rest)
	verdict = rest ~ /^cannot/ ? "cannot" : "can"
	sub(/^(can|cannot) inline /, "", rest)
	rest = bare(rest)
	name = rest
	sub(/[ :].*$/, "", name)
	if (index(name, pkg ".") != 1) name = pkg "." name
	if (verdict == "can") print "can " name
	else print "cannot " name ": " substr(rest, index(rest, ": ") + 2)
}' "$tmp/build.txt" | sort -u >"$tmp/inline.txt"

sed -e 's/[[:space:]]*#.*$//' -e '/^[[:space:]]*$/d' "$must" | sort -u >"$tmp/must.txt"
while IFS= read -r name; do
	if grep -F "cannot $name: " "$tmp/inline.txt" | sed 's/^cannot /inline-check: cannot inline /' | grep .; then
		status=1
	elif ! grep -qxF "can $name" "$tmp/inline.txt"; then
		echo "inline-check: $name is not reported by the build (renamed, deleted or no longer compiled?)"
		status=1
	fi
done <"$tmp/must.txt"
if [ "$status" -ne 0 ]; then
	echo "escape-check: FAILED"
	echo "  (an inlining failure: move the rare path out of the function or cheapen it, the"
	echo "  costs are in 'go build -gcflags=-m=2'; a name that is no longer hot leaves $must)"
	exit 1
fi
echo "escape-check: ok ($(wc -l <"$tmp/found.txt" | tr -d ' ') allowed escapes, $(wc -l <"$tmp/must.txt" | tr -d ' ') functions inlinable)"
