#!/bin/sh
# escape_check.sh — keep heap escapes out of the per-event packages.
#
# Builds the hot-path packages with -gcflags=-m, keeps the compiler's
# "moved to heap: <var>" diagnostics keyed by "file: var" (no line number,
# so unrelated edits above a site don't churn the list), and fails if a key
# is missing from scripts/escape_allow.txt. A local that escapes is one
# allocation per call: PR 9 took the address of Bus.record's Event for an
# observer hook and every emitted event cost 48 bytes of garbage for two
# PRs, unnoticed until a profile. This check makes that a one-line failure
# in review.
#
# An allow-list entry the compiler no longer reports is only noted: escape
# analysis shifts a little between toolchains, and a stale line is harmless.
set -eu

GO=${GO:-go}
export LC_ALL=C # sort and comm must agree on the collation
cd "$(dirname "$0")/.."
allow=scripts/escape_allow.txt
pkgs="./internal/obs ./internal/lte ./internal/simclock ./internal/network
./internal/ratecontrol ./internal/rtp ./internal/netsim ./internal/realnet
./internal/fifo ./internal/compress"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# shellcheck disable=SC2086 # pkgs is a word list
if ! "$GO" build -gcflags=-m $pkgs >"$tmp/build.txt" 2>&1; then
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
if [ -s "$tmp/new.txt" ]; then
	while IFS= read -r key; do
		file=${key%%: *}
		var=${key#*: }
		grep -F "$file:" "$tmp/build.txt" | grep "moved to heap: $var\$" |
			sed 's/^/escape-check: new heap escape: /'
	done <"$tmp/new.txt"
	echo "escape-check: FAILED — keep the value off the heap (pass it by value, build it in"
	echo "  long-lived storage, call a concrete method instead of a func value), or add"
	echo "  '<file>: <var>  # reason' to $allow if it really must outlive the call"
	exit 1
fi
echo "escape-check: ok ($(wc -l <"$tmp/found.txt" | tr -d ' ') allowed escapes)"
