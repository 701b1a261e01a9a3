#!/usr/bin/env bash
# mutants.sh — every differential oracle and recorded mutation claim, re-run.
#
# Each row of scripts/mutants.txt names a file, an exact fragment of it, the
# fragment's replacement, a package and a -run regex. For every row the
# script applies the replacement to a copy of the checkout, builds the
# package's test binary and runs the named tests. A row passes when those
# tests fail: the mutant is caught. The script fails when
#   - a fragment is not found exactly once (a stale row is updated, not
#     dropped),
#   - a mutant does not build,
#   - the regex selects no test, or
#   - the named tests pass on a mutant (the oracle is dead).
# Before the mutants, each row's tests must pass on the unmutated copy
# (checked once per package and regex).
#
# Like benchmark/run.sh, it works inside <checkout>/.mutants_build (the
# copy, the Go build cache and temp files), so it writes nothing outside the
# checkout. Usage: scripts/mutants.sh [row-filter-regex], where the filter
# is an extended regex matched against "<row number>: <file> [<run regex>]".
set -euo pipefail
GO=${GO:-go}
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.mutants_build"
src="$out/src"
table="$here/mutants.txt"
filter="${1:-}"
mkdir -p "$out/tmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS=-buildvcs=false

# The copy: the checkout's files, without its build directories. It goes
# when the script ends, so no stale Go file outlives the run.
rm -rf "$src"
mkdir -p "$src"
trap 'rm -rf "$src"' EXIT
tar -C "$root" --exclude=./.git --exclude=./.bench_build --exclude=./.mutants_build -cf - . | tar -C "$src" -xf -

# runrow PKG RUN LABEL: build PKG's tests in the copy and run RUN; prints
# "pass", "fail", "build" or "none" (no test selected).
runrow() {
	local pkg=$1 run=$2 bin="$out/bin/t.test" log="$out/tmp/run.log"
	rm -f "$bin"
	if ! (cd "$src" && "$GO" test -c -o "$bin" "$pkg") >"$log" 2>&1; then
		echo build
		return
	fi
	if (cd "$src/$pkg" && "$bin" -test.run "$run" -test.count 1 -test.v -test.timeout 300s) >"$log" 2>&1; then
		if grep -q '^=== RUN' "$log"; then echo pass; else echo none; fi
	else
		echo fail
	fi
}

failed=0
n=0
declare -A clean # "package regex" pairs already seen passing unmutated
tab=$'\t'
while IFS= read -r line; do
	case "$line" in '' | '#'*) continue ;; esac
	# Split on single tabs, so an empty replacement stays a field.
	fields=()
	while [[ $line == *"$tab"* ]]; do
		fields+=("${line%%"$tab"*}")
		line=${line#*"$tab"}
	done
	fields+=("$line")
	file=${fields[0]} old=${fields[1]:-} new=${fields[2]:-} pkg=${fields[3]:-} run=${fields[4]:-}
	n=$((n + 1))
	row="$n: $file [$run]"
	if [ -n "$filter" ] && ! printf '%s\n' "$row" | grep -Eq -- "$filter"; then
		continue
	fi
	if [ "${#fields[@]}" != 5 ]; then
		echo "mutants: row $row: want 5 tab-separated fields"
		failed=1
		continue
	fi
	cp "$root/$file" "$src/$file"
	if [ -z "${clean["$pkg $run"]:-}" ]; then
		if [ "$(runrow "$pkg" "$run")" != pass ]; then
			echo "mutants: row $row: the named tests do not pass unmutated"
			tail -20 "$out/tmp/run.log"
			failed=1
			continue
		fi
		clean["$pkg $run"]=1 # the copy is the same for every row
	fi
	# The fragments are written with \n and \t escapes; an empty
	# replacement deletes the fragment.
	old=${old//\\n/$'\n'} new=${new//\\n/$'\n'}
	old=${old//\\t/$'\t'} new=${new//\\t/$'\t'}
	text=$(cat "$src/$file" && echo .)
	text=${text%.}
	rest=${text#*"$old"}
	if [ -z "$old" ] || [ "$rest" = "$text" ] || [[ $rest == *"$old"* ]]; then
		echo "mutants: row $row: stale fragment (not found exactly once)"
		failed=1
		continue
	fi
	printf '%s' "${text%%"$old"*}$new$rest" >"$src/$file"
	res=$(runrow "$pkg" "$run")
	cp "$root/$file" "$src/$file"
	case "$res" in
	fail) echo "mutants: row $row: caught" ;;
	build)
		echo "mutants: row $row: the mutant does not build"
		tail -20 "$out/tmp/run.log"
		failed=1
		;;
	none)
		echo "mutants: row $row: the regex selects no test"
		failed=1
		;;
	pass)
		echo "mutants: row $row: SURVIVED (the named tests pass on the mutant)"
		failed=1
		;;
	esac
done <"$table"
if [ "$failed" != 0 ]; then
	echo "mutants: FAILED"
	exit 1
fi
echo "mutants: ok ($n rows)"
