#!/bin/sh
# Run an explicit list of tests, failing if any name is not a test.
#
# Usage: .github/run-named-tests.sh 'TestA|TestB' ./pkg [./pkg ...]
#
# `go test -run 'A|B'` passes with "no tests to run" when a name
# matches nothing, so a renamed or deleted test would silently drop out
# of a named CI step. This script first lists the packages' tests with
# `go test -list` and requires every name to be one of them exactly,
# then runs exactly those tests with -v.
set -eu
names=$1
shift
listed=$(go test -list '.*' "$@")
missing=0
for name in $(printf '%s\n' "$names" | tr '|' ' '); do
	if ! printf '%s\n' "$listed" | grep -qx "$name"; then
		echo "run-named-tests: no test named $name in $*" >&2
		missing=1
	fi
done
if [ "$missing" -ne 0 ]; then
	exit 1
fi
exec go test "$@" -run "^($names)\$" -v
