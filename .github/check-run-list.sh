#!/usr/bin/env bash
# check-run-list.sh PKG REGEX fails unless every |-separated alternative of
# the `go test -run` REGEX lists at least one test under `go test -list` in
# PKG. A named list whose alternative matches nothing would stop gating
# without a word once the test it named is renamed or deleted. Alternatives
# are split at every '|', so REGEX must not group alternations in parens.
set -euo pipefail
pkg=$1
IFS='|' read -ra alts <<<"$2"
status=0
for alt in "${alts[@]}"; do
	listed=$(go test -list "$alt" "$pkg")
	if ! grep -qE '^(Test|Fuzz|Example)' <<<"$listed"; then
		echo "check-run-list: -run alternative '$alt' lists no test in $pkg" >&2
		status=1
	fi
done
exit "$status"
