#!/usr/bin/env bash
# Usage: require-tests.sh PKG PATTERN
#
# Fails unless every |-separated alternative of a `go test -run` PATTERN
# still matches at least one test in PKG, so a renamed or deleted test
# cannot silently shrink a looped CI step.
set -euo pipefail
pkg=$1
pattern=$2
IFS='|' read -ra alts <<<"$pattern"
status=0
for alt in "${alts[@]}"; do
  listed=$(go test -list "$alt" "$pkg")
  if ! grep -q '^Test' <<<"$listed"; then
    echo "-run alternative '$alt' matches no test in $pkg" >&2
    status=1
  fi
done
exit "$status"
