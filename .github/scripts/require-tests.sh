#!/usr/bin/env bash
# Usage: require-tests.sh PKG PATTERN
#
# Fails unless every |-separated alternative of a `go test -run` or `-fuzz`
# PATTERN still matches at least one test or fuzz target in PKG, so a
# renamed or deleted one cannot silently shrink a looped CI step or leave a
# fuzz step fuzzing nothing (go test -fuzz exits 0 on a pattern that
# matches no target).
set -euo pipefail
pkg=$1
pattern=$2
IFS='|' read -ra alts <<<"$pattern"
status=0
for alt in "${alts[@]}"; do
  listed=$(go test -list "$alt" "$pkg")
  if ! grep -qE '^(Test|Fuzz)' <<<"$listed"; then
    echo "alternative '$alt' matches no test or fuzz target in $pkg" >&2
    status=1
  fi
done
exit "$status"
