#!/bin/sh
# loc.sh — prints the code-line count ROADMAP.md records: non-blank
# lines that are not // comments, in the non-test Go files under
# internal/ and cmd/, testdata/ excluded.
#
# Run from the repository root: ./scripts/loc.sh
set -eu

cd "$(dirname "$0")/.."

find internal cmd -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' -exec cat {} + |
    grep -Evc '^[[:space:]]*(//|$)'
