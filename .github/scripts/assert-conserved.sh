#!/usr/bin/env bash
# usage: assert-conserved.sh <run log> <audit log>
#
# What every gauntlet asserts of a serve/loadtest run: no query was left open
# (wedged) at shutdown, and the audit log holds exactly one line per query
# the runtime submitted.
set -euo pipefail
log=$1
audit=$2
grep -q "| open 0 |" "$log"
submitted=$(grep -oP '\d+(?= submitted)' "$log" | head -1)
lines=$(wc -l < "$audit")
echo "submitted=$submitted audit_lines=$lines"
test -n "$submitted" && test "$lines" -eq "$submitted"
