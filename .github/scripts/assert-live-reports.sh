#!/usr/bin/env bash
# usage: assert-live-reports.sh <stderr of a serve/loadtest run with --report-ms>
#
# The live reporter printed at least one line, and every line is one
# consistent instant of the run's counters:
# submitted = completed + degraded + rejected + expired + open.
set -euo pipefail
log=$1
lines=$(grep -c '^\[serve t=' "$log" || true)
echo "live report lines: $lines"
test "$lines" -ge 1
grep '^\[serve t=' "$log" | awk '
  {
    for (i = 1; i < NF; i++) n[$i] = $(i + 1)
    if (n["submitted"] != n["completed"] + n["degraded"] + n["rejected"] + n["expired"] + n["open"]) {
      print "not conserved: " $0
      bad = 1
    }
  }
  END { exit bad }
'
